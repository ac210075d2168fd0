//! `population-5e4`: one 5×10⁴-peer cell, checkpointed to a `DirStore`
//! mid-run; the run goes on to the end, then a fresh simulation resumes
//! from the checkpoint and must finish with a byte-identical report.
//!
//! The timed attempts step on every core but one
//! ([`layers::timed_parallelism`]); the traced run adds legs at one thread
//! and at every core for `threads.speedup.<phase>`.

use crate::common::{drive, median, proc_status_mb, secs, Checks, Counts, Metrics, Outcome};
use crate::layers::{self, build, checkpoint, emit_traced, per_layer_defaults, resume};
use crate::specs;
use crate::trace::{traced_registry, Tracer};
use crate::Args;
use collabsim::{DirStore, PhaseRegistry};
use std::time::Instant;

/// Step after which the checkpoint is taken.
const CHECKPOINT_AT: u64 = 15;

/// Nominal seconds of one attempt (2-vCPU host).
const NOMINAL_ATTEMPT_S: f64 = 7.0;

/// Threads of the timed attempts, at most the engine's own cap of eight.
fn timed_threads() -> usize {
    layers::timed_parallelism().min(8)
}

/// Threads of the traced leg that uses every core.
fn widest_threads() -> usize {
    collabsim::threads::hardware_threads().clamp(1, 8)
}

struct Attempt {
    wall_s: f64,
    setup_s: f64,
    /// Steps per second of the uninterrupted run, checkpoint excluded.
    /// (Whole runs, not shorter segments: training and evaluation steps
    /// differ in cost, so a median over segments would straddle the two.)
    steps_per_sec: f64,
    checkpoint_s: f64,
    resume_s: f64,
    report: String,
    counts: Counts,
}

fn attempt(text: &str, store: &mut DirStore, tracer: Option<&Tracer>) -> Result<Attempt, String> {
    let registry = match tracer {
        Some(tracer) => traced_registry(tracer),
        None => PhaseRegistry::standard(),
    };
    if let Some(tracer) = tracer {
        tracer.begin_trace();
    }
    let started = Instant::now();
    let (spec, mut sim) = build(text, &registry, tracer)?;
    let setup_s = secs(started);

    let steps = sim.remaining_steps();
    let mut stepping_s = 0.0;
    let mut stepping = Instant::now();
    let mut saved = None;
    let report = drive(&mut sim, tracer, |sim| {
        if sim.now() == CHECKPOINT_AT {
            stepping_s += secs(stepping);
            saved = Some(checkpoint(sim, &spec, store, tracer));
            stepping = Instant::now();
        }
    });
    stepping_s += secs(stepping);
    let counts = Counts::of(&sim, &report);
    let report = format!("{report:?}");
    drop(sim);
    let (key, saved, encoded) = saved.ok_or("the run never reached its checkpoint")??;

    // The resumed tail runs through the engine's own `finish`, untraced.
    let standard = PhaseRegistry::standard();
    let (mut resumed, loaded) = resume(store, &key, None, &standard, tracer, encoded.as_deref())?;
    drop(encoded);
    let resumed_report = resumed.finish();
    if format!("{resumed_report:?}") != report || Counts::of(&resumed, &resumed_report) != counts {
        return Err("the resumed run's report differs from the uninterrupted one".into());
    }
    Ok(Attempt {
        wall_s: secs(started),
        setup_s,
        steps_per_sec: steps as f64 / stepping_s,
        checkpoint_s: saved.seconds,
        resume_s: loaded.seconds,
        report,
        counts,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let text = specs::population(args.seed);
    let mut store =
        DirStore::open(args.work_dir.join("population-store")).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let timed = timed_threads();
    for _ in 0..args.units(NOMINAL_ATTEMPT_S) {
        let next = match layers::with_threads(timed, || attempt(&text, &mut store, None)) {
            Ok(next) => next,
            Err(problem) => {
                checks.unit(Some(problem));
                break;
            }
        };
        let problem = match attempts.first() {
            // The job's own peak: later attempts only add allocator churn.
            None => {
                peak_rss_mb = proc_status_mb("VmHWM");
                None
            }
            Some(first) if next.report != first.report || next.counts != first.counts => {
                Some("a repeated attempt of the same seed changed its report".to_string())
            }
            Some(_) => None,
        };
        checks.unit(problem);
        attempts.push(next);
    }
    let Some(first) = attempts.first() else {
        return Ok(checks.into_outcome(Metrics::default()));
    };

    if !args.trace {
        let pick = |f: fn(&Attempt) -> f64| median(&attempts.iter().map(f).collect::<Vec<_>>());
        let mut metrics = Metrics::default();
        metrics.put("steps_per_sec", pick(|a| a.steps_per_sec), "1/s");
        metrics.put("wall_s", pick(|a| a.wall_s), "s");
        metrics.put("setup_s", pick(|a| a.setup_s), "s");
        metrics.put("checkpoint_s", pick(|a| a.checkpoint_s), "s");
        metrics.put("resume_s", pick(|a| a.resume_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("ok_share", checks.ok_share(), "share");
        return Ok(checks.into_outcome(metrics));
    }

    // Traced legs, one per distinct thread count: the timed attempts'
    // count (for `trace.overhead`), one thread and every core (for
    // `threads.speedup.<phase>`).
    let untraced_wall = median(&attempts.iter().map(|a| a.wall_s).collect::<Vec<_>>());
    let mut legs: Vec<(usize, Tracer, Result<Attempt, String>)> = Vec::new();
    for threads in [timed, 1, widest_threads()] {
        if legs.iter().all(|(done, _, _)| *done != threads) {
            let tracer = Tracer::new();
            let leg = layers::with_threads(threads, || attempt(&text, &mut store, Some(&tracer)));
            legs.push((threads, tracer, leg));
        }
    }
    for (threads, _, leg) in &legs {
        let problem = match leg {
            Ok(leg) if leg.report == first.report && leg.counts == first.counts => None,
            Ok(_) => Some(format!(
                "the traced attempt at {threads} threads differs from the untraced one"
            )),
            Err(problem) => Some(format!(
                "the traced attempt at {threads} threads failed: {problem}"
            )),
        };
        checks.unit(problem);
    }
    let leg = |threads: usize| legs.iter().find(|(done, _, _)| *done == threads);
    let mut metrics = per_layer_defaults();
    let (_, tracer, traced) = leg(timed).expect("the timed thread count has a leg");
    if let Ok(traced) = traced {
        emit_traced(tracer, &mut metrics);
        traced.counts.emit(&mut metrics);
        metrics.put("trace.overhead", traced.wall_s / untraced_wall, "x");
    }
    if let (Some((_, one, Ok(_))), Some((_, widest, Ok(_)))) = (leg(1), leg(widest_threads())) {
        layers::emit_speedups(one, widest, &mut metrics);
    }
    tracer
        .write_tsv(&args.out_dir.join("trace-population-5e4.tsv"))
        .map_err(|e| e.to_string())?;
    Ok(checks.into_outcome(metrics))
}
