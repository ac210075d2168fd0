//! `paper-sweep`: the paper cell plus the 18 Section IV-B mix cells, 100
//! peers each, in-process on one thread. Each cell ends with a checkpoint
//! of its final state and a resume that must rebuild the same report.

use crate::common::{drive, median, proc_status_mb, secs, Checks, Counts, Metrics, Outcome};
use crate::layers::{self, build, checkpoint, emit_traced, per_layer_defaults, resume};
use crate::specs;
use crate::trace::{span, traced_registry, Tracer};
use crate::Args;
use collabsim::{DirStore, PhaseRegistry};
use std::time::Instant;

/// Nominal seconds of one pass (2-vCPU host).
const NOMINAL_PASS_S: f64 = 2.5;

/// One pass over every cell.
struct Pass {
    wall_s: f64,
    setup_s: f64,
    stepping_s: f64,
    steps: u64,
    checkpoint_s: f64,
    resume_s: f64,
    reports: Vec<String>,
    counts: Counts,
}

fn pass(
    texts: &[String],
    store: &mut DirStore,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Pass {
    let registry = match tracer {
        Some(tracer) => traced_registry(tracer),
        None => PhaseRegistry::standard(),
    };
    let started = Instant::now();
    let mut out = Pass {
        wall_s: 0.0,
        setup_s: 0.0,
        stepping_s: 0.0,
        steps: 0,
        checkpoint_s: 0.0,
        resume_s: 0.0,
        reports: Vec::new(),
        counts: Counts::default(),
    };
    for text in texts {
        if let Some(tracer) = tracer {
            tracer.begin_trace();
        }
        let cell = span(tracer, "cell", || -> Result<(), String> {
            let building = Instant::now();
            let (spec, mut sim) = build(text, &registry, tracer)?;
            out.setup_s += secs(building);
            let steps = sim.remaining_steps();
            let stepping = Instant::now();
            let report = drive(&mut sim, tracer, |_| {});
            out.stepping_s += secs(stepping);
            out.steps += steps;
            let rendered = format!("{report:?}");
            out.counts.add(&Counts::of(&sim, &report));
            let (key, saved, encoded) = checkpoint(&sim, &spec, store, tracer)?;
            out.checkpoint_s += saved.seconds;
            let (resumed, loaded) =
                resume(store, &key, None, &registry, tracer, encoded.as_deref())?;
            out.resume_s += loaded.seconds;
            let same = format!("{:?}", resumed.world().build_report()) == rendered
                && resumed.remaining_steps() == 0;
            out.reports.push(rendered);
            if !same {
                return Err(format!("{}: resumed final state differs", spec.label()));
            }
            Ok(())
        });
        checks.unit(cell.err());
    }
    out.wall_s = secs(started);
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let texts = specs::paper_sweep(args.seed);
    let mut store = DirStore::open(args.work_dir.join("paper-store")).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    for _ in 0..args.units(NOMINAL_PASS_S) {
        let next = pass(&texts, &mut store, None, &mut checks);
        match passes.first() {
            // The job's own peak: later passes only add allocator churn.
            None => peak_rss_mb = proc_status_mb("VmHWM"),
            Some(first) if next.reports != first.reports || next.counts != first.counts => {
                checks.fail("a repeated pass of the same seed changed its reports".into());
            }
            Some(_) => {}
        }
        passes.push(next);
    }
    let first = &passes[0];

    if !args.trace {
        let pick = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let mut metrics = Metrics::default();
        metrics.put(
            "steps_per_sec",
            pick(|p| p.steps as f64 / p.stepping_s),
            "1/s",
        );
        metrics.put("wall_s", pick(|p| p.wall_s), "s");
        metrics.put("setup_s", pick(|p| p.setup_s), "s");
        metrics.put("checkpoint_s", pick(|p| p.checkpoint_s), "s");
        metrics.put("resume_s", pick(|p| p.resume_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("ok_share", checks.ok_share(), "share");
        return Ok(checks.into_outcome(metrics));
    }

    // Traced legs: the default thread count, then one thread.
    let untraced_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let tracer = Tracer::new();
    let traced = pass(&texts, &mut store, Some(&tracer), &mut checks);
    let one_tracer = Tracer::new();
    let one = layers::with_threads(1, || {
        pass(&texts, &mut store, Some(&one_tracer), &mut checks)
    });
    for (leg, name) in [(&traced, "traced"), (&one, "one-thread traced")] {
        if leg.reports != first.reports || leg.counts != first.counts {
            checks.fail(format!("the {name} pass differs from the untraced one"));
        }
    }
    let mut metrics = per_layer_defaults();
    emit_traced(&tracer, &mut metrics);
    layers::emit_speedups(&one_tracer, &tracer, &mut metrics);
    traced.counts.emit(&mut metrics);
    metrics.put("trace.overhead", traced.wall_s / untraced_wall, "x");
    tracer
        .write_tsv(&args.out_dir.join("trace-paper-sweep.tsv"))
        .map_err(|e| e.to_string())?;
    Ok(checks.into_outcome(metrics))
}
