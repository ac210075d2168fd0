//! `warm-grid`: a 400-peer population with churn and lossy links is
//! equilibrated once and checkpointed; a panel (propagation backend ×
//! adversary strategy) is forked from that checkpoint by the multi-process
//! grid coordinator, and every worker report must equal an in-process
//! replay of the same fork.

use crate::common::{
    children_peak_rss_mb, drive, median, proc_status_mb, ratio, secs, Checks, Counts, Metrics,
    Outcome,
};
use crate::layers::{self, build, checkpoint, emit_traced, per_layer_defaults, resume};
use crate::specs::{self, WARM_PREFIX};
use crate::trace::{span, traced_registry, Tracer};
use crate::Args;
use collabsim::snapshot::SNAPSHOT_EXTENSION;
use collabsim::{DirStore, PhaseRegistry, ScenarioSpec};
use collabsim_cli::{run_grid, CellStatus, GridOptions};
use std::time::Instant;

/// Nominal seconds of one pass (2-vCPU host).
const NOMINAL_PASS_S: f64 = 5.0;

struct Pass {
    wall_s: f64,
    /// Σ of the workers' snapshot-restore builds.
    setup_s: f64,
    /// Σ worker steps ÷ Σ worker stepping seconds.
    steps_per_sec: f64,
    checkpoint_s: f64,
    /// Σ of the in-process replays' get + fork + resume.
    resume_s: f64,
    reports: Vec<String>,
    counts: Counts,
    grid_cells: usize,
    grid_attempts: usize,
    grid_wall_s: f64,
    /// Σ worker build + run seconds.
    grid_busy_s: f64,
    workers: usize,
}

fn pass(args: &Args, tracer: Option<&Tracer>, checks: &mut Checks) -> Result<Pass, String> {
    let (base_text, panel_texts) = specs::warm_grid(args.seed);
    let registry = match tracer {
        Some(tracer) => traced_registry(tracer),
        None => PhaseRegistry::standard(),
    };
    let started = Instant::now();
    if let Some(tracer) = tracer {
        tracer.begin_trace();
    }
    let (base_spec, mut base) = build(&base_text, &registry, tracer)?;
    let temperature = base.config().phases.training_temperature;
    while base.now() < WARM_PREFIX {
        span(tracer, "step", || base.step(temperature));
    }
    let mut store = DirStore::open(args.work_dir.join("warm-store")).map_err(|e| e.to_string())?;
    let (key, saved, encoded) = checkpoint(&base, &base_spec, &mut store, tracer)?;
    drop(base);

    let specs = span(tracer, "spec.parse", || {
        panel_texts
            .iter()
            .map(|text| ScenarioSpec::parse(text))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("panel spec does not parse: {e}"))?;
    let workers = layers::timed_parallelism().min(specs.len());
    let options = GridOptions {
        workers,
        retries: 1,
        out_dir: args.work_dir.join("grid"),
        worker_bin: std::env::current_exe().map_err(|e| e.to_string())?,
        quiet: true,
        warm_start: Some(store.dir().join(format!("{key}.{SNAPSHOT_EXTENSION}"))),
        resume: false,
    };
    let summary =
        span(tracer, "grid.run", || run_grid(&specs, &options)).map_err(|e| e.to_string())?;

    let mut out = Pass {
        wall_s: 0.0,
        setup_s: 0.0,
        steps_per_sec: 0.0,
        checkpoint_s: saved.seconds,
        resume_s: 0.0,
        reports: Vec::new(),
        counts: Counts::default(),
        grid_cells: summary.cells.len(),
        grid_attempts: summary.total_attempts(),
        grid_wall_s: summary.wall_seconds,
        grid_busy_s: 0.0,
        workers,
    };
    let (mut steps, mut stepping_s) = (0u64, 0.0);
    for (cell, spec) in summary.cells.iter().zip(&specs) {
        if let Some(tracer) = tracer {
            tracer.begin_trace();
        }
        let replay = span(tracer, "cell", || -> Result<(), String> {
            let result = match (&cell.status, &cell.result) {
                (CellStatus::Ok, Some(result)) => result,
                _ => return Err(format!("{}: worker failed: {:?}", cell.label, cell.failure)),
            };
            out.setup_s += result.build_seconds;
            out.grid_busy_s += result.build_seconds + result.run_seconds;
            steps += result.total_steps;
            stepping_s += result.run_seconds;
            out.reports.push(result.report_debug.clone());
            let (mut sim, loaded) = resume(
                &store,
                &key,
                Some(spec),
                &registry,
                tracer,
                encoded.as_deref(),
            )?;
            out.resume_s += loaded.seconds;
            let report = drive(&mut sim, tracer, |_| {});
            out.counts.add(&Counts::of(&sim, &report));
            if format!("{report:?}") != result.report_debug {
                return Err(format!(
                    "{}: worker report differs from the in-process replay",
                    cell.label
                ));
            }
            Ok(())
        });
        checks.unit(replay.err());
    }
    out.steps_per_sec = ratio(steps as f64, stepping_s);
    out.wall_s = secs(started);
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    for _ in 0..args.units(NOMINAL_PASS_S) {
        let next = pass(args, None, &mut checks)?;
        match passes.first() {
            // The job's own peak: later passes only add allocator churn.
            None => peak_rss_mb = proc_status_mb("VmHWM").max(children_peak_rss_mb()),
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
        metrics.put("steps_per_sec", pick(|p| p.steps_per_sec), "1/s");
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
    let one_tracer = Tracer::new();
    let traced = pass(args, Some(&tracer), &mut checks)?;
    let one = layers::with_threads(1, || pass(args, Some(&one_tracer), &mut checks))?;
    for (leg, name) in [(&traced, "traced"), (&one, "one-thread traced")] {
        if leg.reports != first.reports || leg.counts != first.counts {
            checks.fail(format!("the {name} pass differs from the untraced one"));
        }
    }
    let mut metrics = per_layer_defaults();
    emit_traced(&tracer, &mut metrics);
    layers::emit_speedups(&one_tracer, &tracer, &mut metrics);
    traced.counts.emit(&mut metrics);
    let capacity = traced.workers as f64 * traced.grid_wall_s;
    metrics.put("grid.cells", traced.grid_cells as f64, "count");
    metrics.put("grid.attempts", traced.grid_attempts as f64, "count");
    metrics.put(
        "grid.cell_overhead_ms",
        ratio(capacity - traced.grid_busy_s, traced.grid_cells as f64) * 1e3,
        "ms",
    );
    metrics.put(
        "grid.worker_busy_share",
        ratio(traced.grid_busy_s, capacity),
        "share",
    );
    metrics.put("trace.overhead", traced.wall_s / untraced_wall, "x");
    tracer
        .write_tsv(&args.out_dir.join("trace-warm-grid.tsv"))
        .map_err(|e| e.to_string())?;
    Ok(checks.into_outcome(metrics))
}
