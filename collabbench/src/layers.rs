//! The calls into each layer, timed and (when tracing) wrapped in spans,
//! and the per-layer metrics computed from a traced pass.

use crate::common::{proc_status_mb, ratio, Metrics, PROTOCOL_PHASES};
use crate::trace::{span, totals, Tracer};
use collabsim::{
    AdversaryRegistry, DirStore, PhaseRegistry, RunStore, ScenarioSpec, Simulation, Snapshot,
};
use std::time::Instant;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("spec.parse_s", "s"),
    ("world.build_s", "s"),
    ("world.rss_mb", "MB"),
    ("selection.us_per_step", "us"),
    ("sharing.us_per_step", "us"),
    ("download.us_per_step", "us"),
    ("edit-vote.us_per_step", "us"),
    ("utility.us_per_step", "us"),
    ("learning.us_per_step", "us"),
    ("step.dispatch_us_per_step", "us"),
    ("churn.us_per_step", "us"),
    ("adversary.us_per_step", "us"),
    ("propagation.eigentrust.us_per_call", "us"),
    ("propagation.gossip.us_per_call", "us"),
    ("propagation.calls", "count"),
    ("threads.speedup.sharing", "x"),
    ("threads.speedup.download", "x"),
    ("threads.speedup.edit-vote", "x"),
    ("threads.speedup.utility", "x"),
    ("threads.speedup.learning", "x"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.capture_s", "s"),
    ("snapshot.encode_s", "s"),
    ("store.put_s", "s"),
    ("store.get_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.resume_s", "s"),
    ("snapshot.rss_delta_mb", "MB"),
    ("grid.cells", "count"),
    ("grid.attempts", "count"),
    ("grid.cell_overhead_ms", "ms"),
    ("grid.worker_busy_share", "share"),
    ("download.completed", "count"),
    ("net.grant_applied_share", "share"),
    ("net.transfers_failed", "count"),
    ("net.transfers_rerouted", "count"),
    ("edit-vote.resolved", "count"),
    ("churn.events", "count"),
    ("trace.overhead", "x"),
];

/// A metric set holding every per-layer name at 0.
pub fn per_layer_defaults() -> Metrics {
    let mut metrics = Metrics::default();
    for (name, unit) in PER_LAYER {
        metrics.put(name, 0.0, unit);
    }
    metrics
}

/// Spec text → simulation ready to step: `ScenarioSpec::parse` then
/// `Simulation::from_spec_with_registries`.
pub fn build(
    text: &str,
    registry: &PhaseRegistry,
    tracer: Option<&Tracer>,
) -> Result<(ScenarioSpec, Simulation), String> {
    let spec = span(tracer, "spec.parse", || ScenarioSpec::parse(text))
        .map_err(|e| format!("spec does not parse: {e}"))?;
    let sim = span(tracer, "world.build", || {
        Simulation::from_spec_with_registries(&spec, registry, &AdversaryRegistry::standard())
    })
    .map_err(|e| format!("{}: world does not build: {e}", spec.label()))?;
    if let Some(tracer) = tracer {
        tracer.peak("world.rss_mb", proc_status_mb("VmRSS"));
    }
    Ok((spec, sim))
}

/// What a checkpoint or resume measured.
pub struct Hop {
    pub seconds: f64,
    /// Growth of the resident set while the hop's buffers were live (MB).
    pub rss_delta_mb: f64,
}

/// Checkpoint: `Simulation::snapshot` then `DirStore::put` (which
/// encodes). When tracing, the snapshot is also encoded on its own, to
/// time the codec and count its bytes; those bytes are returned so the
/// resume can time a bare decode too.
pub fn checkpoint(
    sim: &Simulation,
    spec: &ScenarioSpec,
    store: &mut DirStore,
    tracer: Option<&Tracer>,
) -> Result<(String, Hop, Option<Vec<u8>>), String> {
    let rss_before = proc_status_mb("VmRSS");
    let started = Instant::now();
    let snapshot = span(tracer, "snapshot.capture", || sim.snapshot(spec));
    let encoded = tracer.map(|t| span(Some(t), "snapshot.encode", || snapshot.encode()));
    let key = span(tracer, "store.put", || store.put(&snapshot))
        .map_err(|e| format!("{}: checkpoint failed: {e}", spec.label()))?;
    let hop = Hop {
        seconds: started.elapsed().as_secs_f64(),
        rss_delta_mb: proc_status_mb("VmRSS") - rss_before,
    };
    if let (Some(tracer), Some(bytes)) = (tracer, &encoded) {
        tracer.add("snapshot.bytes", bytes.len() as f64);
        tracer.peak("snapshot.rss_delta_mb", hop.rss_delta_mb);
    }
    Ok((key, hop, encoded))
}

/// Resume: `DirStore::get` (read and decode), an optional fork onto
/// another spec (`Snapshot::with_spec`), then
/// `Simulation::resume_with_registries`.
pub fn resume(
    store: &DirStore,
    key: &str,
    fork: Option<&ScenarioSpec>,
    registry: &PhaseRegistry,
    tracer: Option<&Tracer>,
    encoded: Option<&[u8]>,
) -> Result<(Simulation, Hop), String> {
    let rss_before = proc_status_mb("VmRSS");
    let started = Instant::now();
    let snapshot = span(tracer, "store.get", || store.get(key))
        .map_err(|e| format!("snapshot {key} does not load: {e}"))?;
    let snapshot = match fork {
        Some(spec) => snapshot.with_spec(spec),
        None => snapshot,
    };
    let sim = span(tracer, "snapshot.resume", || {
        Simulation::resume_with_registries(&snapshot, registry, &AdversaryRegistry::standard())
    })
    .map_err(|e| format!("snapshot {key} does not resume: {e}"))?;
    let hop = Hop {
        seconds: started.elapsed().as_secs_f64(),
        rss_delta_mb: proc_status_mb("VmRSS") - rss_before,
    };
    drop(snapshot);
    if let Some(tracer) = tracer {
        tracer.peak("snapshot.rss_delta_mb", hop.rss_delta_mb);
    }
    if let Some(bytes) = encoded {
        span(tracer, "snapshot.decode", || Snapshot::decode(bytes))
            .map_err(|e| format!("snapshot {key} does not decode: {e}"))?;
    }
    Ok((sim, hop))
}

/// The per-layer metrics a traced pass yields: spec/world, pipeline
/// phases per step, engine dispatch, propagation per call, snapshot and
/// store.
pub fn emit_traced(tracer: &Tracer, metrics: &mut Metrics) {
    let spans = tracer.spans();
    let totals = totals(&spans);
    for gauge in ["world.rss_mb", "snapshot.bytes", "snapshot.rss_delta_mb"] {
        let unit = if gauge == "snapshot.bytes" {
            "bytes"
        } else {
            "MB"
        };
        metrics.put(gauge, tracer.gauge(gauge), unit);
    }
    let seconds = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let steps = totals.get("step").map_or(0, |t| t.count) as f64;
    let per_step = |name: &str| ratio(totals.get(name).map_or(0.0, |t| t.self_s), steps) * 1e6;
    metrics.put("spec.parse_s", seconds("spec.parse"), "s");
    metrics.put("world.build_s", seconds("world.build"), "s");
    for phase in PROTOCOL_PHASES.into_iter().chain(["churn", "adversary"]) {
        metrics.put(format!("{phase}.us_per_step"), per_step(phase), "us");
    }
    metrics.put("step.dispatch_us_per_step", per_step("step"), "us");
    for (call, metric) in [
        (
            "propagation.eigentrust",
            "propagation.eigentrust.us_per_call",
        ),
        ("propagation.gossip", "propagation.gossip.us_per_call"),
    ] {
        let call = totals.get(call).copied().unwrap_or_default();
        metrics.put(metric, ratio(call.total_s, call.count as f64) * 1e6, "us");
    }
    for (name, metric) in [
        ("snapshot.capture", "snapshot.capture_s"),
        ("snapshot.encode", "snapshot.encode_s"),
        ("store.put", "store.put_s"),
        ("store.get", "store.get_s"),
        ("snapshot.decode", "snapshot.decode_s"),
        ("snapshot.resume", "snapshot.resume_s"),
    ] {
        metrics.put(metric, seconds(name), "s");
    }
}

/// `threads.speedup.<phase>`: phase self time of the one-thread leg over
/// that of the default leg.
pub fn emit_speedups(one_thread: &Tracer, default: &Tracer, metrics: &mut Metrics) {
    let [one_thread, default] = [one_thread, default].map(|tracer| totals(&tracer.spans()));
    for phase in &PROTOCOL_PHASES[1..] {
        let [at_one, at_default] =
            [&one_thread, &default].map(|totals| totals.get(phase).map_or(0.0, |t| t.self_s));
        metrics.put(
            format!("threads.speedup.{phase}"),
            ratio(at_one, at_default),
            "x",
        );
    }
}

/// Threads or worker processes of a timed parallel leg: every core but
/// one, at least one. On a shared host a fan-out over every core waits on
/// whichever core a neighbour holds, so its speed would be the
/// scheduler's, not the program's (on 2 vCPUs, one busy neighbour process
/// took 21 % off 5e4-peer steps/s at two threads and 1 % at one).
pub fn timed_parallelism() -> usize {
    collabsim::threads::hardware_threads()
        .saturating_sub(1)
        .max(1)
}

/// Runs `f` with `SCENARIO_THREADS=threads`, restoring the previous
/// setting. The thread count is resolved when a world is built, so `f`
/// must build its own simulations. Call only while no other thread runs.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    const VAR: &str = collabsim::threads::SCENARIO_THREADS_ENV;
    let previous = std::env::var(VAR).ok();
    std::env::set_var(VAR, threads.to_string());
    let result = f();
    match previous {
        Some(value) => std::env::set_var(VAR, value),
        None => std::env::remove_var(VAR),
    }
    result
}
