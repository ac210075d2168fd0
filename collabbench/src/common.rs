//! Pieces every workload shares: the step loop, exact protocol counts,
//! memory readings, medians and the result line.

use crate::trace::{span, Tracer};
use collabsim::{Simulation, SimulationReport};
use std::fmt::Write as _;
use std::time::Instant;

/// splitmix64: derives the per-cell simulation seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0x000F_FFFF_FFFF_FFFF
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Drives `sim` through the rest of its protocol with [`Simulation::step`],
/// exactly as [`Simulation::finish`] does (remaining training steps, the
/// reputation reset, remaining evaluation steps), calling `after_step`
/// after every step. With a tracer each step is a `step` span, so the
/// phase spans nest under it.
pub fn drive(
    sim: &mut Simulation,
    tracer: Option<&Tracer>,
    mut after_step: impl FnMut(&mut Simulation),
) -> SimulationReport {
    let phases = sim.config().phases;
    if !sim.world().measuring {
        while sim.now() < phases.training_steps {
            span(tracer, "step", || sim.step(phases.training_temperature));
            after_step(sim);
        }
        sim.reset_for_evaluation();
    }
    while sim.world().evaluation_steps_run < phases.evaluation_steps {
        span(tracer, "step", || sim.step(phases.evaluation_temperature));
        sim.world_mut().evaluation_steps_run += 1;
        after_step(sim);
    }
    sim.world().build_report()
}

/// Exact protocol counts of finished cells. They must repeat exactly for
/// a seed, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub downloads_completed: u64,
    pub edits_resolved: u64,
    pub churn_events: u64,
    pub propagation_calls: u64,
    pub grants_offered: f64,
    pub grants_applied: f64,
    pub transfers_failed: u64,
    pub transfers_rerouted: u64,
}

impl Counts {
    /// The counts of one finished simulation.
    pub fn of(sim: &Simulation, report: &SimulationReport) -> Self {
        let world = sim.world();
        Self {
            downloads_completed: report.completed_downloads as u64,
            edits_resolved: report.edit_outcomes.decided(),
            churn_events: world.churn_stats.total_events(),
            propagation_calls: world.propagation_runs,
            grants_offered: world.net_stats.grants_offered,
            grants_applied: world.net_stats.grants_applied,
            transfers_failed: world.net_stats.transfers_failed,
            transfers_rerouted: world.net_stats.transfers_rerouted,
        }
    }

    pub fn add(&mut self, other: &Self) {
        self.downloads_completed += other.downloads_completed;
        self.edits_resolved += other.edits_resolved;
        self.churn_events += other.churn_events;
        self.propagation_calls += other.propagation_calls;
        self.grants_offered += other.grants_offered;
        self.grants_applied += other.grants_applied;
        self.transfers_failed += other.transfers_failed;
        self.transfers_rerouted += other.transfers_rerouted;
    }

    /// Writes the count metrics of the per-layer table.
    pub fn emit(&self, metrics: &mut Metrics) {
        metrics.put(
            "download.completed",
            self.downloads_completed as f64,
            "count",
        );
        let applied_share = if self.grants_offered > 0.0 {
            self.grants_applied / self.grants_offered
        } else {
            0.0
        };
        metrics.put("net.grant_applied_share", applied_share, "share");
        metrics.put(
            "net.transfers_failed",
            self.transfers_failed as f64,
            "count",
        );
        metrics.put(
            "net.transfers_rerouted",
            self.transfers_rerouted as f64,
            "count",
        );
        metrics.put("edit-vote.resolved", self.edits_resolved as f64, "count");
        metrics.put("churn.events", self.churn_events as f64, "count");
        metrics.put("propagation.calls", self.propagation_calls as f64, "count");
    }
}

/// A `/proc/self/status` field in megabytes (`VmRSS`, `VmHWM`).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of the largest waited-for child process, in MB (a
/// spawned child starts out counting the parent's resident set).
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable struct with the layout of the 64-bit
    // Linux `struct rusage`; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Ratio with a zero denominator mapped to zero.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The named metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets a metric (in place when it is already present).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(existing, _, _)| *existing == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Units (cells, attempts) run.
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
    /// Why units failed (printed before the result line).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Tallies checked units and the reasons of the failing ones.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Records one unit; `problem` is `Some(reason)` when it failed.
    pub fn unit(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// A failure not tied to one unit (it still lowers `ok_share`).
    pub fn fail(&mut self, problem: String) {
        self.unit(Some(problem));
    }

    pub fn ok_share(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }

    pub fn into_outcome(self, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
        }
    }
}

/// Phase names of the standard pipeline, in the per-layer table's order.
pub const PROTOCOL_PHASES: [&str; 6] = [
    "selection",
    "sharing",
    "download",
    "edit-vote",
    "utility",
    "learning",
];
