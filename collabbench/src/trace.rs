//! In-memory span tracing, recorded from the benchmark's side of the API.
//!
//! Spans wrap the calls the benchmark makes into each layer (spec parse,
//! world build, step, snapshot capture/encode/decode, store put/get,
//! `run_grid`) and, through [`traced_registry`], every pipeline phase: the
//! registry maps each standard phase name to the standard phase wrapped in
//! a timing decorator, so the engine itself is untouched. Spans are kept
//! in memory and written out once, at the end of the run.

use collabsim::{PhaseRegistry, SimWorld, SimulationConfig, StepContext, StepPhase};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// All spans of one cell share a trace id.
    pub trace: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Buffer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
    /// Named readings taken beside the spans (bytes, resident set).
    gauges: BTreeMap<&'static str, f64>,
}

/// A shared span recorder (cheap to clone; the phase decorators hold one).
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Buffer>>);

impl Tracer {
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(Buffer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
            gauges: BTreeMap::new(),
        })))
    }

    fn buffer(&self) -> std::sync::MutexGuard<'_, Buffer> {
        self.0
            .lock()
            .expect("a phase panicked while holding the span buffer")
    }

    /// Starts a new trace: spans opened from now on carry a fresh id.
    pub fn begin_trace(&self) {
        self.buffer().trace += 1;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let mut buf = self.buffer();
        let start_ns = buf.epoch.elapsed().as_nanos() as u64;
        let index = buf.spans.len();
        let span = Span {
            name,
            trace: buf.trace,
            parent: buf.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        };
        buf.spans.push(span);
        buf.open.push(index);
        index
    }

    /// Closes the span `index` (the innermost open one), optionally
    /// renaming it now that the outcome is known.
    pub fn close(&self, index: usize, rename: Option<&'static str>) {
        let mut buf = self.buffer();
        let end_ns = buf.epoch.elapsed().as_nanos() as u64;
        debug_assert_eq!(buf.open.last(), Some(&index));
        buf.open.pop();
        let span = &mut buf.spans[index];
        span.end_ns = end_ns;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Adds `value` to the gauge `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.buffer().gauges.entry(name).or_default() += value;
    }

    /// Raises the gauge `name` to `value` if that is higher.
    pub fn peak(&self, name: &'static str, value: f64) {
        let mut buf = self.buffer();
        let gauge = buf.gauges.entry(name).or_insert(value);
        *gauge = gauge.max(value);
    }

    /// The gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.buffer().gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.buffer().spans.clone()
    }

    /// Writes the spans as tab-separated lines
    /// (`trace id parent name start_ns end_ns self_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.trace, span.name, span.start_ns, span.end_ns, self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => {
            let index = tracer.open(name);
            let result = f();
            tracer.close(index, None);
            result
        }
        None => f(),
    }
}

/// Each span's self time: its duration minus the durations of its
/// children (children never overlap, so that is the covered part).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut map: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = map.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += (span.end_ns - span.start_ns) as f64 * 1e-9;
        entry.self_s += own as f64 * 1e-9;
    }
    map
}

/// Span name of a propagation phase tick that actually ran its backend.
fn propagation_call_name(config: &SimulationConfig) -> &'static str {
    let backend = config
        .propagation
        .scheme
        .map(|scheme| format!("{scheme:?}").to_lowercase());
    match backend.as_deref() {
        Some("eigentrust") => "propagation.eigentrust",
        Some("gossip") => "propagation.gossip",
        Some("maxflow") => "propagation.maxflow",
        _ => "propagation.other",
    }
}

/// A standard phase wrapped in a span.
struct TimedPhase {
    inner: Box<dyn StepPhase>,
    tracer: Tracer,
    /// For `propagation`: the span name of a tick that ran the backend.
    call_name: Option<&'static str>,
}

impl StepPhase for TimedPhase {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let runs_before = world.propagation_runs;
        let index = self.tracer.open(self.inner.name());
        self.inner.execute(world, ctx);
        let rename = self
            .call_name
            .filter(|_| world.propagation_runs > runs_before);
        self.tracer.close(index, rename);
    }
}

/// The standard registry with every phase wrapped in a [`TimedPhase`].
pub fn traced_registry(tracer: &Tracer) -> PhaseRegistry {
    let standard = Arc::new(PhaseRegistry::standard());
    let mut registry = PhaseRegistry::empty();
    for name in standard.names() {
        let name = name.to_string();
        let standard = Arc::clone(&standard);
        let tracer = tracer.clone();
        registry.register(name.clone(), move |config| {
            let inner = standard
                .instantiate(&name, config)
                .expect("standard phase names always resolve");
            let call_name = (name == "propagation").then(|| propagation_call_name(config));
            Box::new(TimedPhase {
                inner,
                tracer: tracer.clone(),
                call_name,
            })
        });
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new();
        let outer = tracer.open("outer");
        span(Some(&tracer), "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(outer, None);
        let spans = tracer.spans();
        let own = self_times(&spans);
        assert_eq!(spans[1].parent, Some(0));
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - inner);
        assert_eq!(own[1], inner);
    }
}
