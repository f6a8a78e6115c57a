//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by ledger code around calls into each layer's public
//! functions — never inside the program. Each span carries a name, its
//! layer, start and end (ns since the recorder was armed), the span that
//! caused it and a trace id shared by every span of one unit of work (one
//! designer run, one search call, one ES pass). Spans stay in memory until
//! [`write_jsonl`] dumps them at the end of the run.
//!
//! Parents are tracked per thread with a stack; work that hops threads (an
//! engine's pool workers calling the evaluator) names its parent through a
//! shared [`Anchor`] set by the span that handed the work off.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layers a span can be attributed to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The rollout loop: `GcnRlDesigner`/`SizingEnv` glue and the baselines.
    /// A designer round's own time also holds the `GcnAgent` calls, which
    /// run inside the designer where the ledger cannot span them.
    Rollout,
    /// `EvalService` session round trips.
    Service,
    /// `BatchEvaluator` batches (cache + worker pool).
    Engine,
    /// `Evaluator::evaluate` calls (the circuit simulator).
    Solver,
    /// `RemoteBackend` RPCs to an `EvalServer`.
    Wire,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Rollout,
        Layer::Service,
        Layer::Engine,
        Layer::Solver,
        Layer::Wire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Rollout => "rollout",
            Layer::Service => "service",
            Layer::Engine => "engine",
            Layer::Solver => "solver",
            Layer::Wire => "wire",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Open spans on this thread as `(id, trace)`, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording. Spans opened before this are not kept.
pub fn arm() {
    epoch();
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span recorded so far.
pub fn disarm() -> Vec<Span> {
    ARMED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A span open on the current thread; it closes when dropped.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    on_stack: bool,
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn trace(&self) -> u64 {
        self.trace
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        if self.on_stack {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|(id, _)| *id == self.id) {
                    s.remove(pos);
                }
            });
        }
        SPANS.lock().expect("span store").push(Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Opens a span under the innermost open span of this thread (a new trace
/// when there is none). Returns `None` while the recorder is not armed, so
/// untraced runs pay one relaxed load per call site.
pub fn enter(name: &'static str, layer: Layer) -> Option<Guard> {
    if !armed() {
        return None;
    }
    let (parent, trace) = STACK.with(|s| match s.borrow().last() {
        Some(&(id, trace)) => (Some(id), trace),
        None => (None, NEXT_TRACE.fetch_add(1, Ordering::Relaxed)),
    });
    Some(open(name, layer, parent, trace, true))
}

/// Opens a span under an explicit parent (work running on another thread
/// than its cause). The span is not pushed on this thread's stack.
pub fn enter_under(name: &'static str, layer: Layer, parent: (u64, u64)) -> Option<Guard> {
    if !armed() {
        return None;
    }
    Some(open(name, layer, Some(parent.0), parent.1, false))
}

fn open(name: &'static str, layer: Layer, parent: Option<u64>, trace: u64, push: bool) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if push {
        STACK.with(|s| s.borrow_mut().push((id, trace)));
    }
    Guard {
        id,
        parent,
        trace,
        name,
        layer,
        start_ns: now_ns(),
        on_stack: push,
    }
}

/// A hand-off point between threads: the span that submits work publishes
/// itself here and the threads doing the work open their spans under it.
#[derive(Debug, Clone, Default)]
pub struct Anchor(Arc<Mutex<Option<(u64, u64)>>>);

impl Anchor {
    pub fn set(&self, guard: Option<&Guard>) {
        *self.0.lock().expect("anchor") = guard.map(|g| (g.id(), g.trace()));
    }

    pub fn get(&self) -> Option<(u64, u64)> {
        *self.0.lock().expect("anchor")
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Sum of span durations minus the part covered by their children.
    pub self_ns: [u64; 5],
    /// Sum of span durations.
    pub total_ns: [u64; 5],
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Child-interval coverage of every span, keyed by span id.
pub fn child_coverage(spans: &[Span]) -> std::collections::HashMap<u64, u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Self time per layer: each span's duration minus the union of its
/// children's intervals (children on parallel threads count once).
pub fn layer_totals(spans: &[Span]) -> LayerTotals {
    let coverage = child_coverage(spans);
    let mut totals = LayerTotals::default();
    for s in spans {
        let i = s.layer as usize;
        totals.total_ns[i] += s.duration_ns();
        totals.self_ns[i] += s.duration_ns() - coverage[&s.id];
    }
    totals
}

/// Writes the spans as JSON lines (one object per span).
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"trace":{},"name":"{}","layer":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id,
            parent,
            s.trace,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlapping_children() {
        assert_eq!(covered(vec![(0, 5), (3, 8), (10, 12)], 0, 20), 10);
        assert_eq!(covered(vec![(0, 5)], 2, 4), 2);
        assert_eq!(covered(vec![], 0, 4), 0);
    }
}
