//! Spans recorded from the benchmark's own code around each public layer
//! call. A span has a name, a start, an end, the span that caused it and
//! the operation it belongs to; spans stay in memory until the run ends.
//! With tracing off every call is a branch on one flag.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose operation ids start after `op_base` (one tracer per
    /// thread, so ids stay unique across threads).
    pub fn new(on: bool, origin: Instant, op_base: u64) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: op_base,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later root spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("end() matches a begin()");
        self.spans[open].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time per `(root span name, span name)`: a span's duration minus
/// the time its children cover (children of one span run one after
/// another on its thread, so they never overlap). Also counts the roots.
#[derive(Debug, Default)]
pub struct SelfTimes {
    self_ns: BTreeMap<(&'static str, &'static str), u64>,
    roots: BTreeMap<&'static str, u64>,
}

impl SelfTimes {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            // A parent is always recorded before its children.
            root[i] = match span.parent {
                Some(p) => {
                    child_ns[p] += span.end_ns - span.start_ns;
                    root[p]
                }
                None => i,
            };
        }
        for (i, span) in spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            *self
                .self_ns
                .entry((spans[root[i]].name, span.name))
                .or_default() += own;
            if span.parent.is_none() {
                *self.roots.entry(span.name).or_default() += 1;
            }
        }
    }

    /// Mean self time of `layer` per root span named `root`, ms.
    pub fn per_root_ms(&self, root: &'static str, layer: &'static str) -> f64 {
        let n = self.roots.get(root).copied().unwrap_or(0);
        if n == 0 {
            return 0.0;
        }
        let ns = self.self_ns.get(&(root, layer)).copied().unwrap_or(0);
        ns as f64 / n as f64 / 1e6
    }
}

/// Appends `spans` to `out` as JSON lines; span ids are `id_base + index`.
pub fn write_spans(out: &mut impl Write, spans: &[Span], id_base: usize) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| (p + id_base).to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            i + id_base,
            parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

/// What recording one empty span costs, ns: the mean over a long loop,
/// which is what a traced run pays per span.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut t = Tracer::new(true, Instant::now(), 0);
    let started = Instant::now();
    for _ in 0..N {
        t.begin("probe");
        t.end();
    }
    let ns = started.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(t.spans.len());
    ns
}
