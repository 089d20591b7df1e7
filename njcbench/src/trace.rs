//! Spans and counters recorded by the benchmark around each layer call.
//!
//! A span has a name, a start, an end, a parent and the id of the op it
//! belongs to. Spans are kept in memory (up to [`MAX_STORED_SPANS`]) and
//! written at exit in the Chrome trace format; self time per layer is
//! aggregated as spans close, so the per-layer figures cover every op even
//! past the storage cap. With tracing off, [`Rec::span`] only calls its
//! closure: the untraced run pays nothing per layer.
//!
//! Counters are recorded in both modes. Each is summed over the whole run,
//! over the ops run with tracing on, and over the first pass through the
//! workload's op list; the first-pass sums of the deterministic counters
//! are what the tripwire compares across runs, traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans stored for the trace file; later spans still count in self time.
const MAX_STORED_SPANS: usize = 50_000;

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer time: self time excludes child spans, total includes them.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
}

/// The recorder one run writes into.
pub struct Rec {
    tracing: bool,
    epoch: Instant,
    next_id: u64,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, LayerTime>,
    first_pass: bool,
    run_counts: BTreeMap<&'static str, f64>,
    pass_counts: BTreeMap<&'static str, f64>,
    traced_counts: BTreeMap<&'static str, f64>,
}

impl Rec {
    pub fn new(tracing: bool) -> Self {
        Rec {
            tracing,
            epoch: Instant::now(),
            next_id: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            layers: BTreeMap::new(),
            first_pass: true,
            run_counts: BTreeMap::new(),
            pass_counts: BTreeMap::new(),
            traced_counts: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off for the ops that follow.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Marks the end of the first pass: later counts go to the run sums only.
    pub fn end_first_pass(&mut self) {
        self.first_pass = false;
    }

    /// Forgets every span and layer time recorded so far; counters stay.
    pub fn clear_spans(&mut self) {
        assert!(self.stack.is_empty(), "clear_spans inside a span");
        self.spans.clear();
        self.layers.clear();
        self.traced_counts.clear();
    }

    /// Opens a span; every span opened until the matching [`Rec::end`] is
    /// its child. Spans of one op share the op id set here.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.tracing {
            return;
        }
        self.op = op;
        let start_ns = self.now_ns();
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.tracing {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let layer = self.layers.entry(open.name).or_default();
        layer.self_ns += dur.saturating_sub(open.child_ns);
        layer.total_ns += dur;
        layer.calls += 1;
        if self.spans.len() < MAX_STORED_SPANS {
            self.spans.push(Span {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                op: self.op,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.op;
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.run_counts.entry(name).or_default() += v;
        if self.first_pass {
            *self.pass_counts.entry(name).or_default() += v;
        }
        if self.tracing {
            *self.traced_counts.entry(name).or_default() += v;
        }
    }

    /// Counter `name` summed over the whole run.
    pub fn run_count(&self, name: &str) -> f64 {
        self.run_counts.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` summed over the ops run with tracing on.
    pub fn traced_count(&self, name: &str) -> f64 {
        self.traced_counts.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` summed over the first pass.
    pub fn pass_count(&self, name: &str) -> f64 {
        self.pass_counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The layer with the largest self time, excluding the benchmark's own
    /// root span.
    pub fn top_layer(&self) -> Option<(&'static str, LayerTime)> {
        self.layers
            .iter()
            .filter(|(n, _)| **n != "bench.op")
            .max_by_key(|(_, t)| t.self_ns)
            .map(|(n, t)| (*n, *t))
    }

    /// All layers by descending self time.
    pub fn layers_by_self(&self) -> Vec<(&'static str, LayerTime)> {
        let mut v: Vec<_> = self.layers.iter().map(|(n, t)| (*n, *t)).collect();
        v.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        v
    }

    /// The stored spans in Chrome trace format, with `meta` (a JSON object)
    /// under `otherData`.
    pub fn chrome_trace(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            );
        }
        let _ = writeln!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{meta},\"storedSpans\":{},\"spanCap\":{MAX_STORED_SPANS}}}",
            self.spans.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Rec::new(true);
        r.begin("bench.op", 1);
        r.span("a.child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end();
        let root = r.layer("bench.op");
        let child = r.layer("a.child");
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert_eq!(r.top_layer().map(|(n, _)| n), Some("a.child"));
        let json = r.chrome_trace("{}");
        assert!(json.contains("\"parent\":1"), "{json}");
    }

    #[test]
    fn untraced_records_counts_but_no_spans() {
        let mut r = Rec::new(false);
        r.begin("bench.op", 1);
        r.span("a", || ());
        r.end();
        r.add("n", 2.0);
        r.end_first_pass();
        r.add("n", 3.0);
        assert_eq!(r.layer("a").calls, 0);
        assert_eq!(r.pass_count("n"), 2.0);
        assert_eq!(r.run_count("n"), 5.0);
    }
}
