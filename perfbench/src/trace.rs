//! In-memory span tracing around the benchmark's own calls into each layer.
//!
//! A span records its layer, name, start and end (ns since the tracer was
//! created), the span that was open when it started (its parent) and an
//! optional request id. Spans stay in memory until the run ends; the
//! per-layer self time is a span's duration minus the part its direct
//! children cover. A disabled tracer records nothing, so the untraced run
//! pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository modules the benchmark attributes time to.
pub const LAYERS: [&str; 11] = [
    "streamir",
    "plan",
    "artifact",
    "runtime",
    "gpusim",
    "perfmodel",
    "kmu",
    "fleet",
    "serve",
    "apps",
    "baselines",
];

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread of benchmark calls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` inside a disabled tracer.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, req: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span` (spans close in reverse order of opening).
    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(layer, name, None);
        let out = f();
        self.exit(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Tab-separated dump: `id layer name start_ns end_ns parent req`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tlayer\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            );
        }
        out
    }
}

/// Self time (ns) per layer: each span's duration minus the durations of
/// its direct children, summed by the span's layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<i128> = spans.iter().map(|s| s.dur_ns() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns() as i128;
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_layer.entry(s.layer).or_insert(0u64) += t.max(0) as u64;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // serve [0,100) > fleet [10,60) > kmu [20,30); runtime [70,90) under serve.
        let spans = vec![
            span("serve", 0, 100, None),
            span("fleet", 10, 60, Some(0)),
            span("kmu", 20, 30, Some(1)),
            span("runtime", 70, 90, Some(0)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["serve"], 100 - 50 - 20);
        assert_eq!(t["fleet"], 50 - 10);
        assert_eq!(t["kmu"], 10);
        assert_eq!(t["runtime"], 20);
        // Self times partition the root's interval.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_sums_repeated_layers() {
        let spans = vec![
            span("plan", 0, 10, None),
            span("plan", 20, 25, None),
            span("plan", 30, 40, None),
            span("artifact", 32, 36, Some(2)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["plan"], 10 + 5 + 6);
        assert_eq!(t["artifact"], 4);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let a = tr.enter("serve", "submit", Some(7));
        let b = tr.enter("fleet", "place", Some(7));
        tr.exit(b);
        tr.exit(a);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].req, Some(7));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert_eq!(tr.to_tsv().lines().count(), 3);

        let mut off = Tracer::new(false);
        let s = off.enter("plan", "compile", None);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
