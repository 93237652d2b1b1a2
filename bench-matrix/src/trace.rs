//! Harness-local span recorder.
//!
//! Spans are recorded from outside the engines, around calls into their
//! public functions, kept in memory and written to `trace.<workload>.json`
//! when the run ends. Spans of one workload operation (one build, one
//! probe, one slice) share an op id. End-to-end metrics never come from
//! a run with the recorder on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Engine operations the span covers (a span around a chunk of calls
    /// counts them all).
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    paused: bool,
    epoch: Instant,
    thread: u32,
    op: u32,
    op_labels: Vec<String>,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
    /// Work counted at the same boundaries as the spans (updates kept by
    /// a coalescing pass, gate visits, bytes written).
    pub counters: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            paused: false,
            epoch: Instant::now(),
            thread: 0,
            op: 0,
            op_labels: vec!["run".to_owned()],
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder for a second client thread, sharing this one's clock.
    pub fn fork(&self, thread: u32) -> Recorder {
        Recorder {
            on: self.on,
            paused: self.paused,
            epoch: self.epoch,
            thread,
            op: self.op,
            op_labels: Vec::new(),
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Fold a forked recorder's spans back in (ids are renumbered).
    pub fn join(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// Add `n` to the counter `name` (kept whether or not paused, dropped
    /// when the run is untraced).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether spans are being kept right now.
    pub fn recording(&self) -> bool {
        self.on && !self.paused
    }

    /// Suspend recording (the untraced half of the overhead comparison).
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Start a new workload operation; spans recorded until the next call
    /// carry its id.
    pub fn begin_op(&mut self, label: impl Into<String>) -> u32 {
        self.op_labels.push(label.into());
        self.op = self.op_labels.len() as u32 - 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
            name,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32, ops: u64) {
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.ops = ops;
    }

    /// Run `f` as a leaf span covering `ops` engine operations.
    pub fn time<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        if !self.recording() {
            return f();
        }
        let id = self.open(name);
        let r = f();
        self.close(id, ops);
        r
    }

    /// Run `f` as a span that may record children through the recorder.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.recording() {
            return f(self);
        }
        let id = self.open(name);
        let r = f(self);
        self.close(id, 1);
        r
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total time of the spans called `name`, over all ops.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).sum()
    }

    /// Total engine operations of the spans called `name`.
    pub fn total_ops(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.ops).sum()
    }

    /// Time of the spans called `name` within workload op `op`.
    pub fn op_ns(&self, name: &str, op: u32) -> u64 {
        self.named(name)
            .filter(|s| s.op == op)
            .map(Span::dur_ns)
            .sum()
    }

    /// Mean time per engine operation over the spans called `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / self.total_ops(name).max(1) as f64
    }

    /// Ascending durations of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self.named(name).map(Span::dur_ns).collect();
        v.sort_unstable();
        v
    }

    pub fn to_json(&self, stamp: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        let _ = write!(out, "{{\"stamp\": {stamp},\n\"ops\": [");
        for (i, l) in self.op_labels.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", crate::report::json_str(l));
        }
        out.push_str("],\n\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("},\n\"columns\": [\"id\", \"parent\", \"op\", \"thread\", \"name\", \"start_ns\", \"end_ns\", \"ops\"],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[{}, {parent}, {}, {}, \"{}\", {}, {}, {}]{sep}",
                s.id, s.op, s.thread, s.name, s.start_ns, s.end_ns, s.ops
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Duration of `spans[id]` minus the union of its direct children's
/// intervals (clipped to the parent; overlapping children — two client
/// threads under one phase span — are not subtracted twice).
pub fn self_time(spans: &[Span], id: u32) -> u64 {
    let p = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, p.start_ns);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    p.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            thread: 0,
            name: "t",
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = vec![
            span(0, None, 100, 1100),
            span(1, Some(0), 200, 400),  // 200
            span(2, Some(0), 300, 600),  // overlaps 1: adds 200
            span(3, Some(0), 900, 1300), // clipped to 1100: 200
            span(4, Some(1), 250, 260),  // grandchild: not subtracted
            span(5, None, 0, 5000),      // unrelated
        ];
        assert_eq!(self_time(&spans, 0), 1000 - 600);
        assert_eq!(self_time(&spans, 1), 200 - 10);
        assert_eq!(self_time(&spans, 4), 10);
    }

    #[test]
    fn recorder_nests_and_pauses() {
        let mut r = Recorder::new(true);
        let op = r.begin_op("build");
        r.scope("outer", |r| {
            r.time("inner", 7, || std::hint::black_box(1 + 1));
        });
        r.set_paused(true);
        r.time("inner", 9, || ());
        r.set_paused(false);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.total_ops("inner"), 7);
        assert_eq!(r.spans[0].op, op);
        assert!(self_time(&r.spans, 0) <= r.spans[0].dur_ns());
        let off = Recorder::new(false);
        assert!(!off.recording());
    }
}
