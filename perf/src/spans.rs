//! The harness's own spans: one around every call into a layer.
//!
//! A [`Spans`] both times and records. Every measured call goes through
//! [`Spans::scope`], which returns the call's wall time; when the
//! recorder is on it also keeps the span (name, start, end, parent, rep)
//! in memory, to be written as Chrome-trace JSON when the run ends. With
//! the recorder off a scope is two clock reads and nothing else, so the
//! end-to-end run and the traced run share one code path.
//!
//! A span's name is `<crate>.<call>`; the part before the dot is the
//! layer. Self time is a span's duration minus its direct children's.

use std::time::Instant;
use tilefuse::trace::json::Value;

use crate::bench::obj;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub rep: u32,
    /// Recording thread (0 = the harness's main thread).
    pub tid: u32,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder (see module docs).
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    tid: u32,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that only times.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// A recorder whose timestamps count from `epoch`; threads of one run
    /// share the epoch and differ in `tid`.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Spans {
            on,
            epoch,
            tid,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the repetition id stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` under a span named `name`; returns its result and its wall
    /// time in milliseconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
                tid: self.tid,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Takes over the spans another thread recorded.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of span `i`: its duration minus its direct children's.
    pub fn self_ms(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::dur_ms)
            .sum();
        self.spans[i].dur_ms() - children
    }

    /// Share of the last span named `root` that its direct children cover.
    pub fn covered_share(&self, root: &str) -> f64 {
        let Some(i) = self.spans.iter().rposition(|s| s.name == root) else {
            return 0.0;
        };
        let total = self.spans[i].dur_ms();
        if total == 0.0 {
            0.0
        } else {
            (total - self.self_ms(i)) / total
        }
    }

    /// The spans as Chrome-trace complete events (`pid` 2, so they sit
    /// beside the program's own spans, which `tilefuse_trace` writes as
    /// `pid` 1).
    pub fn chrome_events(&self, workload: &str) -> Vec<Value> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = obj([
                    ("workload", Value::Str(workload.to_string())),
                    ("rep", Value::Num(f64::from(s.rep))),
                    ("id", Value::Num(i as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("self_ms", Value::Num(self.self_ms(i))),
                ]);
                obj([
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str("perf".to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(2.0)),
                    ("tid", Value::Num(f64::from(s.tid))),
                    ("args", args),
                ])
            })
            .collect()
    }
}
