//! Structured tracing for the optimize pipeline.
//!
//! A zero-dependency, thread-aware span tracer. Instrumented code opens
//! RAII spans with [`span!`]; while a span is open, any counter events
//! reported through [`note_counter`] / [`note_counter_ns`] (the presburger
//! crate reports its memo hits, misses and uncached compute time this way)
//! are attributed to the *innermost* open span on the reporting thread —
//! per-phase attribution instead of process-global totals.
//!
//! Everything is off by default: a disabled [`span!`] costs one relaxed
//! atomic load and a branch, takes no timestamps and allocates nothing, so
//! instrumentation can stay in hot paths permanently. When enabled via
//! [`set_enabled`], each span end updates two aggregate registries (one
//! process-global, one thread-local — the latter lets a single-threaded
//! caller like `optimize` collect its own phase summary without seeing
//! concurrent threads' work) and appends a Chrome-trace event.
//!
//! Outputs:
//! * [`snapshot`] / [`thread_snapshot`] — aggregated [`PhaseStat`]s;
//! * [`phase_table`] — a plain-text per-phase table;
//! * [`chrome_trace_json`] — `chrome://tracing` / Perfetto JSON, with a
//!   non-standard `"spans"` summary key (ignored by viewers, consumed by
//!   the `trace-check` binary).
//!
//! Span names are `/`-separated static paths (`"algo1/footprint"`); the
//! optional format arguments of [`span!`] become the event's `detail` and
//! do not split aggregation. Self time (`self_ns`) is a span's total time
//! minus the time spent in child spans that ended while it was open — for
//! a span with children this is its *untracked* time. Recursive spans
//! (a name nested under itself) would double-count `total_ns`; the
//! instrumentation avoids them.

pub mod governor;
pub mod json;

pub use governor::{Budget, CancelToken};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard};
use std::time::Instant;

/// Number of generic per-span counter slots (the presburger crate uses the
/// first five for is_empty/project/intersect/apply/reverse).
pub const N_SLOTS: usize = 8;

/// Hit/miss/time counters for one slot of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStat {
    /// Memo hits attributed to the span.
    pub hits: u64,
    /// Memo misses attributed to the span.
    pub misses: u64,
    /// Nanoseconds of uncached compute attributed to the span.
    pub ns: u64,
}

impl SlotStat {
    /// Whether any field is non-zero.
    pub fn is_zero(&self) -> bool {
        self.hits == 0 && self.misses == 0 && self.ns == 0
    }

    fn merge(&mut self, o: &SlotStat) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.ns += o.ns;
    }

    fn sub(&self, o: &SlotStat) -> SlotStat {
        SlotStat {
            hits: self.hits.saturating_sub(o.hits),
            misses: self.misses.saturating_sub(o.misses),
            ns: self.ns.saturating_sub(o.ns),
        }
    }
}

/// Aggregated metrics of one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// The span name (a `/`-separated path).
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall time inside the span.
    pub total_ns: u64,
    /// Time not covered by child spans. For spans with children this is
    /// the *untracked* remainder.
    pub self_ns: u64,
    /// Whether any child span ended under this one.
    pub has_children: bool,
    /// Counter slots (presburger ops in slots 0..5).
    pub slots: [SlotStat; N_SLOTS],
}

impl PhaseStat {
    /// Fraction of this span's time not attributed to any child span.
    /// Zero for leaf spans (everything they do is their own work).
    pub fn untracked_fraction(&self) -> f64 {
        if !self.has_children || self.total_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.total_ns as f64
        }
    }
}

#[derive(Default, Clone)]
struct PhaseRec {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    has_children: bool,
    slots: [SlotStat; N_SLOTS],
}

struct Frame {
    name: Cow<'static, str>,
    detail: Option<String>,
    start: Instant,
    child_ns: u64,
    has_child: bool,
    slots: [SlotStat; N_SLOTS],
}

/// One completed Chrome-trace event.
struct Event {
    name: String,
    detail: Option<String>,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
}

/// Cap on buffered Chrome events; ends past the cap are dropped (and
/// counted) so a long run cannot exhaust memory.
const EVENT_CAP: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);
static GLOBAL: LazyLock<Mutex<HashMap<String, PhaseRec>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));
static EVENTS: LazyLock<Mutex<Vec<Event>>> = LazyLock::new(|| Mutex::new(Vec::new()));
static DROPPED_EVENTS: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Counter events arriving on a thread with no open span.
static ORPHAN_HITS: [AtomicU64; N_SLOTS] = [const { AtomicU64::new(0) }; N_SLOTS];
static ORPHAN_MISSES: [AtomicU64; N_SLOTS] = [const { AtomicU64::new(0) }; N_SLOTS];
static ORPHAN_NS: [AtomicU64; N_SLOTS] = [const { AtomicU64::new(0) }; N_SLOTS];

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static MIRROR: RefCell<HashMap<String, PhaseRec>> = RefCell::new(HashMap::new());
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Globally enables or disables span collection. Disabled is the default;
/// a disabled [`span!`] is a single atomic load.
pub fn set_enabled(enabled: bool) {
    if enabled {
        LazyLock::force(&EPOCH);
    }
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span collection is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops all aggregated spans, events and orphan counters. The calling
/// thread's span stack and mirror are cleared too; other threads' mirrors
/// survive until those threads next report (their `thread_snapshot` deltas
/// stay consistent because callers diff two snapshots).
pub fn reset() {
    lock(&GLOBAL).clear();
    lock(&EVENTS).clear();
    DROPPED_EVENTS.store(0, Ordering::Relaxed);
    for i in 0..N_SLOTS {
        ORPHAN_HITS[i].store(0, Ordering::Relaxed);
        ORPHAN_MISSES[i].store(0, Ordering::Relaxed);
        ORPHAN_NS[i].store(0, Ordering::Relaxed);
    }
    STACK.with(|s| s.borrow_mut().clear());
    MIRROR.with(|m| m.borrow_mut().clear());
}

/// RAII span guard: created by [`span()`] / [`span!`], closes the span on
/// drop. Inert (and free) when tracing was disabled at creation.
#[must_use = "a span guard must be held for the span's duration"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            end_span();
        }
    }
}

/// Opens a span. Prefer the [`span!`] macro.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: false };
    }
    begin_span(name.into(), None)
}

/// Opens a span with a lazily-built detail string (only evaluated when
/// tracing is enabled). The detail goes to the Chrome event's `args`, not
/// into aggregation.
pub fn span_detail(
    name: impl Into<Cow<'static, str>>,
    detail: impl FnOnce() -> String,
) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: false };
    }
    begin_span(name.into(), Some(detail()))
}

fn begin_span(name: Cow<'static, str>, detail: Option<String>) -> SpanGuard {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name,
            detail,
            start: Instant::now(),
            child_ns: 0,
            has_child: false,
            slots: [SlotStat::default(); N_SLOTS],
        });
    });
    SpanGuard { active: true }
}

fn end_span() {
    let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
        return; // reset() cleared the stack under an open guard
    };
    let dur_ns = frame.start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_ns += dur_ns;
            parent.has_child = true;
        }
    });
    let self_ns = dur_ns.saturating_sub(frame.child_ns);
    let update = |rec: &mut PhaseRec| {
        rec.count += 1;
        rec.total_ns += dur_ns;
        rec.self_ns += self_ns;
        rec.has_children |= frame.has_child;
        for (dst, src) in rec.slots.iter_mut().zip(frame.slots.iter()) {
            dst.merge(src);
        }
    };
    MIRROR.with(|m| update(m.borrow_mut().entry(frame.name.to_string()).or_default()));
    update(lock(&GLOBAL).entry(frame.name.to_string()).or_default());
    let mut events = lock(&EVENTS);
    if events.len() < EVENT_CAP {
        events.push(Event {
            name: frame.name.into_owned(),
            detail: frame.detail,
            ts_ns: frame.start.saturating_duration_since(*EPOCH).as_nanos() as u64,
            dur_ns,
            tid: tid(),
        });
    } else {
        DROPPED_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records a memo hit or miss in `slot`, attributed to the calling
/// thread's innermost open span (or the orphan bucket when none is open).
/// No-op while tracing is disabled.
#[inline]
pub fn note_counter(slot: usize, hit: bool) {
    if !is_enabled() || slot >= N_SLOTS {
        return;
    }
    let attributed = STACK.with(|s| match s.borrow_mut().last_mut() {
        Some(top) => {
            if hit {
                top.slots[slot].hits += 1;
            } else {
                top.slots[slot].misses += 1;
            }
            true
        }
        None => false,
    });
    if !attributed {
        let bucket = if hit { &ORPHAN_HITS } else { &ORPHAN_MISSES };
        bucket[slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// Attributes `ns` nanoseconds of uncached compute in `slot` to the
/// calling thread's innermost open span. No-op while tracing is disabled.
#[inline]
pub fn note_counter_ns(slot: usize, ns: u64) {
    if !is_enabled() || slot >= N_SLOTS {
        return;
    }
    let attributed = STACK.with(|s| match s.borrow_mut().last_mut() {
        Some(top) => {
            top.slots[slot].ns += ns;
            true
        }
        None => false,
    });
    if !attributed {
        ORPHAN_NS[slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// Counter events that arrived with no open span, per slot.
pub fn orphan_slots() -> [SlotStat; N_SLOTS] {
    std::array::from_fn(|i| SlotStat {
        hits: ORPHAN_HITS[i].load(Ordering::Relaxed),
        misses: ORPHAN_MISSES[i].load(Ordering::Relaxed),
        ns: ORPHAN_NS[i].load(Ordering::Relaxed),
    })
}

fn stats_of(map: &HashMap<String, PhaseRec>) -> Vec<PhaseStat> {
    let mut out: Vec<PhaseStat> = map
        .iter()
        .map(|(name, r)| PhaseStat {
            name: name.clone(),
            count: r.count,
            total_ns: r.total_ns,
            self_ns: r.self_ns,
            has_children: r.has_children,
            slots: r.slots,
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Aggregated stats of every completed span, process-wide.
pub fn snapshot() -> Vec<PhaseStat> {
    stats_of(&lock(&GLOBAL))
}

/// Aggregated stats of spans completed on the *calling thread*.
pub fn thread_snapshot() -> Vec<PhaseStat> {
    MIRROR.with(|m| stats_of(&m.borrow()))
}

/// `after - before`, by span name; rows with zero count are dropped.
/// Use with two [`thread_snapshot`]s to isolate one call's phases.
pub fn diff_snapshots(before: &[PhaseStat], after: &[PhaseStat]) -> Vec<PhaseStat> {
    let base: HashMap<&str, &PhaseStat> = before.iter().map(|p| (p.name.as_str(), p)).collect();
    after
        .iter()
        .filter_map(|a| {
            let d = match base.get(a.name.as_str()) {
                Some(b) => PhaseStat {
                    name: a.name.clone(),
                    count: a.count.saturating_sub(b.count),
                    total_ns: a.total_ns.saturating_sub(b.total_ns),
                    self_ns: a.self_ns.saturating_sub(b.self_ns),
                    has_children: a.has_children,
                    slots: std::array::from_fn(|i| a.slots[i].sub(&b.slots[i])),
                },
                None => a.clone(),
            };
            (d.count > 0).then_some(d)
        })
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Renders a plain-text phase table. `slot_names` label the counter slots
/// (shorter than [`N_SLOTS`] is fine); slots with no activity anywhere are
/// omitted. Includes an `(orphan)` row when counter events arrived outside
/// any span.
pub fn phase_table(stats: &[PhaseStat], slot_names: &[&str]) -> String {
    let orphans = orphan_slots();
    let live_slots: Vec<usize> = (0..slot_names.len().min(N_SLOTS))
        .filter(|&i| stats.iter().any(|p| !p.slots[i].is_zero()) || !orphans[i].is_zero())
        .collect();
    let name_w = stats
        .iter()
        .map(|p| p.name.len())
        .chain([12])
        .max()
        .unwrap_or(12);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$} {:>8} {:>10} {:>10} {:>6}",
        "phase", "count", "total", "self", "untrk"
    ));
    for &i in &live_slots {
        out.push_str(&format!(" {:>18}", format!("{} h/m", slot_names[i])));
    }
    out.push('\n');
    for p in stats {
        let untrk = if p.has_children {
            format!("{:.0}%", p.untracked_fraction() * 100.0)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<name_w$} {:>8} {:>10} {:>10} {:>6}",
            p.name,
            p.count,
            fmt_ns(p.total_ns),
            fmt_ns(p.self_ns),
            untrk
        ));
        for &i in &live_slots {
            let s = &p.slots[i];
            out.push_str(&format!(" {:>18}", format!("{}/{}", s.hits, s.misses)));
        }
        out.push('\n');
    }
    if orphans.iter().any(|s| !s.is_zero()) {
        out.push_str(&format!(
            "{:<name_w$} {:>8} {:>10} {:>10} {:>6}",
            "(orphan)", "-", "-", "-", "-"
        ));
        for &i in &live_slots {
            let s = &orphans[i];
            out.push_str(&format!(" {:>18}", format!("{}/{}", s.hits, s.misses)));
        }
        out.push('\n');
    }
    out
}

/// Serializes everything recorded so far as Chrome trace JSON (the
/// `chrome://tracing` "JSON object format"): a `traceEvents` array of
/// complete (`"ph": "X"`) events plus a non-standard `spans` summary used
/// by `trace-check` and the tests.
pub fn chrome_trace_json(slot_names: &[&str]) -> String {
    let events = lock(&EVENTS);
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let args = match &e.detail {
            Some(d) => format!(", \"args\": {{ \"detail\": \"{}\" }}", json::escape(d)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"cat\": \"tilefuse\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": {}{args} }}{comma}\n",
            json::escape(&e.name),
            e.ts_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid,
        ));
    }
    drop(events);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"otherData\": {{ \"droppedEvents\": {} }},\n",
        DROPPED_EVENTS.load(Ordering::Relaxed)
    ));
    out.push_str("  \"spans\": [\n");
    let stats = snapshot();
    for (i, p) in stats.iter().enumerate() {
        let comma = if i + 1 == stats.len() { "" } else { "," };
        let mut slots = String::new();
        for (j, s) in p.slots.iter().enumerate() {
            if s.is_zero() {
                continue;
            }
            let name = slot_names.get(j).copied().unwrap_or("slot");
            if !slots.is_empty() {
                slots.push_str(", ");
            }
            slots.push_str(&format!(
                "\"{}\": {{ \"hits\": {}, \"misses\": {}, \"ns\": {} }}",
                json::escape(name),
                s.hits,
                s.misses,
                s.ns
            ));
        }
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"count\": {}, \"totalNs\": {}, \"selfNs\": {}, \
             \"hasChildren\": {}, \"slots\": {{ {slots} }} }}{comma}\n",
            json::escape(&p.name),
            p.count,
            p.total_ns,
            p.self_ns,
            p.has_children,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Opens a named span, returning an RAII guard closing it on drop.
///
/// ```
/// let _s = tilefuse_trace::span!("algo1/footprint");
/// let stmt = 3;
/// let _t = tilefuse_trace::span!("algo1/extension", "stmt {stmt}");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::span_detail($name, || ::std::format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries are process-global, so the unit tests run as one
    /// sequential body.
    #[test]
    fn spans_aggregate_and_attribute() {
        reset();
        set_enabled(true);
        {
            let _outer = span!("t/outer");
            note_counter(0, true);
            {
                let _inner = span!("t/inner", "iteration {}", 7);
                note_counter(0, false);
                note_counter_ns(0, 500);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span!("t/inner");
            }
        }
        set_enabled(false);
        let stats = snapshot();
        let by = |n: &str| stats.iter().find(|p| p.name == n).expect(n).clone();
        let outer = by("t/outer");
        let inner = by("t/inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(outer.has_children);
        assert!(!inner.has_children);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1);
        // Counters landed on the innermost span.
        assert_eq!(outer.slots[0].hits, 1);
        assert_eq!(outer.slots[0].misses, 0);
        assert_eq!(inner.slots[0].misses, 1);
        assert_eq!(inner.slots[0].ns, 500);
        // Thread mirror agrees (same thread did all the work).
        assert_eq!(thread_snapshot(), stats);

        // Chrome export mentions both spans and parses as JSON.
        let j = chrome_trace_json(&["is_empty"]);
        let v = json::parse(&j).expect("valid json");
        let obj = v.as_obj().unwrap();
        let events = obj.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let table = phase_table(&stats, &["is_empty"]);
        assert!(table.contains("t/outer"), "{table}");
        assert!(table.contains("is_empty h/m"), "{table}");

        // Disabled spans are inert and record nothing.
        reset();
        {
            let _g = span!("t/disabled");
            note_counter(0, true);
        }
        assert!(snapshot().is_empty());
        assert!(orphan_slots()[0].is_zero());

        // Orphan counters (enabled, no open span) land in the bucket.
        set_enabled(true);
        note_counter(1, false);
        set_enabled(false);
        assert_eq!(orphan_slots()[1].misses, 1);
        reset();
    }

    #[test]
    fn diff_isolates_a_window() {
        let a = vec![PhaseStat {
            name: "x".into(),
            count: 2,
            total_ns: 100,
            self_ns: 60,
            has_children: true,
            slots: Default::default(),
        }];
        let mut b = a.clone();
        b[0].count = 5;
        b[0].total_ns = 400;
        b[0].self_ns = 100;
        let d = diff_snapshots(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].count, 3);
        assert_eq!(d[0].total_ns, 300);
        assert_eq!(d[0].self_ns, 40);
        // Unchanged rows vanish.
        assert!(diff_snapshots(&a, &a).is_empty());
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(900), "0.9us");
    }
}
