//! Call counters for the five tracked presburger operations.
//!
//! `is_empty` is memoized (a process-global table keyed on constraint
//! rows) and records a hit or a miss per call here, so callers (the bench
//! harness, the experiment driver) can observe how much recomputation the
//! memo is eliminating. The other four operations always compute and
//! record every call as a miss, which keeps their per-phase call counts
//! observable. Counters are process-global atomics: cheap to bump, safe to
//! read from any thread.
//!
//! When span tracing is enabled (`tilefuse_trace::set_enabled`), every
//! hit/miss — and the wall time of every computed operation body — is
//! additionally attributed to the innermost open span on the calling
//! thread (counter slot = `Op as usize`), so phase tables can show which
//! pipeline phase is paying for which presburger operation.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which tracked operation a call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`crate::BasicSet::is_empty`]
    IsEmpty,
    /// [`crate::BasicSet::project_out_dims`]
    Project,
    /// [`crate::Set::intersect`]
    Intersect,
    /// [`crate::Map::apply`]
    Apply,
    /// [`crate::Map::reverse`]
    Reverse,
}

const N_OPS: usize = 5;

/// The tracked operation names, indexed by `Op as usize`. Doubles as the
/// trace counter-slot labels for `tilefuse_trace::phase_table` /
/// `chrome_trace_json`, since each hit/miss is attributed to slot
/// `Op as usize` of the enclosing span.
pub const OP_NAMES: [&str; N_OPS] = ["is_empty", "project", "intersect", "apply", "reverse"];

/// Trace counter slot used for silent-feasible fallbacks (the slot after
/// the five operation slots).
pub const SILENT_FEASIBLE_SLOT: usize = N_OPS;

/// Every trace counter slot this crate reports to, in slot order: the five
/// tracked operations plus the silent-feasible fallback counter. Pass
/// this (instead of [`OP_NAMES`]) to `tilefuse_trace::phase_table` /
/// `chrome_trace_json` so slot 5 gets a label.
pub const SLOT_NAMES: [&str; N_OPS + 1] = [
    "is_empty",
    "project",
    "intersect",
    "apply",
    "reverse",
    "silent_feasible",
];

static HITS: [AtomicU64; N_OPS] = [const { AtomicU64::new(0) }; N_OPS];
static MISSES: [AtomicU64; N_OPS] = [const { AtomicU64::new(0) }; N_OPS];
static SILENT_FEASIBLE: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record(op: Op, hit: bool) {
    let i = op as usize;
    if hit {
        HITS[i].fetch_add(1, Ordering::Relaxed);
    } else {
        MISSES[i].fetch_add(1, Ordering::Relaxed);
    }
    tilefuse_trace::note_counter(i, hit);
}

/// Records one conservative "feasible" fallback from `omega::feasible`
/// hitting its branch cap: bumps the process-global counter, attributes
/// the event to the innermost trace span (slot [`SILENT_FEASIBLE_SLOT`],
/// counted as a miss), and informs the governor.
pub(crate) fn record_silent_feasible() {
    SILENT_FEASIBLE.fetch_add(1, Ordering::Relaxed);
    tilefuse_trace::note_counter(SILENT_FEASIBLE_SLOT, false);
    tilefuse_trace::governor::note_silent_feasible();
}

/// Times the Omega test fell back to the conservative "feasible" answer at
/// its built-in branch cap since the last [`reset`].
/// Non-zero means some emptiness answers were over-approximated — still
/// sound, but observable here instead of silent.
pub fn silent_feasible() -> u64 {
    SILENT_FEASIBLE.load(Ordering::Relaxed)
}

/// RAII timer for the computed body of an operation: on drop, attributes
/// the elapsed wall time to the enclosing trace span (slot `op as usize`).
/// Inert — no timestamps taken — while tracing is disabled. Obtain via
/// [`op_timer`] (for `is_empty`, after a memo miss).
pub(crate) struct OpTimer {
    op: Op,
    start: Option<std::time::Instant>,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            tilefuse_trace::note_counter_ns(self.op as usize, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts timing a computed operation body (see [`OpTimer`]).
pub(crate) fn op_timer(op: Op) -> OpTimer {
    OpTimer {
        op,
        start: tilefuse_trace::is_enabled().then(std::time::Instant::now),
    }
}

/// Hit/miss counts for one operation (only `is_empty` ever hits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    pub hits: u64,
    pub misses: u64,
}

impl OpStats {
    /// Fraction of lookups that hit, or 0.0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A point-in-time snapshot of every operation's counters plus the memo
/// table's current size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub is_empty: OpStats,
    pub project: OpStats,
    pub intersect: OpStats,
    pub apply: OpStats,
    pub reverse: OpStats,
    /// Entries currently resident in the memo table.
    pub entries: usize,
    /// Conservative branch-cap fallbacks (see [`silent_feasible`]).
    pub silent_feasible: u64,
}

impl CacheStats {
    /// Total misses across all operations.
    pub fn total_misses(&self) -> u64 {
        self.per_op().iter().map(|s| s.misses).sum()
    }

    fn per_op(&self) -> [OpStats; N_OPS] {
        [
            self.is_empty,
            self.project,
            self.intersect,
            self.apply,
            self.reverse,
        ]
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ops = self.per_op();
        for (name, s) in OP_NAMES.iter().zip(ops.iter()) {
            write!(
                f,
                "{name}: {}/{} ({:.0}%)  ",
                s.hits,
                s.hits + s.misses,
                s.hit_rate() * 100.0
            )?;
        }
        write!(f, "entries: {}", self.entries)?;
        if self.silent_feasible > 0 {
            write!(f, "  silent_feasible: {}", self.silent_feasible)?;
        }
        Ok(())
    }
}

/// Reads the current counters and memo-table size.
pub fn snapshot() -> CacheStats {
    let at = |i: usize| OpStats {
        hits: HITS[i].load(Ordering::Relaxed),
        misses: MISSES[i].load(Ordering::Relaxed),
    };
    CacheStats {
        is_empty: at(Op::IsEmpty as usize),
        project: at(Op::Project as usize),
        intersect: at(Op::Intersect as usize),
        apply: at(Op::Apply as usize),
        reverse: at(Op::Reverse as usize),
        entries: crate::cache::len(),
        silent_feasible: SILENT_FEASIBLE.load(Ordering::Relaxed),
    }
}

/// Zeroes every hit/miss counter (the memo table itself is untouched).
pub fn reset() {
    for i in 0..N_OPS {
        HITS[i].store(0, Ordering::Relaxed);
        MISSES[i].store(0, Ordering::Relaxed);
    }
    SILENT_FEASIBLE.store(0, Ordering::Relaxed);
}

/// Empties the memo table. Counters are untouched; combine with [`reset`]
/// for a fully cold start.
pub fn clear_cache() {
    crate::cache::clear();
}

/// Whether the memo layers (global table, inline emptiness flag, interval
/// emptiness pre-check) are consulted. Default `true`.
static MEMO_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables every memo layer: the emptiness table,
/// the inline per-object emptiness flag and the O(rows) interval
/// emptiness pre-check. With memoization disabled every emptiness query
/// runs the full Omega test.
///
/// This exists for *differential validation*: the fuzzing oracle in
/// `crates/fuzzgen` recomputes analyses with the memo off and compares
/// results bit-for-bit against the memoized run, so a stale or wrongly
/// keyed cache entry can never silently change an answer. The flag is
/// process-global; toggling it from concurrent threads only changes
/// whether work is cached, never the results.
pub fn set_memo_enabled(enabled: bool) {
    MEMO_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the memo layers are currently consulted (see
/// [`set_memo_enabled`]).
pub fn memo_enabled() -> bool {
    MEMO_ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_hit_rate() {
        let s = OpStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(OpStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn display_mentions_every_op() {
        let s = CacheStats::default();
        let text = s.to_string();
        for name in OP_NAMES {
            assert!(text.contains(name), "{text}");
        }
    }
}
