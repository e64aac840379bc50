//! A structural memo table for the expensive presburger operations.
//!
//! Operations like emptiness (the Omega test) and exact projection are
//! recomputed with identical inputs thousands of times during fusion
//! legality search and footprint analysis. This module interns
//! constraint rows (so equal rows share one allocation and hash fast)
//! and keys complete operations — `is_empty`, `project_out_dims`,
//! `Set::intersect`, `Map::apply`, `Map::reverse` — on the *exact*
//! structure of their operands: constraint rows, div counts and spaces.
//! Exact keys mean a hit is always semantically identical to a cold
//! call; there is no probabilistic hashing involved.
//!
//! The table is process-global behind a mutex: operations take the lock
//! only to look up or store, never while computing. When the table
//! exceeds its cap it is cleared wholesale — simple, and the workloads
//! re-warm in one pass. Hit/miss counts go to [`crate::stats`].

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

use crate::bset::BasicSet;
use crate::map::Map;
use crate::set::Set;
use crate::space::Space;
use crate::stats::{self, Op};

/// An interned constraint row. Interning canonicalizes content-equal
/// rows to one shared allocation, so equality and hashing compare the
/// *pointer* — O(1) per row instead of O(row length) — without changing
/// which keys collide.
#[derive(Debug, Clone)]
pub(crate) struct Row(Arc<[i64]>);

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (Arc::as_ptr(&self.0) as *const i64 as usize).hash(state);
    }
}

/// The constraint rows of one basic set, interned.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct SysKey {
    eqs: Vec<Row>,
    ineqs: Vec<Row>,
}

/// Full structural identity of a [`BasicSet`], including its space.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct BKey {
    space: Space,
    n_div: usize,
    sys: SysKey,
}

/// Full structural identity of a [`Set`] (or a [`Map`] via its wrapped
/// set): space plus each disjunct's rows and div count, in order.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct SetKey {
    space: Space,
    disjuncts: Vec<(usize, SysKey)>,
}

/// One memoized operation applied to specific operands.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Feasibility of a raw constraint system: space-independent.
    IsEmpty(SysKey),
    ProjectDims(BKey, usize, usize),
    Intersect(SetKey, SetKey),
    Apply(SetKey, SetKey),
    Reverse(SetKey),
}

impl CacheKey {
    fn op(&self) -> Op {
        match self {
            CacheKey::IsEmpty(_) => Op::IsEmpty,
            CacheKey::ProjectDims(..) => Op::Project,
            CacheKey::Intersect(..) => Op::Intersect,
            CacheKey::Apply(..) => Op::Apply,
            CacheKey::Reverse(_) => Op::Reverse,
        }
    }
}

/// A memoized result.
#[derive(Clone)]
pub(crate) enum CacheVal {
    Bool(bool),
    BSets(Vec<BasicSet>),
    Set(Set),
    Map(Map),
}

/// Cleared wholesale when exceeded; large enough that the repo's
/// workloads never cycle it, small enough to bound memory.
const CACHE_CAP: usize = 1 << 16;

static INTERN: LazyLock<Mutex<HashSet<Arc<[i64]>>>> = LazyLock::new(|| Mutex::new(HashSet::new()));
static TABLE: LazyLock<Mutex<HashMap<CacheKey, CacheVal>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn intern_locked(g: &mut HashSet<Arc<[i64]>>, row: &[i64]) -> Row {
    if let Some(r) = g.get(row) {
        return Row(r.clone());
    }
    let arc: Arc<[i64]> = Arc::from(row);
    g.insert(arc.clone());
    Row(arc)
}

fn sys_key(eqs: &[Vec<i64>], ineqs: &[Vec<i64>]) -> SysKey {
    // Governor memory bound: past the interned-row cap the interner (and
    // the memo table, whose keys hold now-orphaned interned rows that can
    // never pointer-hit again) is cleared wholesale. A cost, not an error:
    // answers are unaffected, only recomputed.
    let cap = tilefuse_trace::governor::intern_cap();
    if cap != usize::MAX && lock(&INTERN).len() >= cap {
        // Never hold both locks at once (matches every other path here).
        lock(&INTERN).clear();
        lock(&TABLE).clear();
    }
    // One lock acquisition for the whole system, not one per row.
    let mut g = lock(&INTERN);
    let eqs = eqs.iter().map(|r| intern_locked(&mut g, r)).collect();
    let ineqs = ineqs.iter().map(|r| intern_locked(&mut g, r)).collect();
    SysKey { eqs, ineqs }
}

/// Keys the raw constraint rows of a basic set (space-independent).
pub(crate) fn rows_key(b: &BasicSet) -> SysKey {
    sys_key(b.eq_rows(), b.ineq_rows())
}

/// Keys a basic set including its space.
pub(crate) fn bset_key(b: &BasicSet) -> BKey {
    BKey {
        space: b.space().clone(),
        n_div: b.n_div(),
        sys: rows_key(b),
    }
}

/// Keys a set including its space and disjunct order.
pub(crate) fn set_key(s: &Set) -> SetKey {
    SetKey {
        space: s.space().clone(),
        disjuncts: s
            .basics()
            .iter()
            .map(|b| (b.n_div(), rows_key(b)))
            .collect(),
    }
}

/// Silently probes the table for `key`, extracting the expected value
/// variant. An entry of the *wrong* variant is poisoned — it can only
/// arise from a bug pairing keys with values — and is handled by evicting
/// it, counting it ([`stats::poisoned`]) and reporting a miss so the
/// caller recomputes; it is never returned and never panics. Records no
/// hit/miss; use the `lookup_*` wrappers (or [`stats::record`] directly
/// for multi-probe flows) for counted lookups.
fn probe<T>(key: &CacheKey, extract: impl FnOnce(&CacheVal) -> Option<T>) -> Option<T> {
    if !stats::memo_enabled() {
        return None;
    }
    let mut g = lock(&TABLE);
    let val = g.get(key)?;
    match extract(val) {
        Some(t) => Some(t),
        None => {
            g.remove(key);
            stats::record_poisoned();
            None
        }
    }
}

/// Silent typed probe for a memoized boolean (no hit/miss recorded).
pub(crate) fn probe_bool(key: &CacheKey) -> Option<bool> {
    probe(key, |v| match v {
        CacheVal::Bool(b) => Some(*b),
        _ => None,
    })
}

/// Looks up a memoized boolean, recording a hit or miss. Always a miss
/// (without touching the table) when memoization is disabled via
/// [`stats::set_memo_enabled`]. A wrong-variant (poisoned) entry is
/// evicted and reported as a miss. (`is_empty` itself uses [`probe_bool`]
/// directly — its two-level key records one hit/miss per call, not per
/// probe — so outside tests this wrapper currently has no callers.)
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn lookup_bool(key: &CacheKey) -> Option<bool> {
    let hit = probe_bool(key);
    stats::record(key.op(), hit.is_some());
    hit
}

/// Looks up a memoized basic-set union, recording a hit or miss (see
/// [`lookup_bool`] for disabled-memo and poisoned-entry behavior).
pub(crate) fn lookup_bsets(key: &CacheKey) -> Option<Vec<BasicSet>> {
    let hit = probe(key, |v| match v {
        CacheVal::BSets(b) => Some(b.clone()),
        _ => None,
    });
    stats::record(key.op(), hit.is_some());
    hit
}

/// Looks up a memoized set, recording a hit or miss (see [`lookup_bool`]
/// for disabled-memo and poisoned-entry behavior).
pub(crate) fn lookup_set(key: &CacheKey) -> Option<Set> {
    let hit = probe(key, |v| match v {
        CacheVal::Set(s) => Some(s.clone()),
        _ => None,
    });
    stats::record(key.op(), hit.is_some());
    hit
}

/// Looks up a memoized map, recording a hit or miss (see [`lookup_bool`]
/// for disabled-memo and poisoned-entry behavior).
pub(crate) fn lookup_map(key: &CacheKey) -> Option<Map> {
    let hit = probe(key, |v| match v {
        CacheVal::Map(m) => Some(m.clone()),
        _ => None,
    });
    stats::record(key.op(), hit.is_some());
    hit
}

/// Stores a computed result, clearing the table first if it is full.
/// A no-op when memoization is disabled.
pub(crate) fn insert(key: CacheKey, val: CacheVal) {
    if !stats::memo_enabled() {
        return;
    }
    let mut g = lock(&TABLE);
    if g.len() >= CACHE_CAP {
        g.clear();
    }
    g.insert(key, val);
}

/// Number of memoized entries.
pub(crate) fn len() -> usize {
    lock(&TABLE).len()
}

/// Drops every memoized entry and interned row.
pub(crate) fn clear() {
    lock(&TABLE).clear();
    lock(&INTERN).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below clear the process-global table and interner and
    /// read the poisoning counter; each holds this lock so a sibling's
    /// `clear()` cannot land between its own insert and lookup.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Returns the canonical shared allocation for `row`.
    fn intern_row(row: &[i64]) -> Row {
        intern_locked(&mut lock(&INTERN), row)
    }

    #[test]
    fn interning_shares_allocations() {
        let _serial = lock(&SERIAL);
        let a = intern_row(&[1, 2, 3]);
        let b = intern_row(&[1, 2, 3]);
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b, "pointer equality must mirror content equality");
        let c = intern_row(&[1, 2, 4]);
        assert!(!Arc::ptr_eq(&a.0, &c.0));
        assert_ne!(a, c);
    }

    #[test]
    fn lookup_miss_then_hit() {
        let _serial = lock(&SERIAL);
        let key = CacheKey::IsEmpty(sys_key(&[vec![9, 9, 9, 9]], &[]));
        clear();
        assert!(lookup_bool(&key).is_none());
        insert(key.clone(), CacheVal::Bool(true));
        assert_eq!(lookup_bool(&key), Some(true));
    }

    /// A wrong-variant entry under a key (formerly a panic in consumers
    /// that pattern-matched the variant) is evicted and recomputed: the
    /// typed lookup reports a miss, counts the poisoning, and the next
    /// insert repairs the entry.
    #[test]
    fn poisoned_entry_recovers_by_recompute() {
        let _serial = lock(&SERIAL);
        let key = CacheKey::IsEmpty(sys_key(&[vec![7, 7, 7, 7, 7]], &[]));
        clear();
        let poisoned_before = stats::poisoned();
        // Poison: an is_empty key holding a Set instead of a Bool.
        let junk = Set::universe(Space::set(&[], crate::space::Tuple::new(Some("T"), &["i"])));
        insert(key.clone(), CacheVal::Set(junk));
        assert_eq!(lookup_bool(&key), None, "wrong variant must read as a miss");
        assert_eq!(stats::poisoned(), poisoned_before + 1);
        assert!(
            lock(&TABLE).get(&key).is_none(),
            "poisoned entry must be evicted"
        );
        // The recompute path stores the right variant and hits thereafter.
        insert(key.clone(), CacheVal::Bool(false));
        assert_eq!(lookup_bool(&key), Some(false));
    }

    /// Every typed lookup tolerates every wrong variant (returns None,
    /// never panics).
    #[test]
    fn typed_lookups_reject_all_wrong_variants() {
        let _serial = lock(&SERIAL);
        let key = CacheKey::IsEmpty(sys_key(&[], &[vec![5, 5, 5]]));
        for wrong in [
            CacheVal::Bool(true),
            CacheVal::BSets(vec![]),
            CacheVal::Set(Set::universe(Space::set(
                &[],
                crate::space::Tuple::new(Some("T"), &["i"]),
            ))),
        ] {
            clear();
            insert(key.clone(), wrong);
            // Each lookup either extracts its own variant or reports a miss.
            let _ = lookup_bool(&key);
            clear();
        }
        clear();
        insert(key.clone(), CacheVal::Bool(true));
        assert!(lookup_bsets(&key).is_none());
        insert(key.clone(), CacheVal::Bool(true));
        assert!(lookup_set(&key).is_none());
        insert(key.clone(), CacheVal::Bool(true));
        assert!(lookup_map(&key).is_none());
        clear();
    }
}
