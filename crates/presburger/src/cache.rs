//! The emptiness memo: `is_empty` answers keyed on constraint rows.
//!
//! Emptiness (the Omega test) is asked of identical systems thousands of
//! times during fusion legality search and footprint analysis, and it is
//! the one operation whose memo pays for its keys: every other set
//! operation bottoms out in it, so `Set::intersect`, `Map::apply`,
//! `Map::reverse` and `BasicSet::project_out_dims` simply compute. A key
//! is the *exact* content of a system — every number of every row, the
//! row length and the eq/ineq boundary — so a hit is always semantically
//! identical to a cold call; there is no probabilistic hashing involved.
//!
//! The table is process-global behind one mutex: `is_empty` takes the
//! lock only to look up or store, never while computing. When the table
//! reaches its cap it is cleared wholesale — simple, and the workloads
//! re-warm in one pass. Hit/miss counts go to [`crate::stats`].

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex, MutexGuard};

use crate::bset::BasicSet;
use crate::stats;

/// Structural identity of a constraint system, independent of its space
/// (feasibility is existential over every column): all rows' numbers in
/// one allocation, equalities first. The row length and the number of
/// equalities are part of the key, so two systems whose numbers merely
/// concatenate equally never collide.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct SysKey {
    cols: usize,
    n_eqs: usize,
    rows: Box<[i64]>,
}

fn sys_key(cols: usize, eqs: &[Vec<i64>], ineqs: &[Vec<i64>]) -> SysKey {
    let mut rows = Vec::with_capacity((eqs.len() + ineqs.len()) * cols);
    for r in eqs.iter().chain(ineqs) {
        debug_assert_eq!(r.len(), cols);
        rows.extend_from_slice(r);
    }
    SysKey {
        cols,
        n_eqs: eqs.len(),
        rows: rows.into_boxed_slice(),
    }
}

/// Keys the raw constraint rows of a basic set.
pub(crate) fn rows_key(b: &BasicSet) -> SysKey {
    sys_key(b.cols(), b.eq_rows(), b.ineq_rows())
}

/// Cleared wholesale when reached; large enough that the repo's
/// workloads never cycle it, small enough to bound memory.
const CACHE_CAP: usize = 1 << 16;

static TABLE: LazyLock<Mutex<HashMap<SysKey, bool>>> = LazyLock::new(|| Mutex::new(HashMap::new()));

fn lock() -> MutexGuard<'static, HashMap<SysKey, bool>> {
    TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Looks `key` up. Always `None` (without touching the table) when
/// memoization is disabled via [`stats::set_memo_enabled`]. Records no
/// hit/miss: `is_empty` probes two keys per call and counts the call.
pub(crate) fn probe(key: &SysKey) -> Option<bool> {
    if !stats::memo_enabled() {
        return None;
    }
    lock().get(key).copied()
}

/// Stores a computed answer, clearing the table first if it is full.
/// A no-op when memoization is disabled.
pub(crate) fn insert(key: SysKey, empty: bool) {
    if !stats::memo_enabled() {
        return;
    }
    let mut g = lock();
    if g.len() >= CACHE_CAP {
        g.clear();
    }
    g.insert(key, empty);
}

/// Number of memoized entries.
pub(crate) fn len() -> usize {
    lock().len()
}

/// Drops every memoized entry.
pub(crate) fn clear() {
    lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Space, Tuple};

    /// The tests below clear (or overflow) the process-global table; each
    /// holds this lock so a sibling's clear cannot land between its own
    /// insert and probe.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn probe_misses_then_hits() {
        let _serial = serial();
        let key = sys_key(4, &[vec![9, 9, 9, 9]], &[]);
        clear();
        assert_eq!(probe(&key), None);
        insert(key.clone(), true);
        assert_eq!(probe(&key), Some(true));
    }

    /// Equal concatenated numbers, different structure: the eq/ineq
    /// boundary and the row length each separate keys, and the answers
    /// stored under them stay independent.
    #[test]
    fn key_separates_boundary_and_row_length() {
        let _serial = serial();
        // Over [x | 1]: `x = 0 and x >= 0`, `x >= 0 and x >= 0`, and the
        // same four numbers as one row over [x y z | 1].
        let eq_then_ineq = sys_key(2, &[vec![1, 0]], &[vec![1, 0]]);
        let two_ineqs = sys_key(2, &[], &[vec![1, 0], vec![1, 0]]);
        let one_long_row = sys_key(4, &[], &[vec![1, 0, 1, 0]]);
        assert_eq!(eq_then_ineq.rows, two_ineqs.rows);
        assert_eq!(eq_then_ineq.rows, one_long_row.rows);
        assert!(eq_then_ineq != two_ineqs);
        assert!(two_ineqs != one_long_row);
        clear();
        insert(eq_then_ineq.clone(), true);
        assert_eq!(probe(&two_ineqs), None);
        assert_eq!(probe(&one_long_row), None);
        insert(two_ineqs.clone(), false);
        assert_eq!(probe(&eq_then_ineq), Some(true));
        assert_eq!(probe(&two_ineqs), Some(false));

        // Through `is_empty`: `x - y = 3 and x + y = 4` has no integer
        // point, the same rows read as inequalities have many.
        let space = Space::set(&[], Tuple::new(Some("K"), &["x", "y"]));
        let rows = vec![vec![1, -1, -3], vec![1, 1, -4]];
        let as_eqs = BasicSet::from_rows(space.clone(), 0, rows.clone(), vec![]);
        let as_ineqs = BasicSet::from_rows(space, 0, vec![], rows);
        assert!(rows_key(&as_eqs) != rows_key(&as_ineqs));
        assert!(as_eqs.is_empty().unwrap());
        assert!(!as_ineqs.is_empty().unwrap());
    }

    /// The bound that always holds: however many distinct systems go
    /// through `is_empty`, the table never exceeds its cap, and a query
    /// repeated after the wholesale clear answers as before.
    #[test]
    fn table_is_bounded_and_answers_survive_the_clear() {
        let _serial = serial();
        let space = Space::set(&[], Tuple::new(Some("B"), &["i", "j"]));
        // `k <= i + j <= k + 1 and i - j = 0`: two-variable rows only, so
        // the interval pre-check cannot answer before the table is reached.
        let system = |k: i64| {
            BasicSet::from_rows(
                space.clone(),
                0,
                vec![vec![1, -1, 0]],
                vec![vec![1, 1, -k], vec![-1, -1, k + 1]],
            )
        };
        clear();
        let first = system(0).is_empty().unwrap();
        for k in 1..=CACHE_CAP as i64 {
            assert!(!system(k).is_empty().unwrap(), "k={k}");
            assert!(len() <= CACHE_CAP);
        }
        assert_eq!(probe(&rows_key(&system(0))), None, "table was cleared");
        assert_eq!(system(0).is_empty().unwrap(), first);
    }
}
