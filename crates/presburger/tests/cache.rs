//! The emptiness memo must be semantically invisible: a warm call
//! returns exactly what a cold call computes, and its hit counter
//! actually moves. The other operations always compute; a repeated call
//! still returns what the first one did.
//!
//! All tests share one process-global cache, so assertions are phrased
//! as deltas around the calls under test rather than absolute counts.

use std::sync::{Mutex, MutexGuard, PoisonError};
use tilefuse_presburger::{stats, Map, Set};

/// The cache is process-global and `clear_cache` in a concurrently
/// running test would break hit-delta assertions, so every test in this
/// binary serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn set(s: &str) -> Set {
    s.parse().unwrap()
}

fn map(s: &str) -> Map {
    s.parse().unwrap()
}

#[test]
fn is_empty_warm_equals_cold() {
    let _g = serial();
    let src = "{ C0[x, y] : 11x + 13y >= 27 and 11x + 13y <= 45 and 7x - 9y >= -10 }";
    let s = set(src);
    stats::clear_cache();
    let before = stats::snapshot();
    let cold = s.is_empty().unwrap();
    // Same object: answered by the inline per-object memo, no global traffic.
    let warm = s.is_empty().unwrap();
    let inline_hit = stats::snapshot();
    // Distinct but structurally identical object: must hit the global memo.
    let s2 = set(src);
    let warm2 = s2.is_empty().unwrap();
    let after = stats::snapshot();
    assert_eq!(cold, warm);
    assert_eq!(cold, warm2);
    assert_eq!(
        inline_hit.is_empty.misses, after.is_empty.misses,
        "structurally identical set must not recompute: {after}"
    );
    assert!(
        after.is_empty.hits > before.is_empty.hits,
        "fresh identical object must hit the global memo: {after}"
    );
}

#[test]
fn project_warm_equals_cold() {
    let _g = serial();
    let s = set("{ C1[i, j, k] : 0 <= i <= 9 and 0 <= j <= i and 3k >= j - 7 and k <= i }");
    stats::clear_cache();
    let cold = s.project_out_dims(1, 2).unwrap();
    let warm = s.project_out_dims(1, 2).unwrap();
    assert!(cold.is_equal(&warm).unwrap());
    // The repeated result is also pointwise right.
    for i in -1..11 {
        assert_eq!(warm.contains(&[i]).unwrap(), (0..=9).contains(&i), "i={i}");
    }
}

#[test]
fn intersect_warm_equals_cold() {
    let _g = serial();
    let a = set("{ C2[i] : 0 <= i <= 100 }");
    let b = set("{ C2[i] : 40 <= i <= 60 }")
        .union(&set("{ C2[i] : 90 <= i <= 95 }"))
        .unwrap();
    stats::clear_cache();
    let cold = a.intersect(&b).unwrap();
    let warm = a.intersect(&b).unwrap();
    assert!(cold.is_equal(&warm).unwrap());
    assert_eq!(warm.count_points(&[]).unwrap(), 21 + 6);
}

#[test]
fn apply_warm_equals_cold() {
    let _g = serial();
    let m = map("{ C3[i] -> A[a] : i <= a <= i + 2 }");
    let s = set("{ C3[i] : 0 <= i <= 5 }");
    stats::clear_cache();
    let cold = m.apply(&s).unwrap();
    let warm = m.apply(&s).unwrap();
    assert!(cold.is_equal(&warm).unwrap());
    assert!(warm.is_equal(&set("{ A[a] : 0 <= a <= 7 }")).unwrap());
}

#[test]
fn reverse_warm_equals_cold() {
    let _g = serial();
    let m = map("{ C4[i] -> A[i + 3] : 0 <= i <= 9 }");
    stats::clear_cache();
    let cold = m.reverse();
    let warm = m.reverse();
    assert!(cold.is_equal(&warm).unwrap());
    assert!(warm.reverse().is_equal(&m).unwrap());
}

/// The four operations that always compute report every call as a miss,
/// so per-phase call counts stay visible to the tracer.
#[test]
fn unmemoized_ops_count_every_call_as_a_miss() {
    let _g = serial();
    let m = map("{ C7[i] -> A[i + 1] : 0 <= i <= 3 }");
    let s = set("{ C7[i] : 0 <= i <= 3 }");
    let before = stats::snapshot();
    for _ in 0..2 {
        let _ = m.reverse();
        let _ = m.apply(&s).unwrap();
        let _ = s.intersect(&s).unwrap();
        let _ = s.project_out_dims(0, 1).unwrap();
    }
    let after = stats::snapshot();
    for (name, b, a) in [
        ("project", before.project, after.project),
        ("intersect", before.intersect, after.intersect),
        ("apply", before.apply, after.apply),
        ("reverse", before.reverse, after.reverse),
    ] {
        assert!(a.misses >= b.misses + 2, "{name}: {after}");
        assert_eq!(a.hits, b.hits, "{name}: {after}");
    }
}

#[test]
fn clear_cache_forces_recomputation_with_same_answer() {
    let _g = serial();
    let s = set("{ C5[i, j] : 0 <= i <= 7 and i <= j <= i + 3 }");
    stats::clear_cache();
    let first = s.project_out_dims(0, 1).unwrap();
    stats::clear_cache();
    let second = s.project_out_dims(0, 1).unwrap();
    assert!(first.is_equal(&second).unwrap());
}

#[test]
fn union_coalesces_identical_disjuncts() {
    let _g = serial();
    let a = set("{ C6[i] : 0 <= i <= 4 }");
    let same = a.union(&a).unwrap();
    assert_eq!(same.n_basic(), 1, "identical disjunct must not duplicate");
    let b = set("{ C6[i] : 10 <= i <= 12 }");
    let u = a.union(&b).unwrap();
    assert_eq!(u.n_basic(), 2);
    assert!(u.contains(&[11]).unwrap());
    assert!(u.contains(&[0]).unwrap());
}
