//! Behavior of the set algebra under an installed resource governor.
//!
//! Soundness contract under budgets: capped feasibility only ever
//! over-approximates (reports "maybe non-empty"), capped answers never
//! enter the memo, and hard budget exhaustion surfaces as the typed
//! `Error::BudgetExhausted`, never a panic or a wrong answer.
//!
//! Governors are thread-local, so each test runs isolated on its own test
//! thread — but the memo table is process-global, so every test uses
//! *distinct* constraint systems to avoid cross-test cache hits.

use tilefuse_presburger::{stats, Error, Set};
use tilefuse_trace::governor::{self, Budget};

/// An empty set whose proof needs several Omega elimination steps: the
/// non-unit equality `3i + 5j = c` passes the gcd test (gcd 1 divides
/// anything) and involves two variables, so neither row normalization nor
/// the interval pre-check can decide it — only branching elimination can.
/// `c` must not be representable as `3a + 5b` with `0 <= a, b` (e.g. 1, 2,
/// 4, 7); vary `hi` per test so memo keys differ across tests.
fn slow_empty_set(c: i64, hi: i64) -> Set {
    format!("{{ S[i,j] : 0 <= i <= {hi} and 0 <= j <= {hi} and 3 i + 5 j = {c} }}")
        .parse()
        .expect("literal parses")
}

#[test]
fn branch_cap_gives_conservative_uncached_answer() {
    let before = stats::silent_feasible();
    let capped = {
        let budget = Budget {
            max_branches_per_call: Some(1),
            ..Budget::default()
        };
        let _g = governor::install(&budget);
        slow_empty_set(1, 10)
            .is_empty()
            .expect("capped emptiness never errors")
    };
    // Conservative direction only: "not empty".
    assert!(!capped, "branch cap must over-approximate to non-empty");
    assert!(
        stats::silent_feasible() > before,
        "the fallback must be counted, not silent"
    );
    // The capped answer must not have been memoized: an ungoverned re-run
    // on a fresh object recomputes and gets the exact answer.
    assert!(
        slow_empty_set(1, 10)
            .is_empty()
            .expect("exact emptiness after capped run"),
        "capped result leaked into the memo table"
    );
}

#[test]
fn omega_op_budget_surfaces_as_typed_error() {
    let budget = Budget {
        max_omega_ops: Some(0),
        ..Budget::default()
    };
    let _g = governor::install(&budget);
    let err = slow_empty_set(2, 11)
        .is_empty()
        .expect_err("zero op budget must exhaust");
    assert!(err.is_budget_exhausted(), "got {err:?}");
    assert!(matches!(
        err,
        Error::BudgetExhausted {
            limit: "omega-ops",
            ..
        }
    ));
}

#[test]
fn unlimited_governor_changes_nothing() {
    let _g = governor::install(&Budget::unlimited());
    assert!(slow_empty_set(4, 12)
        .is_empty()
        .expect("unlimited governor is transparent"));
    assert!(governor::consumed().omega_ops > 0, "accounting still runs");
}
