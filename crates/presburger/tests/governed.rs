//! Behavior of the set algebra under an installed resource governor.
//!
//! Soundness contract under budgets: exhaustion surfaces as the typed
//! `Error::BudgetExhausted`, never a panic or a wrong answer, and a
//! governor that never trips changes nothing.
//!
//! Governors are thread-local, so each test runs isolated on its own test
//! thread — but the memo table is process-global, so every test uses
//! *distinct* constraint systems to avoid cross-test cache hits.

use tilefuse_presburger::{Error, Set};
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
fn omega_op_budget_surfaces_as_typed_error() {
    let budget = Budget {
        max_omega_ops: Some(0),
        ..Budget::default()
    };
    let _g = governor::install(&budget);
    let err = slow_empty_set(2, 11)
        .is_empty()
        .expect_err("zero op budget must exhaust");
    assert!(
        matches!(err, Error::BudgetExhausted(e) if e.limit == "omega-ops"),
        "got {err:?}"
    );
}

#[test]
fn unlimited_governor_changes_nothing() {
    let _g = governor::install(&Budget::unlimited());
    assert!(slow_empty_set(4, 12)
        .is_empty()
        .expect("unlimited governor is transparent"));
    assert!(governor::consumed().omega_ops > 0, "accounting still runs");
}
