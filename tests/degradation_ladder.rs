//! Degradation-ladder integration tests on the paper's PolyMage pipelines.
//!
//! The resource governor (DESIGN.md §10) must turn *any* budget — however
//! adversarial — into a graceful fall down the four-rung ladder, never a
//! panic, hang, or wrong answer: the optimizer returns `Ok` with a
//! populated [`DegradationReport`], and the resulting tree still executes
//! bit-identically to the reference.
//!
//! Optimization runs at the bench suite's simulation-friendly 128x128;
//! the bit-exactness executions override H/W down to 40x40 (the trees are
//! symbolic in the parameters) so the interpreter passes stay fast in
//! unoptimized CI builds.

use tilefuse::codegen::{check_outputs_match, execute_tree, reference_execute};
use tilefuse::core::{optimize, FaultInjection, Options};
use tilefuse::fuzzgen::{build_program, random_budget, random_spec, Rng};
use tilefuse::schedtree::render;
use tilefuse::server::supervisor::options_for;
use tilefuse::trace::{governor, Budget, CancelToken};
use tilefuse::workloads::{polymage, Workload};

/// Execution-time parameter overrides: small, and different from the
/// build-time size so parameter specialization bugs cannot hide.
const EXEC_SIZE: &[(&str, i64)] = &[("H", 40), ("W", 40)];

fn opts_for(w: &Workload, budget: Budget) -> Options {
    Options {
        tile_sizes: w.tile_sizes.clone(),
        budget,
        ..Default::default()
    }
}

/// With no budget installed every pipeline stays on rung 1: full
/// tiling-then-fusion, no trips, nothing silently approximated.
#[test]
fn default_budget_stays_on_rung_one() {
    for w in polymage::all(128, 128).unwrap() {
        let o = optimize(&w.program, &opts_for(&w, Budget::default())).unwrap();
        let deg = &o.report.degradation;
        assert_eq!(deg.rung, 1, "{}: expected rung 1, got {deg:?}", w.name);
        assert!(
            deg.trips.is_empty(),
            "{}: unexpected trips {:?}",
            w.name,
            deg.trips
        );
        assert_eq!(deg.silent_feasible, 0, "{}: {deg:?}", w.name);
    }
}

/// Runs `optimize` under `budget`, checks report coherence, then executes
/// the degraded tree and compares it bit-exactly against `reference`.
fn check_degraded_exact(w: &Workload, budget: &Budget, reference: &tilefuse::codegen::ExecContext) {
    let o = optimize(&w.program, &opts_for(w, budget.clone()))
        .unwrap_or_else(|e| panic!("{} under {budget:?}: {e}", w.name));
    let deg = &o.report.degradation;
    assert!(
        (1..=4).contains(&deg.rung),
        "{}: rung {} out of range",
        w.name,
        deg.rung
    );
    assert!(
        deg.rung == 1 || !deg.trips.is_empty(),
        "{}: rung {} without recorded trips",
        w.name,
        deg.rung
    );
    let (out, _) = execute_tree(&w.program, &o.tree, EXEC_SIZE, &o.report.scratch_scopes)
        .unwrap_or_else(|e| panic!("{} under {budget:?}: {e}", w.name));
    check_outputs_match(&w.program, reference, &out, 1e-12)
        .unwrap_or_else(|e| panic!("{} under {budget:?}: {e}", w.name));
}

/// A zero-op grant — the harshest deterministic enforcement budget — on
/// every pipeline: the ladder falls to wherever it must, the report
/// explains it, and the tree stays bit-exact.
#[test]
fn zero_op_budget_degrades_but_stays_exact_on_every_pipeline() {
    let zero_ops = Budget {
        max_omega_ops: Some(0),
        ..Budget::default()
    };
    for w in polymage::all(128, 128).unwrap() {
        let (reference, _) = reference_execute(&w.program, EXEC_SIZE).unwrap();
        check_degraded_exact(&w, &zero_ops, &reference);
    }
}

/// A zero-op grant leaves nothing for fusion *or* plain tiling: the ladder
/// must land on its untiled floor, and the trips must name both dropped
/// rungs.
#[test]
fn zero_op_budget_lands_on_the_untiled_floor() {
    let w = polymage::harris(128, 128).unwrap();
    let budget = Budget {
        max_omega_ops: Some(0),
        ..Budget::default()
    };
    let o = optimize(&w.program, &opts_for(&w, budget)).unwrap();
    let deg = &o.report.degradation;
    assert_eq!(deg.rung, 4, "expected the untiled floor, got {deg:?}");
    assert!(
        deg.trips.len() >= 2,
        "expected ladder trips, got {:?}",
        deg.trips
    );
    assert!(o.report.mixed.is_empty(), "rung 4 must not fuse: {deg:?}");
}

/// An expired deadline must never hang or panic — it degrades like any
/// other exhausted budget and the result still validates and executes.
#[test]
fn expired_deadline_degrades_without_hanging() {
    for w in polymage::all(128, 128).unwrap() {
        let budget = Budget {
            deadline_ms: Some(0),
            ..Budget::default()
        };
        let o = optimize(&w.program, &opts_for(&w, budget))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let deg = &o.report.degradation;
        assert!(
            (1..=4).contains(&deg.rung),
            "{}: rung {} out of range",
            w.name,
            deg.rung
        );
        assert!(
            deg.rung == 1 || !deg.trips.is_empty(),
            "{}: rung {} without recorded trips",
            w.name,
            deg.rung
        );
    }
}

/// Only `cancelled` leaves `optimize` as a budget error. A worker stall
/// cut short by the budget deadline falls down the ladder like any other
/// trip; the same call under a job deadline that has already passed stops
/// the whole run.
#[test]
fn only_a_passed_job_deadline_leaves_optimize_as_a_budget_error() {
    let w = polymage::harris(128, 128).unwrap();
    let stalled = Options {
        fault: FaultInjection::WorkerStall { ms: 10_000 },
        ..opts_for(
            &w,
            Budget {
                deadline_ms: Some(5),
                ..Budget::default()
            },
        )
    };
    let t0 = std::time::Instant::now();
    let o = optimize(&w.program, &stalled).expect("a budget trip degrades");
    assert!(t0.elapsed().as_secs() < 5, "held by the stall");
    let deg = &o.report.degradation;
    assert!(deg.rung >= 3, "the stall must drop fusion: {deg:?}");
    assert_eq!(deg.trips[0].phase, "fault/stall", "{deg:?}");

    let expired = Options {
        cancel: Some(CancelToken::with_deadline(std::time::Instant::now())),
        ..stalled
    };
    let e = optimize(&w.program, &expired).expect_err("a passed job deadline stops the run");
    let trip = e.budget().expect("a budget error");
    assert_eq!(trip.limit, governor::CANCELLED, "{e}");
}

/// Budgets stop work, they never change answers: whenever a governed run
/// ends on rung 1 with no trips, it returns the plan an ungoverned run
/// returns — tree, scratch scopes and Algorithm 1 schedules alike.
#[test]
fn governed_rung_one_equals_the_ungoverned_plan() {
    let mut rng = Rng::new(16);
    let mut enforced_rung_one = 0;
    for case in 0..240 {
        let spec = random_spec(&mut rng);
        let budget = random_budget(&mut rng);
        let program = build_program(&spec).unwrap();
        let opts = |budget| options_for(&spec, budget, FaultInjection::None);
        let governed = optimize(&program, &opts(Some(budget.clone())))
            .unwrap_or_else(|e| panic!("case {case} under {budget:?}: {e}"));
        let deg = &governed.report.degradation;
        if deg.rung != 1 || !deg.trips.is_empty() {
            continue;
        }
        enforced_rung_one += usize::from(!budget.is_unlimited());
        let free = optimize(&program, &opts(None)).unwrap();
        let ctx = format!("case {case} under {budget:?} ({spec:?})");
        assert_eq!(render(&governed.tree), render(&free.tree), "{ctx}");
        assert_eq!(
            governed.report.scratch_scopes, free.report.scratch_scopes,
            "{ctx}"
        );
        assert_eq!(
            format!("{:?}", governed.report.mixed),
            format!("{:?}", free.report.mixed),
            "{ctx}"
        );
    }
    assert!(
        enforced_rung_one >= 10,
        "only {enforced_rung_one} enforcing budgets stayed on rung 1: the property is near-vacuous"
    );
}
