//! Error-path contract tests: malformed inputs produce *typed* errors with
//! stable `Display` strings — never panics — at every layer boundary.
//!
//! These strings are part of the user-facing CLI/diagnostic surface; a test
//! failure here means downstream tooling that greps or matches on them will
//! break.

use tilefuse::codegen::{AstNode, Buffer, Error as CodegenError};
use tilefuse::core::{algorithm1, Error as CoreError, Options};
use tilefuse::pir::Program;
use tilefuse::scheduler::{build_tree, validate_group, Error as SchedulerError, Group};

/// `core::Error::InvalidInput`: a live-out group index past the end of the
/// group list is rejected before any indexing can panic.
#[test]
fn core_invalid_input_liveout_out_of_range() {
    let program = Program::new("empty");
    let err = algorithm1(&program, &[], &[], 0, &[], &Options::default())
        .expect_err("out-of-range live-out index must be rejected");
    assert!(matches!(err, CoreError::InvalidInput(_)), "got: {err:?}");
    assert_eq!(
        err.to_string(),
        "invalid optimizer input: live-out group index 0 out of range (0 groups)"
    );
}

/// `core::Error::InvalidInput`: producer indices get the same validation as
/// the live-out index.
#[test]
fn core_invalid_input_producer_out_of_range() {
    let program = Program::new("empty");
    let group = Group {
        stmts: vec![],
        depth: 0,
        shifts: vec![],
        coincident: vec![],
        innermost_parallel: false,
    };
    let err = algorithm1(&program, &[], &[group], 0, &[7], &Options::default())
        .expect_err("out-of-range producer index must be rejected");
    assert!(matches!(err, CoreError::InvalidInput(_)), "got: {err:?}");
    assert_eq!(
        err.to_string(),
        "invalid optimizer input: producer group index 7 out of range (1 groups)"
    );
}

/// `scheduler::Error::MalformedGroup`: an empty group is caught by
/// `validate_group` with a stable message.
#[test]
fn scheduler_malformed_group_empty() {
    let program = Program::new("empty");
    let group = Group {
        stmts: vec![],
        depth: 0,
        shifts: vec![],
        coincident: vec![],
        innermost_parallel: false,
    };
    let err = validate_group(&program, &group).expect_err("empty group must be rejected");
    assert!(
        matches!(err, SchedulerError::MalformedGroup(_)),
        "got: {err:?}"
    );
    assert_eq!(
        err.to_string(),
        "malformed fusion group: group has no statements"
    );
}

/// `scheduler::Error::MalformedGroup`: `build_tree` runs the same validation,
/// so a hand-constructed inconsistent group (shift count != statement count)
/// reports instead of panicking inside tree construction.
#[test]
fn scheduler_malformed_group_via_build_tree() {
    let program = Program::new("empty");
    let group = Group {
        stmts: vec![tilefuse::pir::StmtId(0)],
        depth: 1,
        shifts: vec![], // wrong: must have one shift vector per statement
        coincident: vec![true],
        innermost_parallel: false,
    };
    let err = build_tree(&program, &[group]).expect_err("inconsistent group must be rejected");
    assert!(
        matches!(err, SchedulerError::MalformedGroup(_)),
        "got: {err:?}"
    );
    assert_eq!(
        err.to_string(),
        "malformed fusion group: 0 shift vectors for 1 statements"
    );
}

/// `codegen::Error::Exec`: an out-of-bounds buffer access is a typed
/// execution error, not a slice panic.
#[test]
fn codegen_exec_out_of_bounds() {
    let buf = Buffer::zeros(vec![2, 2]);
    let err = buf.get(&[5, 5]).expect_err("out-of-bounds read must fail");
    assert!(matches!(err, CodegenError::Exec(_)), "got: {err:?}");
    assert_eq!(
        err.to_string(),
        "execution error: out-of-bounds access [5, 5] into shape [2, 2]"
    );
}

/// `codegen::Error::Shape`: typed AST accessors on the wrong node kind
/// report expected/found instead of aborting the walk.
#[test]
fn codegen_shape_mismatch() {
    let node = AstNode::Comment("not a loop".into());
    let err = node.as_for().expect_err("comment is not a for loop");
    assert!(
        matches!(
            err,
            CodegenError::Shape {
                expected: "for",
                found: "comment"
            }
        ),
        "got: {err:?}"
    );
    assert_eq!(
        err.to_string(),
        "AST shape error: expected for, found comment"
    );
}

/// `server::ServerError`: the `overloaded` and `quarantined` Display
/// strings are wire-adjacent (clients and the chaos soak match on them)
/// and must stay stable.
#[test]
fn server_error_display_is_stable() {
    use tilefuse::server::ServerError;
    assert_eq!(
        ServerError::Overloaded {
            reason: "queue full (64 jobs)".into()
        }
        .to_string(),
        "server overloaded: queue full (64 jobs)"
    );
    assert_eq!(
        ServerError::Quarantined { hash: 0x1234 }.to_string(),
        "request quarantined (structural hash 0000000000001234): \
         a previous identical request crashed the optimizer"
    );
    assert_eq!(
        ServerError::Protocol("missing 'op'".into()).to_string(),
        "protocol error: missing 'op'"
    );
}

/// `core::Error::Panicked`: the caught-panic Display (what a supervisor
/// logs and a quarantine artifact embeds) is stable.
#[test]
fn core_panicked_display_is_stable() {
    let err = CoreError::Panicked {
        phase: "optimize/ladder",
        message: "injected worker panic".into(),
    };
    assert_eq!(
        err.to_string(),
        "panic in optimize (phase optimize/ladder): injected worker panic"
    );
    assert!(err.budget().is_none(), "a panic is not a budget trip");
}

/// A `DegradationReport` survives the wire: serialize, render to canonical
/// JSON, parse back, and field-compare through `DegradationSummary`.
#[test]
fn degradation_report_round_trips_through_wire_json() {
    use tilefuse::core::{BudgetTrip, DegradationReport};
    use tilefuse::server::protocol::{degradation_to_value, summary_matches, DegradationSummary};
    use tilefuse::trace::json;

    let report = DegradationReport {
        rung: 4,
        trips: vec![
            BudgetTrip {
                phase: "algo1/extension",
                limit: "omega-ops",
                detail: "dropped producer absorption".into(),
            },
            BudgetTrip {
                phase: "optimize/ladder",
                limit: "forced",
                detail: "supervisor forced entry at rung 4: skipped tiling-then-fusion \
                         and plain live-out tiling"
                    .into(),
            },
        ],
        silent_feasible: 7,
        omega_ops: 12_345,
        elapsed_ms: 8.25,
        peak_disjuncts: 4,
        fusion_budget_exhausted: true,
        fusion_steps: 99,
    };
    let rendered = degradation_to_value(&report).render();
    let parsed = json::parse(&rendered).expect("canonical JSON parses");
    let summary = DegradationSummary::from_value(&parsed).expect("summary parses");
    assert!(
        summary_matches(&summary, &report),
        "summary {summary:?} != report {report:?}"
    );
    // Canonical: re-rendering the parsed value reproduces the bytes.
    assert_eq!(parsed.render(), rendered);
}

/// A `SupervisionReport` (every attempt-outcome variant) survives the
/// wire byte-for-byte.
#[test]
fn supervision_report_round_trips_through_wire_json() {
    use tilefuse::server::{AttemptOutcome, AttemptRecord, CacheOutcome, SupervisionReport};
    use tilefuse::trace::json;

    let report = SupervisionReport {
        attempts: vec![
            AttemptRecord {
                attempt: 0,
                min_rung: 1,
                elapsed_ms: 40.5,
                outcome: AttemptOutcome::Panicked {
                    phase: "optimize/ladder".into(),
                    message: "injected worker panic".into(),
                },
            },
            AttemptRecord {
                attempt: 1,
                min_rung: 4,
                elapsed_ms: 2.0,
                outcome: AttemptOutcome::Exhausted {
                    limit: "cancelled".into(),
                    phase: "schedule/deps".into(),
                },
            },
        ],
        retries: 1,
        quarantined: false,
        cache: CacheOutcome::Bypass,
        elapsed_ms: 75.0,
    };
    let rendered = report.to_value().render();
    let back = SupervisionReport::from_value(&json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(back, report);
    // And the failed variant, as produced by a genuine optimizer error.
    let failed = SupervisionReport {
        attempts: vec![AttemptRecord {
            attempt: 0,
            min_rung: 1,
            elapsed_ms: 0.5,
            outcome: AttemptOutcome::Failed {
                error: "invalid optimizer input: spec has no stages".into(),
            },
        }],
        retries: 0,
        quarantined: false,
        cache: CacheOutcome::Miss,
        elapsed_ms: 1.0,
    };
    let rendered = failed.to_value().render();
    let back = SupervisionReport::from_value(&json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(back, failed);
}
