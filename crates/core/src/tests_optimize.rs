//! Unit tests for the optimizer facade: tree shapes, single-group
//! programs, plain tiling of rejected producers, and option presets.

use crate::{optimize, Options};
use tilefuse_pir::{ArrayKind, Body, Expr, IdxExpr, Program, SchedTerm};
use tilefuse_schedtree::Node;
use tilefuse_scheduler::FusionHeuristic;

fn opts(tiles: &[i64]) -> Options {
    Options {
        tile_sizes: tiles.to_vec(),
        parallel_cap: None,
        startup: FusionHeuristic::MinFuse,
        ..Default::default()
    }
}

/// Single live-out statement, nothing to fuse: plain tiling only.
fn single_stmt_program() -> Program {
    let mut p = Program::new("single").with_param("N", 32);
    let a = p.add_array("A", vec!["N".into(), "N".into()], ArrayKind::Output);
    let d2 = |k| IdxExpr::dim(2, k);
    p.add_stmt(
        "{ S0[i, j] : 0 <= i < N and 0 <= j < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: a,
            target_idx: vec![d2(0), d2(1)],
            rhs: Expr::add(Expr::Iter(0), Expr::Iter(1)),
        },
    )
    .unwrap();
    p
}

#[test]
fn single_group_program_gets_plain_tiling() {
    let p = single_stmt_program();
    let o = optimize(&p, &opts(&[8, 8])).unwrap();
    // No extensions, no scratch; the tree has two nested bands (tile +
    // point).
    assert!(o.report.scratch_arrays.is_empty());
    assert_eq!(o.report.mixed.len(), 1);
    assert!(o.report.mixed[0].extensions.is_empty());
    assert_eq!(o.report.mixed[0].k, 2);
    let bands = o.tree.find_all(&|n| matches!(n, Node::Band { .. }));
    assert!(bands.len() >= 2, "tile + point bands expected");
    // Validate + execute.
    let (r, _) = tilefuse_codegen::reference_execute(&p, &[]).unwrap();
    let (t, _) =
        tilefuse_codegen::execute_tree(&p, &o.tree, &[], &o.report.scratch_scopes).unwrap();
    tilefuse_codegen::check_outputs_match(&p, &r, &t, 0.0).unwrap();
}

#[test]
fn tile_sizes_longer_than_band_are_truncated() {
    let p = single_stmt_program();
    let o = optimize(&p, &opts(&[8, 8, 8, 8])).unwrap();
    assert_eq!(o.report.mixed[0].k, 2, "band depth caps the tile dims");
}

#[test]
fn no_tiling_when_sizes_empty() {
    let p = single_stmt_program();
    let o = optimize(&p, &opts(&[])).unwrap();
    assert_eq!(o.report.mixed[0].k, 0);
    assert!(o.report.mixed[0].tile_band.is_none());
}

#[test]
fn option_presets_set_caps() {
    let c = Options::cpu(&[16, 16]);
    assert_eq!(c.parallel_cap, Some(1));
    assert_eq!(c.tile_sizes, vec![16, 16]);
    let g = Options::gpu(&[16, 16]);
    assert_eq!(g.parallel_cap, Some(2));
    let d = Options::default();
    assert_eq!(d.parallel_cap, None);
}

#[test]
fn parallelism_guard_leaves_producer_plain_tiled() {
    // Producer is a serial scan (loop-carried): n = 0 < m -> untiled, but
    // still correct and still plain-tiled where possible.
    let mut p = Program::new("serial_prod").with_param("N", 24);
    let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
    let b = p.add_array("B", vec!["N".into()], ArrayKind::Output);
    let i1 = |d| IdxExpr::dim(1, d);
    // S0: A[i] = A[i-1] + 1 (prefix scan; serial).
    p.add_stmt(
        "{ S0[i] : 1 <= i < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
        Body {
            target: a,
            target_idx: vec![i1(0)],
            rhs: Expr::add(Expr::load(a, vec![i1(0).offset(-1)]), Expr::Const(1.0)),
        },
    )
    .unwrap();
    // S1: B[i] = A[i] * 2 (parallel consumer).
    p.add_stmt(
        "{ S1[i] : 1 <= i < N }",
        vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
        Body {
            target: b,
            target_idx: vec![i1(0)],
            rhs: Expr::mul(Expr::load(a, vec![i1(0)]), Expr::Const(2.0)),
        },
    )
    .unwrap();
    let o = optimize(&p, &opts(&[6])).unwrap();
    // The serial producer must NOT be fused into parallel tiles (m=1 > n=0).
    assert!(!o.report.is_fused(0), "serial producer must stay unfused");
    assert!(o.report.mixed.iter().any(|m| m.untiled_groups.contains(&0)));
    let (r, _) = tilefuse_codegen::reference_execute(&p, &[]).unwrap();
    let (t, _) =
        tilefuse_codegen::execute_tree(&p, &o.tree, &[], &o.report.scratch_scopes).unwrap();
    tilefuse_codegen::check_outputs_match(&p, &r, &t, 0.0).unwrap();
}

#[test]
fn fig5_tree_contains_extension_between_tile_and_point_bands() {
    // Pointwise producer + tiled consumer: the extension node must sit
    // under the tile band and above the sequence of filters.
    let mut p = Program::new("shape").with_param("N", 16);
    let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
    let b = p.add_array("B", vec!["N".into()], ArrayKind::Output);
    let i1 = |d| IdxExpr::dim(1, d);
    p.add_stmt(
        "{ P[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
        Body {
            target: a,
            target_idx: vec![i1(0)],
            rhs: Expr::Iter(0),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ C[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
        Body {
            target: b,
            target_idx: vec![i1(0)],
            rhs: Expr::load(a, vec![i1(0)]),
        },
    )
    .unwrap();
    let o = optimize(&p, &opts(&[4])).unwrap();
    let ext_path = o
        .tree
        .find(&|n| matches!(n, Node::Extension { .. }))
        .expect("extension node present");
    // Parent chain: the node above the extension is the tile band.
    let parent = o.tree.node_at(&ext_path[..ext_path.len() - 1]).unwrap();
    assert!(
        matches!(parent, Node::Band { .. }),
        "extension under tile band"
    );
    // Below the extension: a sequence whose children are filters.
    let below = o.tree.node_at(&[&ext_path[..], &[0]].concat()).unwrap();
    assert!(matches!(below, Node::Sequence { .. }));
    // The skipped mark exists somewhere for the producer.
    assert!(o
        .tree
        .find(&|n| matches!(n, Node::Mark { mark, .. } if mark == tilefuse_schedtree::MARK_SKIPPED))
        .is_some());
    // Extension in-arity = sequence position + tile dims = 1 + 1.
    match o.tree.node_at(&ext_path).unwrap() {
        Node::Extension { extension, .. } => {
            assert_eq!(extension.parts()[0].space().n_in(), 2);
        }
        _ => unreachable!(),
    }
}

#[test]
fn recomputation_factor_is_one_for_pointwise_fusion() {
    let mut p = Program::new("pw").with_param("N", 16);
    let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
    let b = p.add_array("B", vec!["N".into()], ArrayKind::Output);
    let i1 = |d| IdxExpr::dim(1, d);
    p.add_stmt(
        "{ P[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
        Body {
            target: a,
            target_idx: vec![i1(0)],
            rhs: Expr::Iter(0),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ C[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
        Body {
            target: b,
            target_idx: vec![i1(0)],
            rhs: Expr::load(a, vec![i1(0)]),
        },
    )
    .unwrap();
    let o = optimize(&p, &opts(&[4])).unwrap();
    let rf = crate::recomputation_factor(&o, &p.param_values(&[])).unwrap();
    assert_eq!(rf.len(), 1);
    assert!(
        (rf["P"] - 1.0).abs() < 1e-9,
        "pointwise fusion has no overlap"
    );
}

/// Budgets stop work, they never change answers: even under an enforcing
/// governor, the ladder absorbs budget exhaustion and nothing else.
#[test]
fn only_budget_exhaustion_is_degradable() {
    use crate::error::{checkpoint, Error};
    use crate::optimize::degradable;
    use tilefuse_trace::governor::{install_with_cancel, Budget, CancelToken};

    let token = CancelToken::new();
    let expired = Budget {
        deadline_ms: Some(0),
        ..Budget::default()
    };
    let _g = install_with_cancel(&expired, Some(token.clone()));
    assert!(!degradable(&Error::Internal("a bug".into())));
    assert!(!degradable(&Error::InvalidInput("bad input".into())));
    let deadline = checkpoint("test/phase").unwrap_err();
    let trip = deadline.budget().expect("a deadline trip");
    assert_eq!((trip.limit, trip.phase), ("deadline", "test/phase"));
    assert!(degradable(&deadline));
    token.cancel();
    let cancelled = checkpoint("test/phase").unwrap_err();
    assert!(cancelled.budget().is_some());
    assert!(!degradable(&cancelled), "a revoked run must not degrade");
}
