//! Differential test of the one parallel runtime — the work-stealing pool
//! — against the sequential interpreter: the wavefront stencil (whose
//! outer band carries a dependence, so no loop-level cut can parallelize
//! it) and every PolyMage workload on its optimized tree, at two tile
//! sizes, at 1/2/4 worker threads (1/2/4/8 on the stencil — the CI
//! thread-count soak): the tile DAG — plus the single-threaded adversarial
//! drain (latest ready task first) — and
//! `execute_compiled`'s edge-free tasks. Small hand-built inputs steer a
//! pinned task prefix across every bytecode instruction kind. Every run
//! must produce bit-identical buffers AND identical execution statistics
//! (instance counts, loads, stores, scratch hits).
//!
//! The sequential interpreter is the semantic oracle (it is itself
//! checked against `reference_execute` elsewhere); this test pins the DAG
//! runtime to it exactly, the same contract `vm_differential.rs` pins the
//! bytecode VM with.

use std::collections::BTreeMap;

use tilefuse::codegen::{
    disasm, execute_compiled, execute_tree, execute_tree_dag_with, lower_tree, ExecBackend,
    ExecContext, ExecStats,
};
use tilefuse::core::{optimize, Options};
use tilefuse::pir::{ArrayId, ArrayKind, Body, Expr, IdxExpr, Program, SchedTerm};
use tilefuse::schedtree::ScheduleTree;
use tilefuse::scheduler::{build_tile_dag, schedule, FusionHeuristic};

/// Asserts every buffer of both contexts is bit-identical (f64 bit
/// patterns, not epsilon comparison) and the statistics match exactly.
fn assert_bit_exact(
    program: &Program,
    what: &str,
    seq: &(ExecContext, ExecStats),
    dag: &(ExecContext, ExecStats),
) {
    for a in program.arrays() {
        let bs = seq.0.buffer(a.id()).data();
        let bd = dag.0.buffer(a.id()).data();
        assert_eq!(bs.len(), bd.len(), "{what}: {} length", a.name());
        for (i, (x, y)) in bs.iter().zip(bd).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: {}[{i}] seq={x:e} dag={y:e}",
                a.name()
            );
        }
    }
    assert_eq!(seq.1, dag.1, "{what}: execution statistics differ");
}

/// Builds the tile DAG for one tree and runs it at every thread count plus
/// the adversarial drain, then the compiled program with
/// its coincident loops cut into pool tasks at every thread count, pinning
/// each run bit-exactly to the sequential interpreter.
fn check_tree(
    program: &Program,
    tree: &ScheduleTree,
    scopes: &BTreeMap<ArrayId, usize>,
    threads: &[usize],
    label: &str,
) {
    let seq = execute_tree(program, tree, &[], scopes)
        .unwrap_or_else(|e| panic!("{label}: sequential reference failed: {e}"));
    let compiled = lower_tree(program, tree, &[], scopes)
        .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
    for &n in threads {
        let what = format!("{label} execute_compiled threads={n}");
        let got = execute_compiled(program, &compiled, n)
            .unwrap_or_else(|e| panic!("{what}: VM run failed: {e}"));
        assert_bit_exact(program, &what, &seq, &got);
    }
    let dag = build_tile_dag(program, tree, &[], scopes)
        .unwrap_or_else(|e| panic!("{label}: build_tile_dag failed: {e}"));
    for (threads, adversarial) in threads
        .iter()
        .map(|&t| (t, false))
        .chain(std::iter::once((1, true)))
    {
        let what = format!(
            "{label} DAG threads={threads}{}",
            if adversarial { " adversarial" } else { "" }
        );
        let got = execute_tree_dag_with(
            program,
            tree,
            &[],
            scopes,
            threads,
            ExecBackend::Vm,
            &dag,
            adversarial,
        )
        .unwrap_or_else(|e| panic!("{what}: DAG run failed: {e}"));
        assert_bit_exact(program, &what, &seq, &got);
    }
}

#[test]
fn wavefront_stencil_bit_exact_and_parallelized() {
    for tile in [8, 16] {
        let w = tilefuse::workloads::wavefront::upwind(48, 48).expect("workload");
        let tree = tilefuse::workloads::wavefront::tiled_tree(tile).expect("tree");
        let scopes = BTreeMap::new();
        // The whole point of the DAG runtime: this schedule has no
        // coincident band member, yet its tile graph is a real DAG (a
        // wavefront), not a chain — and not edge-free either.
        let dag = build_tile_dag(&w.program, &tree, &[], &scopes).expect("dag");
        assert!(dag.n_tasks() > 1, "tile={tile}: expected several tasks");
        assert!(
            dag.n_edges() > 0,
            "tile={tile}: expected inter-tile dependence edges"
        );
        assert!(
            dag.n_edges() < dag.n_tasks() * (dag.n_tasks() - 1) / 2,
            "tile={tile}: a full order would serialize the DAG"
        );
        // 8 workers oversubscribes every CI machine — the soak the CI
        // `dag-differential` job relies on.
        check_tree(
            &w.program,
            &tree,
            &scopes,
            &[1, 2, 4, 8],
            &format!("upwind tile={tile}"),
        );
    }
}

#[test]
fn polymage_workloads_bit_exact_on_dag_runtime() {
    // The matrix is 6 workloads × 2 tiles × 7 runs (3 compiled, 4 DAG)
    // after one sequential interpretation each; a debug interpreter is ~10×
    // slower, so the unoptimized profile trades image size for the same
    // structural coverage.
    let img = if cfg!(debug_assertions) { 8 } else { 12 };
    for w in tilefuse::workloads::polymage::all(img, img).expect("workloads") {
        for tile in [&[4i64, 4][..], &[2, 2][..]] {
            let opt = optimize(&w.program, &Options::cpu(tile)).expect("optimize");
            check_tree(
                &w.program,
                &opt.tree,
                &opt.report.scratch_scopes,
                &[1, 2, 4],
                &format!("{} tile={tile:?}", w.program.name()),
            );
        }
    }
}

/// `A[i] = 2i` on `0..N`, then `B[i] = A[i] + A[i-1]` on `1..N`: legal to
/// run as two loops or fused into one, and the two domains differ so a
/// merged loop's guards disagree at `i = 0`.
fn two_stage(n: i64) -> Program {
    let mut p = Program::new("two_stage").with_param("N", n);
    let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
    let b = p.add_array("B", vec!["N".into()], ArrayKind::Output);
    let i = || IdxExpr::dim(1, 0);
    p.add_stmt(
        "{ S0[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
        Body {
            target: a,
            target_idx: vec![i()],
            rhs: Expr::mul(Expr::Iter(0), Expr::Const(2.0)),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ S1[i] : 1 <= i < N }",
        vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
        Body {
            target: b,
            target_idx: vec![i()],
            rhs: Expr::add(
                Expr::load(a, vec![i()]),
                Expr::load(a, vec![i().offset(-1)]),
            ),
        },
    )
    .unwrap();
    p
}

/// Asserts the listing has an instruction of `kind` driving schedule dim
/// `d<dim>` (so a task prefix longer than `dim` pins it).
fn assert_inst(listing: &str, kind: &str, dim: usize, label: &str) {
    let needle = format!("{kind} d{dim}");
    assert!(
        listing.lines().any(|l| l
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .contains(&needle)),
        "{label}: no `{needle}` in\n{listing}"
    );
}

#[test]
fn pinned_prefix_crosses_every_instruction_kind() {
    let none = BTreeMap::new();
    let p = two_stage(9);

    // Two loops in sequence: the prefix [stage, i] pins a static
    // partition on the sequence dim and a fused loop.
    let split = schedule(&p, FusionHeuristic::MinFuse)
        .expect("minfuse")
        .tree;
    let listing = disasm(&lower_tree(&p, &split, &[], &none).expect("lower"));
    let dag = build_tile_dag(&p, &split, &[], &none).expect("dag");
    assert_eq!(dag.prefix_len, 2, "{listing}");
    assert_inst(&listing, "set", 0, "minfuse");
    assert_inst(&listing, "fused_loop", 1, "minfuse");
    assert!(dag.n_edges() > 0, "stage 1 waits on stage 0");
    check_tree(&p, &split, &none, &[1, 2, 4], "two_stage minfuse");

    // One fused loop: the prefix [i] pins a merged loop whose two guards
    // disagree at i = 0, with the sequence partitions below the prefix.
    let fused = schedule(&p, FusionHeuristic::MaxFuse)
        .expect("maxfuse")
        .tree;
    let listing = disasm(&lower_tree(&p, &fused, &[], &none).expect("lower"));
    let dag = build_tile_dag(&p, &fused, &[], &none).expect("dag");
    assert_eq!(dag.prefix_len, 1, "{listing}");
    assert_inst(&listing, "loop_open L0", 0, "maxfuse");
    assert!(
        listing.contains("s0{") && listing.contains("s1{"),
        "{listing}"
    );
    assert_inst(&listing, "set", 1, "maxfuse");
    check_tree(&p, &fused, &none, &[1, 2, 4], "two_stage maxfuse");

    // Post-tiling fusion: the prefix [1, tile] pins a coincident merged
    // loop, with the fused producer in tile-local scratch (the last tile
    // is partial).
    let opt = optimize(&p, &Options::cpu(&[4])).expect("optimize");
    let scopes = &opt.report.scratch_scopes;
    let listing = disasm(&lower_tree(&p, &opt.tree, &[], scopes).expect("lower"));
    let dag = build_tile_dag(&p, &opt.tree, &[], scopes).expect("dag");
    assert_eq!(dag.prefix_len, 2, "{listing}");
    assert_eq!(dag.n_tasks(), 3, "{listing}");
    assert_inst(&listing, "loop_open L0", 1, "optimized");
    assert!(listing.contains("par"), "{listing}");
    let (_, stats) = execute_tree(&p, &opt.tree, &[], scopes).expect("interp");
    assert!(
        stats.scratch_hits > 0,
        "fused producer is read from scratch"
    );
    check_tree(&p, &opt.tree, scopes, &[1, 2, 4], "two_stage optimized");

    // Guards that are multi-group union boxes: the halo case splits of
    // Harris's fused stages stay above the lowering's merge threshold, so
    // the prefix [0, ti, tj] pins two coincident loops whose guards are
    // `min[..] max[..]` groups, over union-box point loops with an exact
    // leaf filter.
    let harris = tilefuse::workloads::polymage::harris(16, 16)
        .expect("workload")
        .program;
    let opt = optimize(&harris, &Options::cpu(&[4, 4])).expect("optimize");
    let scopes = &opt.report.scratch_scopes;
    let listing = disasm(&lower_tree(&harris, &opt.tree, &[], scopes).expect("lower"));
    let dag = build_tile_dag(&harris, &opt.tree, &[], scopes).expect("dag");
    assert_eq!(dag.prefix_len, 3, "{listing}");
    for dim in [1, 2] {
        let open = format!("d{dim} par");
        assert!(
            listing
                .lines()
                .any(|l| l.contains("loop_open") && l.contains(&open) && l.contains("min[")),
            "no union-box guard on the par loop d{dim} in\n{listing}"
        );
    }
    check_tree(&harris, &opt.tree, scopes, &[1, 2], "harris union-box");

    // A tile larger than the extent: one task, every pinned loop at 0.
    let w = tilefuse::workloads::wavefront::upwind(12, 12).expect("workload");
    let tree = tilefuse::workloads::wavefront::tiled_tree(16).expect("tree");
    let dag = build_tile_dag(&w.program, &tree, &[], &none).expect("dag");
    assert_eq!(dag.tasks, vec![vec![0, 0]]);
    check_tree(&w.program, &tree, &none, &[1, 2], "upwind tile>extent");
}
