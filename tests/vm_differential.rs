//! Differential test of the bytecode VM against the reference
//! interpreter: for every PolyMage workload and the paper's running
//! example, at two tile sizes, sequentially and with coincident loops cut
//! into pool tasks, the VM must produce bit-identical buffers AND
//! identical execution statistics (instance counts, loads, stores,
//! scratch hits). The two pyramids execute nothing below ~509 px, so they
//! run again at 512 px (release builds only).
//!
//! The interpreter is the semantic oracle (it is itself checked against
//! `reference_execute` elsewhere); this test pins the VM to it exactly.

use tilefuse::codegen::{execute_compiled, execute_tree, lower_tree, ExecContext, ExecStats};
use tilefuse::core::{optimize, Options};
use tilefuse::pir::{ArrayKind, Body, Expr, IdxExpr, Program, SchedTerm};

/// The paper's Fig. 1(a), with Quant(x) = 0.5x and a 3x3 kernel (same
/// program as the conv2d end-to-end test).
fn conv2d(h: i64, w: i64) -> Program {
    let mut p = Program::new("conv2d").with_param("H", h).with_param("W", w);
    let a = p.add_array("A", vec!["H".into(), "W".into()], ArrayKind::Temp);
    let b = p.add_array("B", vec![3.into(), 3.into()], ArrayKind::Input);
    let c = p.add_array(
        "C",
        vec![("H", -2).into(), ("W", -2).into()],
        ArrayKind::Output,
    );
    let d2 = |d| IdxExpr::dim(2, d);
    let d4 = |d| IdxExpr::dim(4, d);
    p.add_stmt(
        "{ S0[h, w] : 0 <= h < H and 0 <= w < W }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: a,
            target_idx: vec![d2(0), d2(1)],
            rhs: Expr::mul(Expr::load(a, vec![d2(0), d2(1)]), Expr::Const(0.5)),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ S1[h, w] : 0 <= h <= H - 3 and 0 <= w <= W - 3 }",
        vec![
            SchedTerm::Cst(1),
            SchedTerm::Var(0),
            SchedTerm::Var(1),
            SchedTerm::Cst(0),
        ],
        Body {
            target: c,
            target_idx: vec![d2(0), d2(1)],
            rhs: Expr::Const(0.0),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ S2[h, w, kh, kw] : 0 <= h <= H - 3 and 0 <= w <= W - 3 and 0 <= kh <= 2 and 0 <= kw <= 2 }",
        vec![
            SchedTerm::Cst(1),
            SchedTerm::Var(0),
            SchedTerm::Var(1),
            SchedTerm::Cst(1),
            SchedTerm::Var(2),
            SchedTerm::Var(3),
        ],
        Body {
            target: c,
            target_idx: vec![d4(0), d4(1)],
            rhs: Expr::add(
                Expr::load(c, vec![d4(0), d4(1)]),
                Expr::mul(
                    Expr::load(a, vec![d4(0).plus(&d4(2)), d4(1).plus(&d4(3))]),
                    Expr::load(b, vec![d4(2), d4(3)]),
                ),
            ),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ S3[h, w] : 0 <= h <= H - 3 and 0 <= w <= W - 3 }",
        vec![SchedTerm::Cst(2), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: c,
            target_idx: vec![d2(0), d2(1)],
            rhs: Expr::relu(Expr::load(c, vec![d2(0), d2(1)])),
        },
    )
    .unwrap();
    p
}

/// Asserts every buffer of both contexts is bit-identical (f64 bit
/// patterns, not epsilon comparison) and the statistics match exactly.
fn assert_bit_exact(
    program: &Program,
    what: &str,
    interp: &(ExecContext, ExecStats),
    vm: &(ExecContext, ExecStats),
) {
    for a in program.arrays() {
        let bi = interp.0.buffer(a.id()).data();
        let bv = vm.0.buffer(a.id()).data();
        assert_eq!(bi.len(), bv.len(), "{what}: {} length", a.name());
        for (i, (x, y)) in bi.iter().zip(bv).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: {}[{i}] interp={x:e} vm={y:e}",
                a.name()
            );
        }
    }
    assert_eq!(interp.1, vm.1, "{what}: execution statistics differ");
}

/// Optimizes `program` at `tile`, runs the optimized tree on the
/// interpreter, and checks the VM against it at every thread count:
/// buffers and stats bit-exact each time. Returns the VM's statistics.
fn check_program(program: &Program, tile: &[i64], threads: &[usize]) -> ExecStats {
    let opt = optimize(program, &Options::cpu(tile)).expect("optimize");
    let scopes = &opt.report.scratch_scopes;
    let label = format!("{} tile={tile:?}", program.name());
    let interp = execute_tree(program, &opt.tree, &[], scopes)
        .unwrap_or_else(|e| panic!("{label}: interpreter reference failed: {e}"));
    let compiled = lower_tree(program, &opt.tree, &[], scopes)
        .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
    let mut stats = ExecStats::default();
    for &n in threads {
        let what = format!("{label} threads={n}");
        let vm = execute_compiled(program, &compiled, n)
            .unwrap_or_else(|e| panic!("{what}: VM failed: {e}"));
        assert_bit_exact(program, &what, &interp, &vm);
        stats = vm.1;
    }
    stats
}

#[test]
fn running_example_bit_exact() {
    for tile in [&[2i64, 2][..], &[4, 4][..]] {
        check_program(&conv2d(8, 8), tile, &[1, 2, 4]);
    }
}

/// At 16 px the two pyramids' live-outs are empty, so this runs their
/// (empty) optimized trees only; `pyramids_at_512_bit_exact` executes them.
#[test]
fn polymage_workloads_bit_exact() {
    for w in tilefuse::workloads::polymage::all(16, 16).expect("workloads") {
        for tile in [&[4i64, 4][..], &[8, 8][..]] {
            check_program(&w.program, tile, &[1, 2, 4]);
        }
    }
}

/// The two pyramids at 512 px, the smallest size whose live-out is not
/// empty: their fused producers, pinned instance levels and shared
/// scratch scopes execute here and nowhere else in the test suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~8 s of interpreter reference in a release build, many times that in debug; run with --release"
)]
fn pyramids_at_512_bit_exact() {
    use tilefuse::workloads::polymage::{local_laplacian, multiscale_interpolation};
    for w in [
        multiscale_interpolation(512, 512).expect("workload"),
        local_laplacian(512, 512).expect("workload"),
    ] {
        let stats = check_program(&w.program, &[32, 32], &[1, 2]);
        let executed: u64 = stats.instances.values().sum();
        assert!(
            executed > 0,
            "{}: the VM executed nothing",
            w.program.name()
        );
    }
}
