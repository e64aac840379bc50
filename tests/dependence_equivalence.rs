//! Equivalence of the dependence analysis with its specification.
//!
//! `compute_dependences` visits only the statement pairs that share an
//! array. The specification is the plain walk over *all* statement pairs,
//! written here against the public access and precedence relations: for
//! every `(s, t)` with a non-empty `prec(s, t)`, a flow, output and anti
//! relation through the arrays they touch. Both must return the same
//! `(src, dst, array, kind)` sequence, and equal relations, on the paper's
//! 11 workloads, on hand-built reduction shapes and on generated programs.

use tilefuse::fuzzgen::{build_program, random_spec, Rng, StageKind};
use tilefuse::pir::{
    compute_dependences, ArrayKind, Body, DepKind, Dependence, Expr, IdxExpr, Program, SchedTerm,
    StmtId,
};
use tilefuse::workloads::equake::{equake, EquakeSize};
use tilefuse::workloads::{polybench, polymage, resnet};

/// Every dependence of `program`, from all `n²` statement pairs.
fn all_pairs(program: &Program) -> Vec<Dependence> {
    let mut out = Vec::new();
    let n = program.stmts().len();
    let mut push = |src, dst, array, kind, map: tilefuse::presburger::Map| {
        if !map.is_empty().unwrap() {
            out.push(Dependence {
                src,
                dst,
                array,
                kind,
                map,
            });
        }
    };
    for si in 0..n {
        let s = StmtId(si);
        let w_s = program.write_access(s).unwrap();
        let s_writes = program.stmt(s).body().target;
        for ti in 0..n {
            let t = StmtId(ti);
            let prec = program.prec_map(s, t).unwrap();
            if prec.is_empty().unwrap() {
                continue;
            }
            let t_writes = program.stmt(t).body().target;
            let w_t = program.write_access(t).unwrap();
            if let Some(r_t) = program.read_access_to(t, s_writes).unwrap() {
                let rel = w_s.compose(&r_t.reverse()).unwrap();
                push(s, t, s_writes, DepKind::Flow, rel.intersect(&prec).unwrap());
            }
            if t_writes == s_writes {
                let rel = w_s.compose(&w_t.reverse()).unwrap();
                push(
                    s,
                    t,
                    s_writes,
                    DepKind::Output,
                    rel.intersect(&prec).unwrap(),
                );
            }
            if let Some(r_s) = program.read_access_to(s, t_writes).unwrap() {
                let rel = r_s.compose(&w_t.reverse()).unwrap();
                push(s, t, t_writes, DepKind::Anti, rel.intersect(&prec).unwrap());
            }
        }
    }
    out
}

/// Asserts the analysis equals the specification on `program`, and returns
/// the dependences for coverage counting.
fn assert_equivalent(name: &str, program: &Program) -> Vec<Dependence> {
    let got = compute_dependences(program).unwrap();
    let want = all_pairs(program);
    let key = |d: &Dependence| (d.src, d.dst, d.array, d.kind);
    assert_eq!(
        got.iter().map(key).collect::<Vec<_>>(),
        want.iter().map(key).collect::<Vec<_>>(),
        "{name}: dependence sequence differs"
    );
    for (g, w) in got.iter().zip(&want) {
        assert!(
            g.map.is_equal(&w.map).unwrap(),
            "{name}: {:?} relation differs: {} vs {}",
            key(g),
            g.map,
            w.map
        );
    }
    got
}

/// Counts, over `deps`, which shapes the comparison exercised.
#[derive(Default)]
struct Coverage {
    flow: usize,
    anti: usize,
    output_between_stmts: usize,
    self_deps: usize,
}

impl Coverage {
    fn add(&mut self, deps: &[Dependence]) {
        for d in deps {
            match d.kind {
                DepKind::Flow => self.flow += 1,
                DepKind::Anti => self.anti += 1,
                DepKind::Output if d.src != d.dst => self.output_between_stmts += 1,
                DepKind::Output => {}
            }
            if d.src == d.dst {
                self.self_deps += 1;
            }
        }
    }
}

#[test]
fn candidate_pairs_match_all_pairs_on_the_paper_workloads() {
    let mut workloads = polymage::all(16, 16).unwrap();
    workloads.push(equake(EquakeSize::Test, false).unwrap());
    workloads.push(polybench::two_mm(64).unwrap());
    workloads.push(polybench::gemver(64).unwrap());
    workloads.push(polybench::covariance(64, 64).unwrap());
    workloads.push(resnet::conv_bn_program(&resnet::blocks()[2]).unwrap());
    assert_eq!(workloads.len(), 11);
    let mut cov = Coverage::default();
    for w in &workloads {
        cov.add(&assert_equivalent(w.name, &w.program));
    }
    // Reductions (2mm, covariance, conv+bn, equake) give self-dependences
    // and init/update output dependences between distinct statements.
    assert!(
        cov.flow > 0 && cov.anti > 0,
        "flow {} anti {}",
        cov.flow,
        cov.anti
    );
    assert!(cov.self_deps > 0, "no reduction self-dependence");
    assert!(
        cov.output_between_stmts > 0,
        "no init/update output dependence"
    );
}

/// `init: C[i] = 0; update: C[i] += A[i, k]; scale: A[i, k] = 2 C[i];
/// reset: A[i, k] = 0.5` — a reduction whose accumulator has two writers,
/// then two overwrites of the array it read, so every kind occurs between
/// distinct statements and within one. `reset` touches nothing but `A`:
/// `update → reset` (anti) and `scale → reset` (output) are each found by
/// exactly one of the three candidate rules.
fn reduction_with_overwrite() -> Program {
    let mut p = Program::new("reduce").with_param("N", 6).with_param("K", 4);
    let a = p.add_array("A", vec!["N".into(), "K".into()], ArrayKind::Temp);
    let c = p.add_array("C", vec!["N".into()], ArrayKind::Output);
    p.add_stmt(
        "{ init[i] : 0 <= i < N }",
        vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
        Body {
            target: c,
            target_idx: vec![IdxExpr::dim(1, 0)],
            rhs: Expr::Const(0.0),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ update[i, k] : 0 <= i < N and 0 <= k < K }",
        vec![SchedTerm::Cst(1), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: c,
            target_idx: vec![IdxExpr::dim(2, 0)],
            rhs: Expr::add(
                Expr::load(c, vec![IdxExpr::dim(2, 0)]),
                Expr::load(a, vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1)]),
            ),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ scale[i, k] : 0 <= i < N and 0 <= k < K }",
        vec![SchedTerm::Cst(2), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: a,
            target_idx: vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1)],
            rhs: Expr::mul(Expr::Const(2.0), Expr::load(c, vec![IdxExpr::dim(2, 0)])),
        },
    )
    .unwrap();
    p.add_stmt(
        "{ reset[i, k] : 0 <= i < N and 0 <= k < K }",
        vec![SchedTerm::Cst(3), SchedTerm::Var(0), SchedTerm::Var(1)],
        Body {
            target: a,
            target_idx: vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1)],
            rhs: Expr::Const(0.5),
        },
    )
    .unwrap();
    p
}

#[test]
fn candidate_pairs_match_all_pairs_on_a_reduction() {
    let deps = assert_equivalent("reduce", &reduction_with_overwrite());
    let has = |src: usize, dst: usize, kind| {
        deps.iter()
            .any(|d| d.src == StmtId(src) && d.dst == StmtId(dst) && d.kind == kind)
    };
    assert!(has(0, 1, DepKind::Flow) && has(0, 1, DepKind::Output));
    assert!(has(1, 1, DepKind::Flow) && has(1, 1, DepKind::Anti));
    assert!(has(1, 2, DepKind::Anti) && has(1, 2, DepKind::Flow));
    assert!(has(1, 3, DepKind::Anti) && has(2, 3, DepKind::Output));
}

#[test]
fn candidate_pairs_match_all_pairs_on_generated_programs() {
    let mut shared = 0;
    let mut cov = Coverage::default();
    for seed in 0..200 {
        let spec = random_spec(&mut Rng::new(seed));
        if spec
            .stages
            .iter()
            .any(|s| matches!(s.kind, StageKind::Slice { .. }))
        {
            shared += 1;
        }
        let program = build_program(&spec).unwrap();
        cov.add(&assert_equivalent(&format!("seed {seed}"), &program));
    }
    assert!(shared > 20, "only {shared}/200 shared-intermediate specs");
    assert!(cov.flow > 200, "flow {}", cov.flow);
}
