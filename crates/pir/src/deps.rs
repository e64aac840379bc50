//! Dependence analysis: which statement instances must stay ordered.
//!
//! Memory-based dependences are computed by composing access relations
//! through arrays and restricting to pairs ordered by the initial schedule:
//!
//! ```text
//! flow(S → T, A) = (W_S ∘ R_T⁻¹) ∩ prec(S, T)
//! ```
//!
//! Memory-based (rather than value-based/last-writer) dependences are a
//! safe over-approximation; every schedule that respects them is legal.

use crate::error::Result;
use crate::expr::ArrayId;
use crate::program::{Program, StmtId};
use std::collections::hash_map::{Entry, HashMap};
use tilefuse_presburger::Map;

/// The classical dependence kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write (true/producer-consumer dependence).
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
}

/// One dependence relation between two statements through one array.
#[derive(Debug, Clone)]
pub struct Dependence {
    /// Source statement (executes first).
    pub src: StmtId,
    /// Destination statement (executes later).
    pub dst: StmtId,
    /// The array carrying the dependence.
    pub array: ArrayId,
    /// Flow, anti or output.
    pub kind: DepKind,
    /// `{ src[i] -> dst[j] }` pairs that must keep their order.
    pub map: Map,
}

/// Computes all memory-based dependences of `program`.
///
/// The result is memoized on the program (the analysis depends only on its
/// structure), so scheduling the same program repeatedly — e.g. once per
/// fusion heuristic when comparing versions — pays for the presburger work
/// once. Mutating the program invalidates the memo.
///
/// # Errors
/// Returns an error if a set operation fails (overflow).
pub fn compute_dependences(program: &Program) -> Result<Vec<Dependence>> {
    if let Some(memo) = program.deps_memo() {
        return Ok(memo.as_ref().clone());
    }
    let out = compute_dependences_uncached(program)?;
    program.set_deps_memo(std::sync::Arc::new(out.clone()));
    Ok(out)
}

/// Visits only the statement pairs that can carry a dependence — flow
/// `W(A) × R(A)`, output `W(A) × W(A)`, anti `R(A) × W(A)` — found from an
/// integer index of writers and readers per array. Pairs come in `(s, t)`
/// order and kinds in flow/output/anti order, so the result is the one a
/// walk over all statement pairs would give. Each statement's write
/// relation, and each `(statement, array)` read relation, is built once.
fn compute_dependences_uncached(program: &Program) -> Result<Vec<Dependence>> {
    let stmts = program.stmts();
    let mut writers = vec![Vec::new(); program.arrays().len()];
    let mut readers = vec![Vec::new(); program.arrays().len()];
    for (i, st) in stmts.iter().enumerate() {
        writers[st.body().target.0].push(i);
        for (a, _) in st.body().rhs.loads() {
            readers[a.0].push(i);
        }
    }
    let writes = (0..stmts.len())
        .map(|i| program.write_access(StmtId(i)))
        .collect::<Result<Vec<_>>>()?;
    let mut reads = HashMap::new();
    let mut out = Vec::new();
    let mut candidates = Vec::new();
    for (si, st) in stmts.iter().enumerate() {
        let s = StmtId(si);
        let w_s = &writes[si];
        let s_writes = st.body().target;
        candidates.clear();
        candidates.extend(&readers[s_writes.0]);
        candidates.extend(&writers[s_writes.0]);
        for (a, _) in st.body().rhs.loads() {
            candidates.extend(&writers[a.0]);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for &ti in &candidates {
            let t = StmtId(ti);
            let prec = program.prec_map(s, t)?;
            if prec.is_empty()? {
                continue;
            }
            // Flow: s writes A, t reads A.
            if let Some(r_t) = read_of(program, &mut reads, t, s_writes)? {
                let rel = w_s.compose(&r_t.reverse())?.intersect(&prec)?;
                if !rel.is_empty()? {
                    out.push(Dependence {
                        src: s,
                        dst: t,
                        array: s_writes,
                        kind: DepKind::Flow,
                        map: rel,
                    });
                }
            }
            // Output: s writes A, t writes A.
            let t_writes = stmts[ti].body().target;
            if t_writes == s_writes {
                let rel = w_s.compose(&writes[ti].reverse())?.intersect(&prec)?;
                if !rel.is_empty()? {
                    out.push(Dependence {
                        src: s,
                        dst: t,
                        array: s_writes,
                        kind: DepKind::Output,
                        map: rel,
                    });
                }
            }
            // Anti: s reads A, t writes A.
            if let Some(r_s) = read_of(program, &mut reads, s, t_writes)? {
                let rel = r_s.compose(&writes[ti].reverse())?.intersect(&prec)?;
                if !rel.is_empty()? {
                    out.push(Dependence {
                        src: s,
                        dst: t,
                        array: t_writes,
                        kind: DepKind::Anti,
                        map: rel,
                    });
                }
            }
        }
    }
    Ok(out)
}

/// [`Program::read_access_to`], built at most once per `(stmt, arr)`.
fn read_of<'m>(
    program: &Program,
    memo: &'m mut HashMap<(StmtId, ArrayId), Option<Map>>,
    stmt: StmtId,
    arr: ArrayId,
) -> Result<Option<&'m Map>> {
    let m = match memo.entry((stmt, arr)) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(program.read_access_to(stmt, arr)?),
    };
    Ok(m.as_ref())
}

/// Filters dependences to producer→consumer (flow) edges between *distinct*
/// statements — the edges that matter for fusion grouping.
pub fn flow_edges(deps: &[Dependence]) -> Vec<&Dependence> {
    deps.iter()
        .filter(|d| d.kind == DepKind::Flow && d.src != d.dst)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Body, Expr, IdxExpr};
    use crate::program::{ArrayKind, SchedTerm};

    /// S0: A[i] = i ; S1: B[i] = A[i] + A[i+1]; reduction S2: c[0] += B[i].
    fn pipeline() -> Program {
        let mut p = Program::new("t").with_param("N", 8);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec![("N", -1).into()], ArrayKind::Temp);
        let c = p.add_array("C", vec![1.into()], ArrayKind::Output);
        p.add_stmt(
            "{ S0[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::Iter(0),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S1[i] : 0 <= i < N - 1 }",
            vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
            Body {
                target: b,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(
                    Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                    Expr::load(a, vec![IdxExpr::dim(1, 0).offset(1)]),
                ),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S2[i] : 0 <= i < N - 1 }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: c,
                target_idx: vec![IdxExpr::constant(1, 0)],
                rhs: Expr::add(
                    Expr::load(c, vec![IdxExpr::constant(1, 0)]),
                    Expr::load(b, vec![IdxExpr::dim(1, 0)]),
                ),
            },
        )
        .unwrap();
        p
    }

    #[test]
    fn flow_dependences_found() {
        let p = pipeline();
        let deps = compute_dependences(&p).unwrap();
        let flows: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| (d.src.0, d.dst.0))
            .collect();
        assert!(flows.contains(&(0, 1)), "S0 -> S1 missing: {flows:?}");
        assert!(flows.contains(&(1, 2)), "S1 -> S2 missing: {flows:?}");
        // Reduction: S2 depends on itself through C.
        assert!(flows.contains(&(2, 2)), "S2 -> S2 missing: {flows:?}");
    }

    #[test]
    fn flow_relation_pairs_are_exact() {
        let p = pipeline();
        let deps = compute_dependences(&p).unwrap();
        let d01 = deps
            .iter()
            .find(|d| d.kind == DepKind::Flow && d.src == StmtId(0) && d.dst == StmtId(1))
            .unwrap();
        // S1[i] reads A[i] and A[i+1], produced by S0[i] and S0[i+1].
        // N = 8: S0[3] -> S1[3] (A[3]) and S0[3] -> S1[2] (A[3]).
        assert!(d01.map.contains_pair(&[8, 3, 3]).unwrap());
        assert!(d01.map.contains_pair(&[8, 3, 2]).unwrap());
        assert!(!d01.map.contains_pair(&[8, 3, 4]).unwrap());
    }

    #[test]
    fn output_dependence_on_reduction() {
        let p = pipeline();
        let deps = compute_dependences(&p).unwrap();
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Output && d.src == StmtId(2) && d.dst == StmtId(2)));
        // Anti dependence S2 -> S2 as well (reads then writes C[0]).
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Anti && d.src == StmtId(2) && d.dst == StmtId(2)));
    }

    #[test]
    fn no_spurious_backward_dependences() {
        let p = pipeline();
        let deps = compute_dependences(&p).unwrap();
        assert!(!deps.iter().any(|d| d.src.0 > d.dst.0), "{:?}", deps.len());
    }

    #[test]
    fn deps_memo_is_invalidated_by_mutation() {
        let mut p = pipeline();
        let before = compute_dependences(&p).unwrap();
        // Memoized: same structure, same answer.
        let again = compute_dependences(&p).unwrap();
        assert_eq!(before.len(), again.len());
        // Appending a consumer of B must surface new dependences.
        let b = p.array_named("B").unwrap().id();
        let d = p.add_array("D", vec![("N", -1).into()], ArrayKind::Output);
        p.add_stmt(
            "{ S3[i] : 0 <= i < N - 1 }",
            vec![SchedTerm::Cst(3), SchedTerm::Var(0)],
            Body {
                target: d,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::load(b, vec![IdxExpr::dim(1, 0)]),
            },
        )
        .unwrap();
        let after = compute_dependences(&p).unwrap();
        assert!(
            after.len() > before.len(),
            "{} vs {}",
            after.len(),
            before.len()
        );
        assert!(after
            .iter()
            .any(|dep| dep.kind == DepKind::Flow && dep.src == StmtId(1) && dep.dst == StmtId(3)));
    }

    #[test]
    fn flow_edges_filters() {
        let p = pipeline();
        let deps = compute_dependences(&p).unwrap();
        let edges = flow_edges(&deps);
        assert!(edges
            .iter()
            .all(|d| d.kind == DepKind::Flow && d.src != d.dst));
        assert_eq!(edges.len(), 2);
    }
}
