//! Tile-level task-DAG construction (the paper's inter-tile dependence
//! analysis, lifted to an executable runtime structure).
//!
//! The tiled schedule tree names each tile by its schedule-tuple prefix of
//! length [`TileDag::prefix_len`]. This module projects the program's
//! exact instance-wise dependences onto those prefixes: composing each
//! dependence relation `D` with the truncated schedules `T_src`, `T_dst`
//! yields the tile-pair relation `T_src⁻¹ ∘ D ∘ T_dst`, whose points are
//! precisely the (source tile, destination tile) pairs that must stay
//! ordered. Enumerating that relation (it is bounded: both sides are
//! intersected with the statement domains) materializes a task graph the
//! work-stealing executor in `tilefuse-codegen` runs tiles through.
//!
//! Construction invariants:
//!
//! * **Prefix length.** `prefix_len` is the minimum of the structural end
//!   of the first band on any root-to-leaf path and the smallest scratch
//!   scope. The second bound is what makes scratch-carried dependences
//!   *intra-task*: a task boundary changes the schedule prefix within every
//!   scratch scope, so the sequential interpreter clears scratch there too,
//!   and a per-task fresh scratch reproduces the sequential scratch state
//!   (and `scratch_hits`) exactly. Dependences through scratch arrays are
//!   therefore skipped during edge construction.
//! * **Acyclicity.** Tasks are sorted lexicographically; a legal schedule
//!   orders every dependence source before its destination, so every
//!   inter-tile edge points lexicographically forward. A backward edge is
//!   reported as an [`Error::Internal`] (it would mean the schedule is
//!   illegal), so a well-formed [`TileDag`] is acyclic by construction.
//! * **Exactness.** Edges come from scanning the exact tile-pair relation,
//!   not from its difference-vector hull — cross-group dependences of
//!   multi-resolution pipelines (pyramid downsampling) have tile offsets
//!   that grow with the coordinate, which any constant-offset summary
//!   over-approximates. The per-dependence [`TileDep::offsets`] summaries
//!   *are* difference vectors ([`Map::deltas`]), but they are diagnostic
//!   only.

use std::collections::{BTreeMap, BTreeSet};

use crate::checkpoint;
use crate::error::{Error, Result};
use tilefuse_pir::{compute_dependences, ArrayId, DepKind, Program};
use tilefuse_presburger::Scanner;
use tilefuse_schedtree::{flatten, Node, ScheduleTree};

/// Cap on enumerated offset vectors per dependence summary.
const MAX_SUMMARY_OFFSETS: usize = 8;

/// Diagnostic summary of one instance-wise dependence's inter-tile
/// behaviour: the distinct tile-offset vectors (destination tile minus
/// source tile), capped at 8 (`MAX_SUMMARY_OFFSETS`).
#[derive(Debug, Clone)]
pub struct TileDep {
    /// Source statement name.
    pub src_stmt: String,
    /// Destination statement name.
    pub dst_stmt: String,
    /// The array carrying the dependence.
    pub array: ArrayId,
    /// Flow, anti or output.
    pub kind: DepKind,
    /// Distinct non-zero tile offsets (lexicographically sorted). Constant
    /// stencil dependences produce one or two entries; cross-resolution
    /// dependences may hit the cap.
    pub offsets: Vec<Vec<i64>>,
    /// Whether `offsets` was truncated at the cap.
    pub truncated: bool,
}

/// A materialized tile task graph.
#[derive(Debug, Clone)]
pub struct TileDag {
    /// Length of the schedule-tuple prefix naming a task.
    pub prefix_len: usize,
    /// The task prefixes, sorted lexicographically (sequential execution
    /// order). Index into this vector is the task id used everywhere else.
    pub tasks: Vec<Vec<i64>>,
    /// `succs[t]`: tasks that must wait for `t`, sorted, deduplicated.
    pub succs: Vec<Vec<usize>>,
    /// `n_preds[t]`: number of distinct predecessor tasks of `t`.
    pub n_preds: Vec<usize>,
    /// Per-dependence diagnostic summaries (non-scratch dependences with at
    /// least one inter-tile pair).
    pub deps: Vec<TileDep>,
}

impl TileDag {
    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total number of edges.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Removes one edge (the lexicographically first) and fixes up
    /// `n_preds`. Returns `false` when there is no edge to drop.
    ///
    /// This exists for fault injection only: the oracle's self-test drops
    /// an edge and expects the adversarial executor to produce a state
    /// mismatch, proving the differential check can see missing
    /// dependences.
    pub fn drop_edge(&mut self) -> bool {
        for (src, succ) in self.succs.iter_mut().enumerate() {
            if let Some(&dst) = succ.first() {
                succ.remove(0);
                self.n_preds[dst] -= 1;
                let _s = tilefuse_trace::span!("tiledag/drop-edge", "{src} -> {dst}");
                return true;
            }
        }
        false
    }
}

/// The schedule-prefix length naming a task: the structural end of the
/// first band on any root-to-leaf path (sequence dimensions count),
/// clamped by the smallest scratch scope (see module docs). `0` when the
/// tree has no band — the whole program becomes one task.
#[must_use]
pub fn tile_prefix_len(tree: &ScheduleTree, scratch_scopes: &BTreeMap<ArrayId, usize>) -> usize {
    let structural = first_band_end(tree.root(), 0).unwrap_or(0);
    let min_scope = scratch_scopes.values().copied().min().unwrap_or(usize::MAX);
    structural.min(min_scope)
}

fn first_band_end(node: &Node, depth: usize) -> Option<usize> {
    match node {
        Node::Leaf => None,
        Node::Band { band, .. } => Some(depth + band.n_member()),
        Node::Sequence { children } => children
            .iter()
            .filter_map(|c| first_band_end(c, depth + 1))
            .min(),
        Node::Domain { child, .. }
        | Node::Filter { child, .. }
        | Node::Mark { child, .. }
        | Node::Extension { child, .. } => first_band_end(child, depth),
    }
}

/// Builds the tile task graph for `tree` (see module docs).
///
/// `overrides` are parameter overrides as in the interpreter entry points;
/// the DAG is enumerated for those concrete parameter values.
///
/// # Errors
/// Returns an error on set-operation failure, unbounded enumeration, a
/// backward inter-tile edge (illegal schedule), or governor budget
/// exhaustion.
pub fn build_tile_dag(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
) -> Result<TileDag> {
    let _span = tilefuse_trace::span!("tiledag/build", "{}", program.name());
    let values = program.param_values(overrides);

    checkpoint("tiledag/flatten")?;
    let entries = flatten(tree)?;
    let k = tile_prefix_len(tree, scratch_scopes);

    // Enumerate tasks: the union of truncated-schedule ranges.
    checkpoint("tiledag/tasks")?;
    let mut task_set: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut truncs = Vec::with_capacity(entries.len());
    for e in &entries {
        let t = e.schedule.intersect_domain(&e.domain)?.range_truncate(k)?;
        let scanner = Scanner::new(&t.range()?, &values)?;
        scanner.for_each(&mut |pt: &[i64]| {
            task_set.insert(pt.to_vec());
            true
        })?;
        truncs.push(t);
    }
    let tasks: Vec<Vec<i64>> = task_set.into_iter().collect();
    let index = |prefix: &[i64]| -> Result<usize> {
        tasks
            .binary_search_by(|t| t.as_slice().cmp(prefix))
            .map_err(|_| Error::Internal(format!("tile prefix {prefix:?} not enumerated")))
    };

    // Project each non-scratch dependence onto task prefixes and scan the
    // exact tile-pair relation.
    checkpoint("tiledag/edges")?;
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut summaries: Vec<TileDep> = Vec::new();
    for dep in compute_dependences(program)? {
        if scratch_scopes.contains_key(&dep.array) {
            // Scratch-carried: intra-task by the prefix-length invariant.
            continue;
        }
        let src_name = program.stmt(dep.src).name().to_owned();
        let dst_name = program.stmt(dep.dst).name().to_owned();
        let mut offsets: BTreeSet<Vec<i64>> = BTreeSet::new();
        let mut truncated = false;
        let mut any_inter = false;
        for (se, t_se) in entries.iter().zip(&truncs) {
            if se.stmt != src_name {
                continue;
            }
            for (de, t_de) in entries.iter().zip(&truncs) {
                if de.stmt != dst_name {
                    continue;
                }
                let d = dep
                    .map
                    .intersect_domain(&se.domain)?
                    .intersect_range(&de.domain)?;
                if d.is_empty()? {
                    continue;
                }
                let pairs = t_se.reverse().compose(&d)?.compose(t_de)?;
                let scanner = Scanner::new(pairs.as_wrapped_set(), &values)?;
                let mut scan_err: Option<Error> = None;
                scanner.for_each(&mut |pt: &[i64]| {
                    let (ts, td) = pt.split_at(k);
                    if ts == td {
                        return true;
                    }
                    any_inter = true;
                    if offsets.len() < MAX_SUMMARY_OFFSETS {
                        offsets.insert(td.iter().zip(ts).map(|(a, b)| a - b).collect());
                    } else {
                        truncated = true;
                    }
                    match (index(ts), index(td)) {
                        (Ok(a), Ok(b)) => {
                            if a > b {
                                scan_err = Some(Error::Internal(format!(
                                    "backward inter-tile edge {ts:?} -> {td:?} \
                                     ({src_name} -> {dst_name} via array {:?})",
                                    dep.array
                                )));
                                return false;
                            }
                            edges.insert((a, b));
                            true
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            scan_err = Some(e);
                            false
                        }
                    }
                })?;
                if let Some(e) = scan_err {
                    return Err(e);
                }
            }
        }
        if any_inter {
            summaries.push(TileDep {
                src_stmt: src_name,
                dst_stmt: dst_name,
                array: dep.array,
                kind: dep.kind,
                offsets: offsets.into_iter().collect(),
                truncated,
            });
        }
    }

    let mut succs = vec![Vec::new(); tasks.len()];
    let mut n_preds = vec![0usize; tasks.len()];
    for (a, b) in edges {
        succs[a].push(b);
        n_preds[b] += 1;
    }
    let dag = TileDag {
        prefix_len: k,
        tasks,
        succs,
        n_preds,
        deps: summaries,
    };
    let _built = tilefuse_trace::span!(
        "tiledag/built",
        "{} tasks, {} edges, prefix {}",
        dag.n_tasks(),
        dag.n_edges(),
        dag.prefix_len
    );
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilefuse_pir::{ArrayKind, Body, Expr, IdxExpr, SchedTerm};

    /// `A[t][i] = f(A[t-1][i], A[t-1][i-1], A[t][i-1])`: every dependence
    /// is per-dimension non-negative, so rectangular tiling is legal but
    /// both tile dimensions are serialized — the classic wavefront shape.
    fn upwind_program(t: i64, n: i64) -> Program {
        let mut p = Program::new("upwind").with_param("T", t).with_param("N", n);
        let a = p.add_array(
            "A",
            vec![("T", 1).into(), ("N", 1).into()],
            ArrayKind::Output,
        );
        p.add_stmt(
            "{ S[t, i] : 1 <= t <= T and 1 <= i <= N }",
            vec![SchedTerm::Var(0), SchedTerm::Var(1)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1)],
                rhs: Expr::add(
                    Expr::mul(
                        Expr::load(a, vec![IdxExpr::dim(2, 0).offset(-1), IdxExpr::dim(2, 1)]),
                        Expr::Const(0.5),
                    ),
                    Expr::add(
                        Expr::load(
                            a,
                            vec![IdxExpr::dim(2, 0).offset(-1), IdxExpr::dim(2, 1).offset(-1)],
                        ),
                        Expr::load(a, vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1).offset(-1)]),
                    ),
                ),
            },
        )
        .unwrap();
        p
    }

    fn tiled_tree(p: &Program, tile: i64) -> ScheduleTree {
        use tilefuse_presburger::{Map, Set, UnionMap, UnionSet};
        use tilefuse_schedtree::{band, Band, Node};
        let dom = UnionSet::from_parts(["[T, N] -> { S[t, i] : 1 <= t <= T and 1 <= i <= N }"
            .parse::<Set>()
            .unwrap()])
        .unwrap();
        let tile_map = format!(
            "[T, N] -> {{ S[t, i] -> [ot, oi] : {tile}ot <= t <= {tile}ot + {t1} and \
             {tile}oi <= i <= {tile}oi + {t1} }}",
            t1 = tile - 1
        );
        let point_map = "[T, N] -> { S[t, i] -> [t, i] }";
        let tile_band = Band::new(
            UnionMap::from_parts([tile_map.parse::<Map>().unwrap()]).unwrap(),
            true,
            vec![false, false],
        )
        .unwrap();
        let point_band = Band::new(
            UnionMap::from_parts([point_map.parse::<Map>().unwrap()]).unwrap(),
            true,
            vec![false, false],
        )
        .unwrap();
        let _ = p;
        ScheduleTree::new(dom, band(tile_band, band(point_band, Node::Leaf)))
    }

    #[test]
    fn wavefront_dag_shape() {
        let p = upwind_program(8, 8);
        let tree = tiled_tree(&p, 4);
        let dag = build_tile_dag(&p, &tree, &[], &BTreeMap::new()).unwrap();
        assert_eq!(dag.prefix_len, 2);
        // t, i in 1..=8 with tile 4: ot in {0, 1, 2}, oi in {0, 1, 2}
        // (t = 1..3 in tile 0, 4..7 in tile 1, 8 in tile 2).
        assert_eq!(dag.n_tasks(), 9);
        // Corner tile (0,0) has no predecessors; every other tile waits on
        // its west / south / south-west neighbours that exist.
        let id = |ot: i64, oi: i64| dag.tasks.iter().position(|t| t == &[ot, oi]).unwrap();
        assert_eq!(dag.n_preds[id(0, 0)], 0);
        assert!(dag.succs[id(0, 0)].contains(&id(0, 1)));
        assert!(dag.succs[id(0, 0)].contains(&id(1, 0)));
        assert!(dag.succs[id(0, 0)].contains(&id(1, 1)));
        assert_eq!(dag.n_preds[id(1, 1)], 3);
        // Every edge is lexicographically forward.
        for (src, succ) in dag.succs.iter().enumerate() {
            for &dst in succ {
                assert!(dag.tasks[src] < dag.tasks[dst]);
            }
        }
        // One merged flow dependence through A (every read is of an
        // earlier write, so there are no anti/output pairs); its tile
        // offsets are the three wavefront neighbours.
        assert_eq!(dag.deps.len(), 1);
        let flow = &dag.deps[0];
        assert_eq!(flow.kind, DepKind::Flow);
        assert!(!flow.truncated);
        assert_eq!(flow.offsets, vec![vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn drop_edge_decrements_pred_count() {
        let p = upwind_program(8, 8);
        let tree = tiled_tree(&p, 4);
        let mut dag = build_tile_dag(&p, &tree, &[], &BTreeMap::new()).unwrap();
        let edges = dag.n_edges();
        let preds: usize = dag.n_preds.iter().sum();
        assert!(dag.drop_edge());
        assert_eq!(dag.n_edges(), edges - 1);
        assert_eq!(dag.n_preds.iter().sum::<usize>(), preds - 1);
    }

    #[test]
    fn untiled_tree_has_pointwise_tasks() {
        // Without a tile band the first band *is* the point band: each
        // point becomes a task; the DAG degenerates but stays correct.
        let p = upwind_program(3, 3);
        let sched = crate::schedule(&p, crate::FusionHeuristic::MinFuse).unwrap();
        let dag = build_tile_dag(&p, &sched.tree, &[], &BTreeMap::new()).unwrap();
        assert_eq!(dag.n_tasks(), 9);
        // The serial chain is present: last task has predecessors.
        assert!(dag.n_preds.iter().any(|&n| n > 0));
    }

    #[test]
    fn scratch_scope_bounds_prefix_len() {
        let p = upwind_program(8, 8);
        let tree = tiled_tree(&p, 4);
        let mut scopes = BTreeMap::new();
        scopes.insert(ArrayId(99), 1);
        assert_eq!(tile_prefix_len(&tree, &scopes), 1);
        assert_eq!(tile_prefix_len(&tree, &BTreeMap::new()), 2);
    }
}
