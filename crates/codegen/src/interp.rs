//! The schedule-tree interpreter: executable semantics for every schedule
//! this repository produces.
//!
//! Both the reference (initial-schedule) execution and the execution of an
//! arbitrary transformed schedule tree run through here, so any
//! transformation — heuristic fusion, tiling, post-tiling fusion with
//! overlapped recomputation — is validated bit-for-bit against the
//! original program semantics.
//!
//! Fused producers write to *tile-local scratch* (the paper's Section V-B
//! aggressive memory optimization): each tile gets a private buffer for
//! the fused array, lazily initialized from the global array — exactly
//! what buffer privatization does in PPCG/AKG. Scratch contents are
//! discarded when execution crosses a tile boundary (a change in the
//! schedule-tuple prefix whose length is the array's *scratch scope*, the
//! depth of the extension node that fused its producer). This gives the
//! right semantics for both in-place producers (`A[h][w] = Quant(A[h][w])`
//! re-reads the pristine global value in every tile) and reductions
//! (`tmp += ...` accumulates in the tile-private buffer).

use crate::error::{Error, Result};
use std::collections::BTreeMap;

use tilefuse_pir::{ArrayId, Program, SchedTerm, StmtId};
use tilefuse_presburger::Scanner;
use tilefuse_schedtree::{flatten, ScheduleTree};

/// A dense multi-dimensional `f64` buffer.
#[derive(Debug, Clone)]
pub struct Buffer {
    shape: Vec<i64>,
    data: Vec<f64>,
}

impl Buffer {
    /// Creates a zero-filled buffer.
    pub fn zeros(shape: Vec<i64>) -> Self {
        let len: i64 = shape.iter().product::<i64>().max(0);
        Buffer {
            shape,
            data: vec![0.0; len as usize],
        }
    }

    /// The buffer's shape.
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// The raw data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data, for the VM backend's flat-arena execution.
    pub(crate) fn data_mut(&mut self) -> &mut Vec<f64> {
        &mut self.data
    }

    fn index(&self, coords: &[i64]) -> Result<usize> {
        if coords.len() != self.shape.len() {
            return Err(Error::Exec(format!(
                "access with {} coords into {}-d buffer",
                coords.len(),
                self.shape.len()
            )));
        }
        let mut idx = 0i64;
        for (c, s) in coords.iter().zip(&self.shape) {
            if *c < 0 || c >= s {
                return Err(Error::Exec(format!(
                    "out-of-bounds access {coords:?} into shape {:?}",
                    self.shape
                )));
            }
            idx = idx * s + c;
        }
        Ok(idx as usize)
    }

    /// Reads one element.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds coordinates.
    pub fn get(&self, coords: &[i64]) -> Result<f64> {
        Ok(self.data[self.index(coords)?])
    }

    /// Writes one element.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds coordinates.
    pub fn set(&mut self, coords: &[i64], v: f64) -> Result<()> {
        let i = self.index(coords)?;
        self.data[i] = v;
        Ok(())
    }
}

/// The state after executing a program: one buffer per array.
#[derive(Debug, Clone)]
pub struct ExecContext {
    buffers: BTreeMap<ArrayId, Buffer>,
}

impl ExecContext {
    /// Allocates buffers for every array of `program` and fills them with
    /// deterministic pseudo-input values (same seed on every call, so a
    /// reference run and a transformed run start identically).
    pub fn initialized(program: &Program, overrides: &[(&str, i64)]) -> Self {
        let values = program.param_values(overrides);
        let bind = make_binding(program, &values);
        let mut buffers = BTreeMap::new();
        for a in program.arrays() {
            let shape = a.shape(&bind);
            let mut buf = Buffer::zeros(shape);
            for (i, v) in buf.data.iter_mut().enumerate() {
                // Small deterministic values; distinct per array.
                let h = (i as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(a.id().0 as u64 * 97);
                *v = ((h % 1000) as f64) / 499.5 - 1.0;
            }
            buffers.insert(a.id(), buf);
        }
        ExecContext { buffers }
    }

    /// The buffer of `array`.
    ///
    /// # Panics
    /// Panics if the array was not allocated.
    pub fn buffer(&self, array: ArrayId) -> &Buffer {
        &self.buffers[&array]
    }

    /// Mutable buffer access, for the VM backend.
    ///
    /// # Panics
    /// Panics if the array was not allocated.
    pub(crate) fn buffer_mut(&mut self, array: ArrayId) -> &mut Buffer {
        self.buffers.get_mut(&array).expect("buffer allocated")
    }

    /// Maximum absolute difference of one array between two contexts.
    ///
    /// # Errors
    /// Returns an error if shapes differ.
    pub fn max_diff(&self, other: &ExecContext, array: ArrayId) -> Result<f64> {
        let a = self.buffer(array);
        let b = other.buffer(array);
        if a.shape != b.shape {
            return Err(Error::Exec("shape mismatch".into()));
        }
        Ok(a.data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max))
    }
}

/// Execution statistics (consumed by the cost models and tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statement instances executed, by statement name (recomputed
    /// instances count every execution).
    pub instances: BTreeMap<String, u64>,
    /// Total array element loads.
    pub loads: u64,
    /// Total array element stores.
    pub stores: u64,
    /// Loads served by tile-local scratch instead of backing memory.
    pub scratch_hits: u64,
}

impl ExecStats {
    /// Total executed instances across statements.
    pub fn total_instances(&self) -> u64 {
        self.instances.values().sum()
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        for (name, n) in &other.instances {
            *self.instances.entry(name.clone()).or_insert(0) += n;
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.scratch_hits += other.scratch_hits;
    }
}

pub(crate) fn make_binding<'a>(
    program: &'a Program,
    values: &'a [i64],
) -> impl Fn(&str) -> i64 + 'a {
    // Undeclared names resolve to 0: every execution entry point runs
    // `Program::validate_params` first, so by the time this closure is
    // consulted all referenced parameters are known to be declared.
    move |name: &str| {
        program
            .params()
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| values[i])
            .unwrap_or(0)
    }
}

/// Executes `program` in its original (initial-schedule) order.
///
/// # Errors
/// Returns an error on unbounded domains or out-of-bounds accesses.
pub fn reference_execute(
    program: &Program,
    overrides: &[(&str, i64)],
) -> Result<(ExecContext, ExecStats)> {
    program.validate_params()?;
    let values = program.param_values(overrides);
    let len = program.sched_len();
    // Collect (schedule tuple, stmt, instance).
    let mut work: Vec<(Vec<i64>, StmtId, Vec<i64>)> = Vec::new();
    for s in program.stmts() {
        let scanner = Scanner::new(s.domain(), &values)?;
        scanner.for_each(&mut |pt: &[i64]| {
            let sched: Vec<i64> = (0..len)
                .map(|k| match s.sched().get(k) {
                    Some(SchedTerm::Cst(c)) => *c,
                    Some(SchedTerm::Var(d)) => pt[*d],
                    None => 0,
                })
                .collect();
            work.push((sched, s.id(), pt.to_vec()));
            true
        })?;
    }
    work.sort();
    let mut ctx = ExecContext::initialized(program, overrides);
    let mut stats = ExecStats::default();
    for (_, stmt, point) in work {
        execute_instance(
            program, &mut ctx, &values, stmt, &point, None, &mut stats, None,
        )?;
    }
    Ok((ctx, stats))
}

/// Executes a transformed schedule tree.
///
/// `scratch_scopes` maps each tile-local array to its *scratch scope*: the
/// schedule-prefix length identifying a tile; the array's scratch is
/// cleared whenever that prefix changes (see module docs). Pass an empty
/// map for schedules without fused producers.
///
/// # Errors
/// Returns an error on unbounded schedules or out-of-bounds accesses.
pub fn execute_tree(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
) -> Result<(ExecContext, ExecStats)> {
    execute_tree_traced(program, tree, overrides, scratch_scopes, &mut |_| {})
}

/// One memory access, as reported to a trace sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The array touched.
    pub array: ArrayId,
    /// Element coordinates.
    pub coords: Vec<i64>,
    /// `true` for stores.
    pub is_write: bool,
    /// Whether the access was served by tile-local scratch.
    pub scratch: bool,
}

/// [`execute_tree`] with a per-access trace sink — feeds the trace-driven
/// cache simulator in `tilefuse-memsim` for cross-validating the analytic
/// model.
///
/// # Errors
/// See [`execute_tree`].
pub fn execute_tree_traced(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
    sink: &mut dyn FnMut(Access),
) -> Result<(ExecContext, ExecStats)> {
    let _span = tilefuse_trace::span!("interp/execute", "{}", program.name());
    program.validate_params()?;
    let values = program.param_values(overrides);
    let entries = flatten(tree)?;
    // Collect (sched tuple, order, stmt, instance) from each entry's
    // schedule graph. The wrapped set enumerates [instance, sched] pairs;
    // recomputation (one instance under several tiles) appears as several
    // pairs.
    let mut work: Vec<(Vec<i64>, usize, StmtId, Vec<i64>)> = Vec::new();
    for (order, e) in entries.iter().enumerate() {
        let stmt = program
            .stmt_named(&e.stmt)
            .ok_or_else(|| Error::Exec(format!("unknown statement {}", e.stmt)))?
            .id();
        let n_inst = e.schedule.space().n_in();
        let graph = e.schedule.intersect_domain(&e.domain)?;
        let scanner = Scanner::new(graph.as_wrapped_set(), &values)?;
        scanner.for_each(&mut |pt: &[i64]| {
            let inst = pt[..n_inst].to_vec();
            let sched = pt[n_inst..].to_vec();
            work.push((sched, order, stmt, inst));
            true
        })?;
    }
    work.sort();
    let mut ctx = ExecContext::initialized(program, overrides);
    let mut stats = ExecStats::default();
    let mut scratch = Scratch::new(scratch_scopes.clone());
    for (sched, _, stmt, point) in work {
        scratch.enter(&sched);
        execute_instance(
            program,
            &mut ctx,
            &values,
            stmt,
            &point,
            Some(&mut scratch),
            &mut stats,
            Some(sink),
        )?;
    }
    Ok((ctx, stats))
}

/// Thread count used wherever a caller passes `0` (the VM and DAG entry
/// points, the bench worker pool, the CPU model): the `TILEFUSE_JOBS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("TILEFUSE_JOBS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Tile-private storage for fused arrays (see module docs).
#[derive(Debug, Default)]
struct Scratch {
    scopes: BTreeMap<ArrayId, usize>,
    values: BTreeMap<(ArrayId, Vec<i64>), f64>,
    last_prefix: BTreeMap<ArrayId, Vec<i64>>,
}

impl Scratch {
    fn new(scopes: BTreeMap<ArrayId, usize>) -> Self {
        Scratch {
            scopes,
            values: BTreeMap::new(),
            last_prefix: BTreeMap::new(),
        }
    }

    /// Called before each instance with its schedule tuple: clears any
    /// array whose tile prefix changed.
    fn enter(&mut self, sched: &[i64]) {
        let mut to_clear = Vec::new();
        for (&arr, &scope) in &self.scopes {
            let prefix = &sched[..scope.min(sched.len())];
            match self.last_prefix.get(&arr) {
                Some(p) if p.as_slice() == prefix => {}
                _ => {
                    to_clear.push(arr);
                    self.last_prefix.insert(arr, prefix.to_vec());
                }
            }
        }
        for arr in to_clear {
            self.values.retain(|(a, _), _| *a != arr);
        }
    }

    fn is_scratch(&self, arr: ArrayId) -> bool {
        self.scopes.contains_key(&arr)
    }

    fn get(&self, arr: ArrayId, coords: &[i64]) -> Option<f64> {
        self.values.get(&(arr, coords.to_vec())).copied()
    }

    fn set(&mut self, arr: ArrayId, coords: Vec<i64>, v: f64) {
        self.values.insert((arr, coords), v);
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_instance(
    program: &Program,
    ctx: &mut ExecContext,
    param_values: &[i64],
    stmt: StmtId,
    point: &[i64],
    scratch: Option<&mut Scratch>,
    stats: &mut ExecStats,
    sink: Option<&mut dyn FnMut(Access)>,
) -> Result<()> {
    let s = program.stmt(stmt);
    let bind = make_binding(program, param_values);
    let body = s.body();
    *stats.instances.entry(s.name().to_owned()).or_insert(0) += 1;
    let own_target = body.target;
    let mut err: Option<Error> = None;
    let scratch = std::cell::RefCell::new(scratch);
    let sink = std::cell::RefCell::new(sink);
    let mut loads = 0u64;
    let mut scratch_hits = 0u64;
    let value = {
        let mut load = |arr: ArrayId, coords: &[i64]| -> f64 {
            loads += 1;
            // Tile-local scratch first (lazily falling back to the global
            // buffer for values the tile has not produced).
            if let Some(sc) = scratch.borrow().as_ref() {
                if sc.is_scratch(arr) {
                    if let Some(v) = sc.get(arr, coords) {
                        scratch_hits += 1;
                        if let Some(f) = sink.borrow_mut().as_mut() {
                            f(Access {
                                array: arr,
                                coords: coords.to_vec(),
                                is_write: false,
                                scratch: true,
                            });
                        }
                        return v;
                    }
                }
            }
            if let Some(f) = sink.borrow_mut().as_mut() {
                f(Access {
                    array: arr,
                    coords: coords.to_vec(),
                    is_write: false,
                    scratch: false,
                });
            }
            let buf = ctx.buffers.get(&arr).ok_or_else(missing_buffer);
            match buf.and_then(|b| b.get(coords)) {
                Ok(v) => v,
                Err(e) => {
                    err = Some(e);
                    0.0
                }
            }
        };
        body.rhs.eval(point, &bind, &mut load)
    };
    stats.loads += loads;
    stats.scratch_hits += scratch_hits;
    if let Some(e) = err {
        return Err(e);
    }
    let coords: Vec<i64> = body
        .target_idx
        .iter()
        .map(|e| e.eval(point, &bind))
        .collect();
    stats.stores += 1;
    let mut scratch = scratch.into_inner();
    let to_scratch = scratch.as_ref().is_some_and(|sc| sc.is_scratch(own_target));
    if let Some(f) = sink.into_inner() {
        f(Access {
            array: own_target,
            coords: coords.clone(),
            is_write: true,
            scratch: to_scratch,
        });
    }
    if to_scratch {
        scratch
            .as_mut()
            .expect("checked above")
            .set(own_target, coords, value);
    } else {
        ctx.buffers
            .get_mut(&own_target)
            .ok_or_else(missing_buffer)?
            .set(&coords, value)?;
    }
    Ok(())
}

fn missing_buffer() -> Error {
    Error::Exec("missing buffer".into())
}

/// Asserts that every `Output` array matches between two contexts.
///
/// # Errors
/// Returns an error naming the first mismatching array.
pub fn check_outputs_match(
    program: &Program,
    reference: &ExecContext,
    transformed: &ExecContext,
    tolerance: f64,
) -> Result<()> {
    for a in program.arrays() {
        if a.kind() != tilefuse_pir::ArrayKind::Output {
            continue;
        }
        let d = reference.max_diff(transformed, a.id())?;
        if d > tolerance {
            return Err(Error::Exec(format!(
                "output array {} differs by {d} (tolerance {tolerance})",
                a.name()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilefuse_pir::{ArrayKind, Body, Expr, IdxExpr};

    fn simple_program() -> Program {
        let mut p = Program::new("t").with_param("N", 8);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec!["N".into()], ArrayKind::Output);
        p.add_stmt(
            "{ S0[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::mul(Expr::Iter(0), Expr::Const(2.0)),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S1[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
            Body {
                target: b,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(Expr::load(a, vec![IdxExpr::dim(1, 0)]), Expr::Const(1.0)),
            },
        )
        .unwrap();
        p
    }

    /// The two parallel executions of a scratch-free tree: its tile DAG,
    /// and the compiled program with its coincident loops cut into pool
    /// tasks.
    fn parallel_runs(
        p: &Program,
        tree: &ScheduleTree,
        threads: usize,
    ) -> [(ExecContext, ExecStats); 2] {
        let none = BTreeMap::new();
        let compiled = crate::lower_tree(p, tree, &[], &none).unwrap();
        [
            crate::execute_tree_dag(p, tree, &[], &none, threads, crate::ExecBackend::Vm).unwrap(),
            crate::execute_compiled(p, &compiled, threads).unwrap(),
        ]
    }

    #[test]
    fn reference_executes_in_order() {
        let p = simple_program();
        let (ctx, stats) = reference_execute(&p, &[]).unwrap();
        let b = ctx.buffer(tilefuse_pir::ArrayId(1));
        for i in 0..8 {
            assert_eq!(b.get(&[i]).unwrap(), (i * 2) as f64 + 1.0);
        }
        assert_eq!(stats.instances["S0"], 8);
        assert_eq!(stats.instances["S1"], 8);
        assert_eq!(stats.stores, 16);
    }

    #[test]
    fn buffer_bounds_checked() {
        let mut b = Buffer::zeros(vec![2, 3]);
        assert!(b.set(&[1, 2], 5.0).is_ok());
        assert_eq!(b.get(&[1, 2]).unwrap(), 5.0);
        assert!(b.get(&[2, 0]).is_err());
        assert!(b.get(&[0]).is_err());
        assert!(b.get(&[-1, 0]).is_err());
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.data().len(), 6);
    }

    #[test]
    fn initialized_is_deterministic() {
        let p = simple_program();
        let a = ExecContext::initialized(&p, &[]);
        let b = ExecContext::initialized(&p, &[]);
        assert_eq!(a.max_diff(&b, tilefuse_pir::ArrayId(0)).unwrap(), 0.0);
    }

    #[test]
    fn param_overrides_resize_buffers() {
        let p = simple_program();
        let ctx = ExecContext::initialized(&p, &[("N", 4)]);
        assert_eq!(ctx.buffer(tilefuse_pir::ArrayId(0)).shape(), &[4]);
    }

    #[test]
    fn execute_tree_matches_reference_for_initial_schedule() {
        let p = simple_program();
        let scheduled =
            tilefuse_scheduler::schedule(&p, tilefuse_scheduler::FusionHeuristic::MinFuse).unwrap();
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let (t, stats) = execute_tree(&p, &scheduled.tree, &[], &Default::default()).unwrap();
        check_outputs_match(&p, &r, &t, 0.0).unwrap();
        assert_eq!(stats.total_instances(), 16);
    }

    #[test]
    fn execute_tree_matches_reference_for_smartfuse() {
        let p = simple_program();
        let scheduled =
            tilefuse_scheduler::schedule(&p, tilefuse_scheduler::FusionHeuristic::SmartFuse)
                .unwrap();
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let (t, _) = execute_tree(&p, &scheduled.tree, &[], &Default::default()).unwrap();
        check_outputs_match(&p, &r, &t, 0.0).unwrap();
    }

    #[test]
    fn parallel_execution_is_bit_identical_across_thread_counts() {
        let p = simple_program();
        for h in [
            tilefuse_scheduler::FusionHeuristic::MinFuse,
            tilefuse_scheduler::FusionHeuristic::SmartFuse,
            tilefuse_scheduler::FusionHeuristic::MaxFuse,
        ] {
            let scheduled = tilefuse_scheduler::schedule(&p, h).unwrap();
            let (seq, seq_stats) =
                execute_tree(&p, &scheduled.tree, &[], &Default::default()).unwrap();
            for threads in [1, 2, 3, 8] {
                for (par, par_stats) in parallel_runs(&p, &scheduled.tree, threads) {
                    for a in p.arrays() {
                        assert_eq!(
                            seq.max_diff(&par, a.id()).unwrap(),
                            0.0,
                            "array {} differs ({h:?}, {threads} threads)",
                            a.name()
                        );
                    }
                    assert_eq!(
                        seq_stats, par_stats,
                        "stats differ ({h:?}, {threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn default_threads_respects_env_override() {
        // Not parallel-safe against other tests mutating the same var, but
        // nothing else in this binary touches TILEFUSE_JOBS.
        std::env::set_var("TILEFUSE_JOBS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("TILEFUSE_JOBS", "not a number");
        assert!(default_threads() >= 1);
        std::env::remove_var("TILEFUSE_JOBS");
        assert!(default_threads() >= 1);
    }

    #[test]
    fn check_outputs_match_detects_difference() {
        let p = simple_program();
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let fresh = ExecContext::initialized(&p, &[]);
        assert!(check_outputs_match(&p, &r, &fresh, 1e-9).is_err());
    }
}
