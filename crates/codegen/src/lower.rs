//! Lowering: optimized schedule tree → bytecode.
//!
//! The pass reproduces the interpreter's execution order *by construction*
//! instead of by sorting: every flattened entry's schedule graph is viewed
//! as a loop nest over `[schedule dims, instance dims]` (the reverse of the
//! wrapped set the interpreter scans), the per-level Fourier–Motzkin bounds
//! from the [`Scanner`] become compiled guard rows with parameters folded
//! in, and the entries' disjunct *streams* are merged into one shared loop
//! nest: schedule dimensions that are compile-time constants become
//! [`Inst::SetDim`] partitions emitted in ascending order, everything else
//! becomes a merged [`Inst::LoopOpen`] whose per-stream guards keep each
//! stream's activity in sync while the union range is walked ascending.
//! Either way the VM visits schedule tuples in exactly the lexicographic
//! `(sched, entry order, instance)` order the interpreter's global sort
//! produces.
//!
//! Invariants the pass maintains (checked by the differential tests and
//! the fuzz oracle's VM check):
//!
//! 1. **Order** — loops iterate ascending, static partitions are emitted
//!    ascending, fibers run in flattened-entry order: the instance
//!    sequence equals the interpreter's sorted work list.
//! 2. **Exactness** — for div-free streams the per-level bounds are exact
//!    (see [`Scanner::branch_exact`]) once branches that are empty under
//!    the concrete parameters are dropped (their emptiness lives in
//!    pure-parameter rows no loop level ever checks); streams with
//!    existential divs carry the exact [`BasicSet`] for a per-point
//!    membership test.
//! 3. **Scratch** — a clear is attached to every loop increment (and
//!    emitted between static partitions) at depth `d` for each scratch
//!    buffer of scope `> d`: exactly the set the interpreter clears when
//!    consecutive schedule tuples first differ at `d`. Every buffer of a
//!    scope is in the list or none is, so the VM advances one epoch per
//!    distinct scope of the list.
//! 4. **Parallelism** — a loop is marked parallel iff `parallel_depths`
//!    holds at its depth (all entries coincident, all scratch scopes
//!    deeper); such dimensions are never turned into static partitions, so
//!    `execute_compiled` can cut their iterations into pool tasks.
//! 5. **Pins** — an instance level is [`InstLevel::Pinned`] at `f` iff
//!    some affine `f` of coefficient 1 gives `x >= f` in every lower group
//!    and `x <= f` in every upper group; the VM then sets `x = f` instead
//!    of evaluating a range that holds `f` or nothing. A single-group
//!    level holds `f` iff each of its other rows holds with `f`
//!    substituted, so those rows become the level's `check`, except two
//!    kinds that already hold: a row that folds to a true constant, and a
//!    row identical to one of the stream's own single-group schedule-level
//!    rows — the enclosing loop guard, fused range or static partition
//!    checked that row while the stream was active, and every member of a
//!    fiber walk group has the same `check`, so whichever member is active
//!    held it. This holds with or without an exact filter, so the walk
//!    descends exactly where the range was non-empty and never meets a
//!    deeper level the range walk would not have reached (a deeper
//!    unbounded level would raise an error the range walk never raised).
//!    A multi-group level (a union box) lies inside `{f}`; it is
//!    pinned with an empty `check` only when the stream carries its exact
//!    filter, which rejects `f` exactly where the empty box used to skip
//!    (a member point satisfies every row of its own disjunct). Without a
//!    filter it stays a range.
//!
//! [`Scanner`]: tilefuse_presburger::Scanner
//! [`BasicSet`]: tilefuse_presburger::BasicSet
//! [`Inst::SetDim`]: crate::bytecode::Inst::SetDim
//! [`Inst::LoopOpen`]: crate::bytecode::Inst::LoopOpen
//! [`InstLevel::Pinned`]: crate::bytecode::InstLevel::Pinned

use std::collections::{BTreeMap, BTreeSet};

use crate::bytecode::{
    BodyOp, BufMeta, CAccess, CAffine, CBound, CDisjunct, CFilter, CLevel, CompiledBody,
    CompiledProgram, FiberMeta, FusedMeta, Inst, InstLevel, KernelKind, LoopMeta, ScratchMeta,
    StreamGuard, StreamMeta,
};
use crate::error::{Error, Result};
use crate::interp::make_binding;
use tilefuse_pir::{ArrayId, Expr, IdxExpr, Program};
use tilefuse_presburger::{BasicSet, LoopBounds, Scanner};
use tilefuse_schedtree::{flatten, FlatEntry, ScheduleTree};

/// `ceil(n / d)` for `d > 0` (mirrors the scanner's bound evaluation).
pub(crate) fn cdiv(n: i64, d: i64) -> i64 {
    let q = n / d;
    if n % d != 0 && (n < 0) == (d < 0) {
        q + 1
    } else {
        q
    }
}

/// `floor(n / d)` for `d > 0` (mirrors the scanner's bound evaluation).
pub(crate) fn fdiv(n: i64, d: i64) -> i64 {
    let q = n / d;
    if n % d != 0 && (n < 0) != (d < 0) {
        q - 1
    } else {
        q
    }
}

/// Folds a row `[params | dims | const]` into register terms and a
/// constant with the parameter contribution substituted.
fn caffine_row(row: &[i64], n_param: usize, values: &[i64]) -> CAffine {
    let mut constant = row[row.len() - 1];
    for (c, v) in row[..n_param].iter().zip(values) {
        constant += c * v;
    }
    let terms = row[n_param..row.len() - 1]
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(j, &c)| (j, c))
        .collect();
    CAffine { terms, constant }
}

/// Folds a scanner bound row into a [`CBound`].
fn cbound(coeff: i64, row: &[i64], n_param: usize, values: &[i64]) -> CBound {
    let CAffine { terms, constant } = caffine_row(row, n_param, values);
    CBound {
        coeff,
        terms,
        constant,
    }
}

/// Compiles the disjuncts of a stream's exact set (over `[params | sched |
/// inst]`) into its runtime filter. A div-free disjunct becomes rows over
/// the register file: rows the parameters decide are dropped (they hold,
/// or `empty_under_params` has dropped the disjunct), and disjuncts that
/// fold to the same rows collapse. A disjunct with divs keeps its set.
fn cfilter<'a>(
    basics: impl IntoIterator<Item = &'a BasicSet>,
    n_param: usize,
    values: &[i64],
) -> CFilter {
    let compile = |rows: &[Vec<i64>]| {
        let mut out: Vec<CAffine> = rows
            .iter()
            .map(|r| caffine_row(r, n_param, values))
            .filter(|r| !r.terms.is_empty())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let mut rows = Vec::new();
    let mut divs = Vec::new();
    for b in basics {
        if empty_under_params(b, values) {
            continue;
        }
        if b.n_div() > 0 {
            divs.push(b.clone());
        } else {
            rows.push(CDisjunct {
                eqs: compile(b.eq_rows()),
                ineqs: compile(b.ineq_rows()),
            });
        }
    }
    rows.sort_unstable();
    rows.dedup();
    CFilter { rows, divs }
}

fn clevel(lb: &LoopBounds, n_param: usize, values: &[i64]) -> CLevel {
    // Canonicalize: `max(lowers)` / `min(uppers)` are order-insensitive
    // multiset reductions, so sorting and deduplicating changes nothing
    // semantically but lets identical FM branches collapse into one
    // stream (case-split disjuncts often fold to a handful of distinct
    // bound sets after parameter substitution).
    let mut lowers: Vec<CBound> = lb
        .lowers
        .iter()
        .map(|(a, r)| cbound(*a, r, n_param, values))
        .collect();
    let mut uppers: Vec<CBound> = lb
        .uppers
        .iter()
        .map(|(b, r)| cbound(*b, r, n_param, values))
        .collect();
    lowers.sort_unstable();
    lowers.dedup();
    uppers.sort_unstable();
    uppers.dedup();
    CLevel {
        lowers: if lowers.is_empty() {
            Vec::new()
        } else {
            vec![lowers]
        },
        uppers: if uppers.is_empty() {
            Vec::new()
        } else {
            vec![uppers]
        },
    }
}

/// Whether the level has both a lower and an upper bound (a union-box
/// merge needs every contributing disjunct bounded on every level, or the
/// box itself would be unbounded where some disjuncts are fine).
fn level_bounded(level: &CLevel) -> bool {
    !level.lowers.is_empty() && !level.uppers.is_empty()
}

/// The union box of several single-stream levels: each stream's bound
/// rows become one alternative group (deduplicated), so the merged level
/// covers the union of the per-stream ranges at every outer point.
fn merge_levels<'a>(levels: impl Iterator<Item = &'a CLevel>) -> CLevel {
    let mut lowers: BTreeSet<Vec<CBound>> = BTreeSet::new();
    let mut uppers: BTreeSet<Vec<CBound>> = BTreeSet::new();
    for l in levels {
        lowers.extend(l.lowers.iter().cloned());
        uppers.extend(l.uppers.iter().cloned());
    }
    CLevel {
        lowers: lowers.into_iter().collect(),
        uppers: uppers.into_iter().collect(),
    }
}

/// What a stream's compiled bounds say about one schedule dimension.
enum LevelShape {
    /// Pinned to a single compile-time constant.
    Pinned(i64),
    /// Provably empty under the concrete parameters.
    Empty,
    /// A runtime range (or dependent on outer dimensions).
    Dynamic,
}

fn level_shape(level: &CLevel) -> LevelShape {
    if !level_bounded(level) {
        return LevelShape::Dynamic; // unbounded: leave for the runtime check
    }
    if level
        .lowers
        .iter()
        .chain(&level.uppers)
        .flatten()
        .any(|b| !b.terms.is_empty())
    {
        return LevelShape::Dynamic;
    }
    let (Some(lo), Some(hi)) = (level.lo(&[]), level.hi(&[])) else {
        return LevelShape::Dynamic;
    };
    if lo > hi {
        LevelShape::Empty
    } else if lo == hi {
        LevelShape::Pinned(lo)
    } else {
        LevelShape::Dynamic
    }
}

/// A bound row on `x` with the pin `at` substituted, as a `row >= 0`
/// constraint: a lower bound `coeff·x >= -eval` gives `eval + coeff·at`,
/// an upper bound `coeff·x <= eval` gives `eval - coeff·at`. Terms come
/// out in register order without zero coefficients, the canonical form of
/// [`caffine_row`], which [`held_by_guard`] relies on.
fn bound_row(b: &CBound, lower: bool, at: &CAffine) -> CAffine {
    let k = if lower { b.coeff } else { -b.coeff };
    let mut terms: Vec<(usize, i64)> = b
        .terms
        .iter()
        .copied()
        .chain(at.terms.iter().map(|&(r, c)| (r, k * c)))
        .collect();
    terms.sort_unstable_by_key(|&(r, _)| r);
    terms.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    terms.retain(|&(_, c)| c != 0);
    CAffine {
        terms,
        constant: b.constant + k * at.constant,
    }
}

/// The affine `f` that every group of `level` pins the dimension to:
/// each lower group holds `x >= f` and each upper group `x <= f`, both
/// with coefficient 1. The search is over the pins common to all groups,
/// not over the first pin of each.
fn common_pin(level: &CLevel) -> Option<CAffine> {
    if level.lowers.is_empty() {
        return None;
    }
    let first = level.uppers.first()?;
    first.iter().filter(|up| up.coeff == 1).find_map(|up| {
        let lo = CBound {
            coeff: 1,
            terms: up.terms.iter().map(|&(r, c)| (r, -c)).collect(),
            constant: -up.constant,
        };
        let common = level.uppers.iter().all(|g| g.contains(up))
            && level.lowers.iter().all(|g| g.contains(&lo));
        common.then(|| CAffine {
            terms: up.terms.clone(),
            constant: up.constant,
        })
    })
}

/// Whether `row >= 0` is one of the rows of the stream's single-group
/// schedule levels, which the enclosing loop guard, fused range or static
/// partition checked while the stream was active (invariant 5). A row of
/// level `d` is `eval ± coeff·d` with `eval` over outer registers only,
/// so `d` is its last register and the rest is the bound's own `eval`.
fn held_by_guard(row: &CAffine, sched: &[CLevel]) -> bool {
    let Some((&(d, c), eval)) = row.terms.split_last() else {
        return false;
    };
    let Some(([lowers], [uppers])) = sched.get(d).map(|l| (&l.lowers[..], &l.uppers[..])) else {
        return false;
    };
    let group = if c > 0 { lowers } else { uppers };
    group
        .iter()
        .any(|b| b.coeff == c.abs() && b.terms == eval && b.constant == row.constant)
}

/// Resolves one instance level by the pin rule (invariant 5). A pinned
/// single-group level keeps, as `check`, every other row with the pin
/// substituted, except rows that fold to a true constant or that a
/// schedule level of `sched` (the stream's own) holds. A pinned union box
/// is a subset of the pin, so a stream with a `filtered` leaf needs no
/// check; without a filter it stays a range.
fn inst_level(level: CLevel, sched: &[CLevel], filtered: bool) -> InstLevel {
    let Some(at) = common_pin(&level) else {
        return InstLevel::Range(level);
    };
    let ([lowers], [uppers]) = (&level.lowers[..], &level.uppers[..]) else {
        return if filtered {
            InstLevel::Pinned {
                at,
                check: Vec::new(),
            }
        } else {
            InstLevel::Range(level)
        };
    };
    let mut check: Vec<CAffine> = lowers
        .iter()
        .map(|b| bound_row(b, true, &at))
        .chain(uppers.iter().map(|b| bound_row(b, false, &at)))
        .filter(|r| !(held_by_guard(r, sched) || r.terms.is_empty() && r.constant >= 0))
        .collect();
    check.sort_unstable();
    check.dedup();
    InstLevel::Pinned { at, check }
}

/// A stream's program-level form: its instance levels resolved against
/// its own schedule levels.
fn stream_meta(
    entry: usize,
    sched: &[CLevel],
    inst: Vec<CLevel>,
    exact: Option<CFilter>,
) -> StreamMeta {
    StreamMeta {
        entry,
        inst_levels: inst
            .into_iter()
            .map(|l| inst_level(l, sched, exact.is_some()))
            .collect(),
        exact,
    }
}

/// One scannable disjunct during lowering: the program-level
/// [`StreamMeta`] plus the schedule-dim levels that become loop guards.
struct LStream {
    sched: Vec<CLevel>,
}

struct Emitter<'a> {
    n_sched: usize,
    par_ok: &'a [bool],
    lstreams: &'a [LStream],
    streams: &'a [StreamMeta],
    /// Body index per entry.
    entry_body: &'a [usize],
    /// Scratch indices by scope, for clear sets.
    scratch_scopes: Vec<usize>,
    insts: Vec<Inst>,
    partition_end: BTreeMap<usize, usize>,
    loops: Vec<LoopMeta>,
    fused: Vec<FusedMeta>,
    fibers: Vec<FiberMeta>,
    bodies: &'a [CompiledBody],
}

impl Emitter<'_> {
    /// Scratch buffers cleared when the schedule prefix changes at `d`.
    fn clears_at(&self, d: usize) -> Vec<usize> {
        self.scratch_scopes
            .iter()
            .enumerate()
            .filter(|&(_, &scope)| scope > d)
            .map(|(i, _)| i)
            .collect()
    }

    /// Static partition: every live stream pins dimension `d` to a
    /// constant. Returns the groups in ascending dimension value.
    fn try_static(&self, streams: &[usize], d: usize) -> Option<Vec<(i64, Vec<usize>)>> {
        let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for &s in streams {
            match level_shape(&self.lstreams[s].sched[d]) {
                LevelShape::Pinned(v) => groups.entry(v).or_default().push(s),
                LevelShape::Empty => {}
                LevelShape::Dynamic => return None,
            }
        }
        Some(groups.into_iter().collect())
    }

    fn make_fiber(&mut self, entry: usize, streams: Vec<usize>) -> usize {
        let n_inst = self.streams[streams[0]].inst_levels.len();
        // Partition into walk groups: streams whose instance-level bounds
        // and exact test coincide enumerate the same box at every point.
        let mut by_key: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for &s in &streams {
            let sm = &self.streams[s];
            let exact = sm.exact.as_ref().map(|f| {
                let divs: Vec<_> = f.divs.iter().map(basic_rows).collect();
                (f.rows.as_slice(), divs)
            });
            by_key
                .entry((sm.inst_levels.as_slice(), exact))
                .or_default()
                .push(s);
        }
        let groups = by_key.into_values().collect();
        self.fibers.push(FiberMeta {
            entry,
            streams,
            groups,
            body: self.entry_body[entry],
            n_inst,
        });
        self.fibers.len() - 1
    }

    /// Innermost-loop specialization: a single stream whose deeper
    /// schedule dims are all pinned constants, with no scratch cleared at
    /// or below this depth. (An exact membership test is fine: the fiber
    /// walk filters phantom points at the leaf either way.)
    fn try_fused(&mut self, streams: &[usize], d: usize) -> bool {
        if streams.len() != 1 {
            return false;
        }
        let s = streams[0];
        if !self.clears_at(d).is_empty() {
            return false;
        }
        let mut pins = Vec::new();
        for dd in d + 1..self.n_sched {
            match level_shape(&self.lstreams[s].sched[dd]) {
                LevelShape::Pinned(v) => pins.push((dd, v)),
                _ => return false,
            }
        }
        let level = self.lstreams[s].sched[d].clone();
        let kind = self.classify(s);
        let fiber = self.make_fiber(self.streams[s].entry, vec![s]);
        self.fused.push(FusedMeta {
            dim: d,
            parallel: self.par_ok.get(d).copied().unwrap_or(false),
            level,
            pins,
            fiber,
            kind,
        });
        self.insts.push(Inst::Fused(self.fused.len() - 1));
        true
    }

    fn classify(&self, s: usize) -> KernelKind {
        let pinned = |l: &InstLevel| matches!(l, InstLevel::Pinned { .. });
        if !self.streams[s].inst_levels.iter().all(pinned) {
            return KernelKind::Combine;
        }
        let body = &self.bodies[self.entry_body[self.streams[s].entry]];
        let translation_of_store = |acc: &CAccess| {
            acc.coords.len() == body.store.coords.len()
                && acc
                    .coords
                    .iter()
                    .zip(&body.store.coords)
                    .all(|(a, b)| a.terms == b.terms && a.constant == b.constant)
        };
        if body.accesses.iter().all(translation_of_store) {
            KernelKind::Point
        } else {
            KernelKind::Stencil
        }
    }

    fn emit(&mut self, streams: &[usize], d: usize) {
        if streams.is_empty() {
            return;
        }
        if d == self.n_sched {
            // Leaf: one fiber per entry, in flattened-entry order.
            let mut by_entry: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &s in streams {
                by_entry.entry(self.streams[s].entry).or_default().push(s);
            }
            for (entry, ss) in by_entry {
                let f = self.make_fiber(entry, ss);
                self.insts.push(Inst::Fiber(f));
            }
            return;
        }
        let parallel = self.par_ok.get(d).copied().unwrap_or(false);
        // Static partitions would serialize a parallel dimension, so only
        // consider them where no tasks can be cut.
        if !parallel {
            if let Some(groups) = self.try_static(streams, d) {
                let clears = self.clears_at(d);
                for (gi, (value, group)) in groups.iter().enumerate() {
                    if gi > 0 && !clears.is_empty() {
                        self.insts.push(Inst::Clear(clears.clone()));
                    }
                    let set_ip = self.insts.len();
                    self.insts.push(Inst::SetDim {
                        dim: d,
                        value: *value,
                    });
                    self.emit(group, d + 1);
                    self.partition_end.insert(set_ip, self.insts.len());
                }
                return;
            }
        }
        if self.try_fused(streams, d) {
            return;
        }
        let guards = streams
            .iter()
            .map(|&s| StreamGuard {
                stream: s,
                level: self.lstreams[s].sched[d].clone(),
            })
            .collect();
        let l = self.loops.len();
        self.loops.push(LoopMeta {
            dim: d,
            parallel,
            open_ip: 0,
            close_ip: 0,
            guards,
            clears: self.clears_at(d),
        });
        let open_ip = self.insts.len();
        self.insts.push(Inst::LoopOpen(l));
        self.emit(streams, d + 1);
        let close_ip = self.insts.len();
        self.insts.push(Inst::LoopClose(l));
        self.loops[l].open_ip = open_ip;
        self.loops[l].close_ip = close_ip;
    }
}

fn caffine(e: &IdxExpr, n_sched: usize, program: &Program, values: &[i64]) -> CAffine {
    let bind = make_binding(program, values);
    let mut constant = e.constant_term();
    for (n, c) in e.param_terms() {
        constant += c * bind(n);
    }
    let terms = (0..e.n_dims())
        .filter(|&d| e.dim_coeff(d) != 0)
        .map(|d| (n_sched + d, e.dim_coeff(d)))
        .collect();
    CAffine { terms, constant }
}

/// Compiles one statement body to register form, emitting ops in the
/// interpreter's left-to-right evaluation order so loads, errors and
/// floating-point rounding replay identically.
fn compile_body(
    program: &Program,
    stmt_idx: usize,
    body: &tilefuse_pir::Body,
    n_sched: usize,
    values: &[i64],
    buf_of: &BTreeMap<ArrayId, usize>,
) -> CompiledBody {
    let mut ops = Vec::new();
    let mut accesses = Vec::new();
    let mut next_reg = 0usize;
    let result = compile_expr(
        &body.rhs,
        program,
        n_sched,
        values,
        buf_of,
        &mut ops,
        &mut accesses,
        &mut next_reg,
    );
    let store = CAccess {
        buf: buf_of[&body.target],
        coords: body
            .target_idx
            .iter()
            .map(|e| caffine(e, n_sched, program, values))
            .collect(),
    };
    CompiledBody {
        stmt: stmt_idx,
        ops,
        accesses,
        store,
        result,
        n_regs: next_reg.max(1),
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_expr(
    e: &Expr,
    program: &Program,
    n_sched: usize,
    values: &[i64],
    buf_of: &BTreeMap<ArrayId, usize>,
    ops: &mut Vec<BodyOp>,
    accesses: &mut Vec<CAccess>,
    next_reg: &mut usize,
) -> usize {
    fn alloc(next_reg: &mut usize) -> usize {
        let r = *next_reg;
        *next_reg += 1;
        r
    }
    match e {
        Expr::Const(v) => {
            let dst = alloc(next_reg);
            ops.push(BodyOp::Const { dst, v: *v });
            dst
        }
        Expr::Iter(d) => {
            let dst = alloc(next_reg);
            ops.push(BodyOp::Iter {
                dst,
                reg: n_sched + d,
            });
            dst
        }
        Expr::Load(arr, idx) => {
            let acc = accesses.len();
            accesses.push(CAccess {
                buf: buf_of[arr],
                coords: idx
                    .iter()
                    .map(|i| caffine(i, n_sched, program, values))
                    .collect(),
            });
            let dst = alloc(next_reg);
            ops.push(BodyOp::Load { dst, acc });
            dst
        }
        Expr::Bin(op, l, r) => {
            let a = compile_expr(l, program, n_sched, values, buf_of, ops, accesses, next_reg);
            let b = compile_expr(r, program, n_sched, values, buf_of, ops, accesses, next_reg);
            let dst = alloc(next_reg);
            ops.push(BodyOp::Bin { op: *op, dst, a, b });
            dst
        }
        Expr::Un(op, x) => {
            let a = compile_expr(x, program, n_sched, values, buf_of, ops, accesses, next_reg);
            let dst = alloc(next_reg);
            ops.push(BodyOp::Un { op: *op, dst, a });
            dst
        }
    }
}

/// A basic set's rows: what tells two disjuncts of one space apart.
fn basic_rows(b: &BasicSet) -> (&[Vec<i64>], &[Vec<i64>]) {
    (b.eq_rows(), b.ineq_rows())
}

/// Whether a branch is empty under the concrete parameter values because
/// of constraints that involve no set dimension and no div — rows no loop
/// level ever records, which the interpreter only catches through its leaf
/// membership test.
fn empty_under_params(b: &BasicSet, values: &[i64]) -> bool {
    let n_param = b.space().n_param();
    let n_var = b.space().n_dim() + b.n_div();
    let pure = |r: &[i64]| r[n_param..n_param + n_var].iter().all(|&c| c == 0);
    let eval = |r: &[i64]| {
        r[..n_param]
            .iter()
            .zip(values)
            .map(|(c, v)| c * v)
            .sum::<i64>()
            + r[r.len() - 1]
    };
    b.ineq_rows().iter().any(|r| pure(r) && eval(r) < 0)
        || b.eq_rows().iter().any(|r| pure(r) && eval(r) != 0)
}

/// Parallelizable depths, as the bytecode lowering marks them for
/// [`crate::execute_compiled`]: a depth `d` may be cut into tasks iff
/// every entry that actually *iterates* it (`d < e.sched_len`) marks it
/// coincident, and no scratch region's scope spans chunks at that depth.
///
/// Entries padded at `d` are neutral, not vetoes: their padded dimensions
/// are constant 0, and two entries whose shared schedule prefix reaches into
/// one entry's padding region necessarily come from the same tree leaf
/// (distinct leaves always diverge at an earlier sequence dimension), so a
/// split at `d` can never separate a padded entry's instances.
fn parallel_depths(entries: &[FlatEntry], scratch_scopes: &BTreeMap<ArrayId, usize>) -> Vec<bool> {
    let sched_len = entries
        .iter()
        .map(|e| e.par_depths.len())
        .max()
        .unwrap_or(0);
    let mut par_ok = vec![true; sched_len];
    for e in entries {
        for (d, ok) in par_ok.iter_mut().enumerate().take(e.sched_len) {
            *ok &= e.par_depths.get(d).copied().unwrap_or(false);
        }
    }
    let min_scope = scratch_scopes.values().copied().min().unwrap_or(usize::MAX);
    for (d, ok) in par_ok.iter_mut().enumerate() {
        *ok &= d < min_scope;
    }
    par_ok
}

/// Lowers an optimized schedule tree to a [`CompiledProgram`] for the
/// concrete parameter binding given by `overrides`.
///
/// `scratch_scopes` is the same map [`crate::execute_tree`] takes: each
/// tile-local array's schedule-prefix length.
///
/// # Errors
/// Returns an error on malformed trees, unknown statements, scanner
/// overflow, or when the resource governor's budget is exhausted.
pub fn lower_tree(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
) -> Result<CompiledProgram> {
    let _span = tilefuse_trace::span!("codegen/lower", "{}", program.name());
    tilefuse_trace::governor::checkpoint("codegen/lower")
        .map_err(|e| Error::Presburger(tilefuse_presburger::Error::from(e)))?;
    program.validate_params()?;
    let values = program.param_values(overrides);
    let entries = {
        let _s = tilefuse_trace::span!("codegen/lower/flatten");
        flatten(tree)?
    };
    let n_sched = entries
        .iter()
        .map(|e| e.schedule.space().n_out())
        .max()
        .unwrap_or(0);

    // Parallelizable depths: every entry iterating the depth coincident,
    // every scratch scope strictly deeper (see `parallel_depths`).
    let par_ok = parallel_depths(&entries, scratch_scopes);

    let bodies_span = tilefuse_trace::span!("codegen/lower/bodies");

    // Buffers, in array-id order.
    let mut bufs = Vec::new();
    let mut buf_of = BTreeMap::new();
    {
        let bind = make_binding(program, &values);
        for a in program.arrays() {
            let shape = a.shape(&bind);
            let len = shape.iter().product::<i64>().max(0) as usize;
            buf_of.insert(a.id(), bufs.len());
            bufs.push(BufMeta {
                array: a.id(),
                name: a.name().to_owned(),
                shape,
                len,
                scratch: None,
            });
        }
    }
    let mut scratch = Vec::new();
    for (&arr, &scope) in scratch_scopes {
        let buf = *buf_of
            .get(&arr)
            .ok_or_else(|| Error::Exec(format!("scratch scope for unknown array {arr:?}")))?;
        bufs[buf].scratch = Some(scratch.len());
        scratch.push(ScratchMeta { buf, scope });
    }

    // Bodies: one per distinct statement, in first-appearance order.
    let mut stmt_names: Vec<String> = Vec::new();
    let mut body_of_stmt: BTreeMap<String, usize> = BTreeMap::new();
    let mut bodies = Vec::new();
    let mut entry_body = Vec::with_capacity(entries.len());
    let mut entry_labels = Vec::with_capacity(entries.len());
    for (order, e) in entries.iter().enumerate() {
        let stmt = program
            .stmt_named(&e.stmt)
            .ok_or_else(|| Error::Exec(format!("unknown statement {}", e.stmt)))?;
        let body = match body_of_stmt.get(&e.stmt) {
            Some(&b) => b,
            None => {
                let idx = stmt_names.len();
                stmt_names.push(e.stmt.clone());
                bodies.push(compile_body(
                    program,
                    idx,
                    stmt.body(),
                    n_sched,
                    &values,
                    &buf_of,
                ));
                body_of_stmt.insert(e.stmt.clone(), bodies.len() - 1);
                bodies.len() - 1
            }
        };
        entry_body.push(body);
        entry_labels.push(format!("{}#{order}", e.stmt));
    }

    drop(bodies_span);

    // Streams: the disjuncts of each entry's schedule graph, scanned as
    // [sched dims, inst dims].
    let scan_span = tilefuse_trace::span!("codegen/lower/scan", "{} entries", entries.len());
    let n_param = program.params().len();
    let mut lstreams = Vec::new();
    let mut streams = Vec::new();
    let mut max_inst = 0usize;
    for (order, e) in entries.iter().enumerate() {
        tilefuse_trace::governor::checkpoint("codegen/lower")
            .map_err(|g| Error::Presburger(tilefuse_presburger::Error::from(g)))?;
        let n_inst = e.schedule.space().n_in();
        max_inst = max_inst.max(n_inst);
        let graph = e.schedule.intersect_domain(&e.domain)?;
        let rev = graph.reverse();
        let ws = rev.as_wrapped_set();
        let scanner = Scanner::new(ws, &values)?;
        // The FM real-shadow case splits can produce branches whose
        // compiled bounds are identical after parameter substitution; a
        // stream enumerates the same point set as any bound-identical
        // sibling (and the fiber deduplicates instances anyway), so keep
        // one representative per distinct triple.
        let mut seen = BTreeSet::new();
        let mut e_lstreams = Vec::new();
        // Per stream: its instance levels and exact filter.
        let mut e_streams: Vec<(Vec<CLevel>, Option<CFilter>)> = Vec::new();
        for bi in 0..scanner.n_branch() {
            let exact_set = scanner.branch_exact(bi);
            if empty_under_params(exact_set, &values) {
                continue;
            }
            let levels = scanner.branch_bounds(bi);
            debug_assert_eq!(levels.len(), n_sched + n_inst);
            let sched: Vec<CLevel> = levels[..n_sched.min(levels.len())]
                .iter()
                .map(|lb| clevel(lb, n_param, &values))
                .collect();
            let inst_levels: Vec<CLevel> = levels[n_sched.min(levels.len())..]
                .iter()
                .map(|lb| clevel(lb, n_param, &values))
                .collect();
            let divful = exact_set.n_div() > 0;
            let key = (
                sched.clone(),
                inst_levels.clone(),
                divful.then(|| basic_rows(exact_set)),
            );
            if !seen.insert(key) {
                continue;
            }
            e_lstreams.push(LStream { sched });
            e_streams.push((
                inst_levels,
                divful.then(|| cfilter([exact_set], n_param, &values)),
            ));
        }
        // Tile-halo relations decompose into dozens of clip case-split
        // disjuncts (81 for a 2-D halo); kept as separate streams they make
        // per-point fiber and guard cost O(disjuncts). Collapse such an
        // entry into ONE stream whose levels are the union box of the
        // per-disjunct bounds (alternative groups, min-of-max /
        // max-of-min) with the full wrapped set as a runtime membership
        // test rejecting box points outside the union. Requires every
        // disjunct bounded on every level, or the box would be unbounded
        // where individual disjuncts are fine.
        const MERGE_THRESHOLD: usize = 8;
        let bounded = e_streams
            .iter()
            .zip(&e_lstreams)
            .all(|((inst, _), ls)| inst.iter().chain(&ls.sched).all(level_bounded));
        if e_streams.len() > MERGE_THRESHOLD && bounded {
            let sched: Vec<CLevel> = (0..n_sched)
                .map(|d| merge_levels(e_lstreams.iter().map(|ls| &ls.sched[d])))
                .collect();
            let inst_levels: Vec<CLevel> = (0..n_inst)
                .map(|k| merge_levels(e_streams.iter().map(|(inst, _)| &inst[k])))
                .collect();
            let exact = Some(cfilter(ws.basics(), n_param, &values));
            streams.push(stream_meta(order, &sched, inst_levels, exact));
            lstreams.push(LStream { sched });
        } else {
            for (ls, (inst, exact)) in e_lstreams.into_iter().zip(e_streams) {
                streams.push(stream_meta(order, &ls.sched, inst, exact));
                lstreams.push(ls);
            }
        }
    }

    drop(scan_span);

    let emit_span = tilefuse_trace::span!("codegen/lower/emit", "{} streams", streams.len());
    let mut em = Emitter {
        n_sched,
        par_ok: &par_ok,
        lstreams: &lstreams,
        streams: &streams,
        entry_body: &entry_body,
        scratch_scopes: scratch.iter().map(|s| s.scope).collect(),
        insts: Vec::new(),
        partition_end: BTreeMap::new(),
        loops: Vec::new(),
        fused: Vec::new(),
        fibers: Vec::new(),
        bodies: &bodies,
    };
    let all: Vec<usize> = (0..streams.len()).collect();
    em.emit(&all, 0);
    drop(emit_span);

    Ok(CompiledProgram {
        name: program.name().to_owned(),
        insts: em.insts,
        partition_end: em.partition_end,
        loops: em.loops,
        fused: em.fused,
        fibers: em.fibers,
        streams,
        bodies,
        bufs,
        scratch,
        stmt_names,
        n_sched,
        max_inst,
        param_names: program.params().iter().map(|(n, _)| n.clone()).collect(),
        param_values: values,
        entry_labels,
    })
}

impl CompiledProgram {
    /// Deliberately corrupts the lowering: offsets the last coordinate of
    /// the first compiled load access by one. Used by the fuzz harness's
    /// `VmMisLower` fault injection to prove the VM differential check
    /// catches bad lowerings; returns `false` if no load exists to corrupt.
    pub fn inject_mis_lower(&mut self) -> bool {
        for body in &mut self.bodies {
            for acc in &mut body.accesses {
                if let Some(c) = acc.coords.last_mut() {
                    c.constant += 1;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harris at tile 4x4 is the program whose halo streams once carried
    /// 1296 disjuncts with existential divs (redundant splinters of every
    /// tile-index projection). Exact projection leaves at most 81, none
    /// with a div, all compiled to register rows.
    #[test]
    fn harris_filters_are_div_free_and_small() {
        let program = tilefuse_workloads::polymage::harris(32, 32)
            .unwrap()
            .program;
        let opt = tilefuse_core::optimize(&program, &tilefuse_core::Options::cpu(&[4, 4])).unwrap();
        let compiled = lower_tree(&program, &opt.tree, &[], &opt.report.scratch_scopes).unwrap();
        let filters: Vec<&CFilter> = compiled
            .streams
            .iter()
            .filter_map(|s| s.exact.as_ref())
            .collect();
        assert!(!filters.is_empty(), "no merged halo stream left to guard");
        for f in filters {
            assert!(f.divs.is_empty(), "{} divful disjuncts", f.divs.len());
            assert!(
                (1..=81).contains(&f.rows.len()),
                "{} disjuncts",
                f.rows.len()
            );
        }
    }

    /// `x >= t` as a lower-bound row over the terms `t` (register, coeff).
    fn ge(terms: &[(usize, i64)], constant: i64) -> CBound {
        CBound {
            coeff: 1,
            terms: terms.iter().map(|&(r, c)| (r, -c)).collect(),
            constant: -constant,
        }
    }

    /// `x <= t` as an upper-bound row.
    fn le(terms: &[(usize, i64)], constant: i64) -> CBound {
        CBound {
            coeff: 1,
            terms: terms.to_vec(),
            constant,
        }
    }

    fn affine(terms: &[(usize, i64)], constant: i64) -> CAffine {
        CAffine {
            terms: terms.to_vec(),
            constant,
        }
    }

    /// Schedule levels whose dimension 4 is guarded by `0 <= d4 <= 451`.
    fn guarded_d4() -> Vec<CLevel> {
        let mut sched = vec![CLevel::default(); 5];
        sched[4] = CLevel {
            lowers: vec![vec![ge(&[], 0)]],
            uppers: vec![vec![le(&[], 451)]],
        };
        sched
    }

    #[test]
    fn single_group_pin_keeps_only_rows_the_guards_do_not_hold() {
        let d4 = [(4, 1)];
        let level = CLevel {
            lowers: vec![vec![ge(&d4, 0)]],
            uppers: vec![vec![le(&d4, 0), le(&[], 511)]],
        };
        let sched = guarded_d4();
        // `x <= 511` becomes `511 - d4 >= 0`: not the guard `451 - d4 >= 0`.
        assert_eq!(
            inst_level(level, &sched, false),
            InstLevel::Pinned {
                at: affine(&d4, 0),
                check: vec![affine(&[(4, -1)], 511)],
            }
        );
        // `x >= 0` and `x <= 451` become exactly the guard rows, and
        // `x >= d4 - 2` the true constant `2 >= 0`: all are dropped.
        let level = CLevel {
            lowers: vec![vec![ge(&[], 0), ge(&d4, -2), ge(&d4, 0)]],
            uppers: vec![vec![le(&d4, 0), le(&[], 451)]],
        };
        assert_eq!(
            inst_level(level, &sched, false),
            InstLevel::Pinned {
                at: affine(&d4, 0),
                check: Vec::new(),
            }
        );
    }

    #[test]
    fn union_box_pins_to_the_common_affine_only_under_a_filter() {
        let (d1, d4) = ([(1, 4)], [(4, 1)]);
        // The first upper group lists its own pin `x = 4d1 + 4` first: a
        // first-match rule would try it and give up.
        let level = CLevel {
            lowers: vec![vec![ge(&d1, 4), ge(&d4, 0)], vec![ge(&[], 0), ge(&d4, 0)]],
            uppers: vec![vec![le(&d1, 4), le(&d4, 0)], vec![le(&[], 511), le(&d4, 0)]],
        };
        assert_eq!(
            inst_level(level.clone(), &[], true),
            InstLevel::Pinned {
                at: affine(&d4, 0),
                check: Vec::new(),
            }
        );
        assert_eq!(
            inst_level(level.clone(), &[], false),
            InstLevel::Range(level)
        );
    }

    #[test]
    fn different_pins_and_scaled_equalities_stay_ranges() {
        let apart = CLevel {
            lowers: vec![vec![ge(&[(4, 1)], 0)], vec![ge(&[(3, 1)], 0)]],
            uppers: vec![vec![le(&[(4, 1)], 0)], vec![le(&[(3, 1)], 0)]],
        };
        assert_eq!(
            inst_level(apart.clone(), &[], true),
            InstLevel::Range(apart)
        );
        // `2x = d4`: `2x >= d4` and `2x <= d4`.
        let scaled = CLevel {
            lowers: vec![vec![CBound {
                coeff: 2,
                terms: vec![(4, -1)],
                constant: 0,
            }]],
            uppers: vec![vec![CBound {
                coeff: 2,
                terms: vec![(4, 1)],
                constant: 0,
            }]],
        };
        assert_eq!(
            inst_level(scaled.clone(), &[], false),
            InstLevel::Range(scaled)
        );
    }

    /// The claim of the pin rule rests on these two: every instance level
    /// of Harris 32/4 (union boxes behind filters, and plain streams) and
    /// of the tiled upwind stencil is resolved at lowering time.
    #[test]
    fn harris_and_upwind_instance_levels_are_all_pinned() {
        let program = tilefuse_workloads::polymage::harris(32, 32)
            .unwrap()
            .program;
        let opt = tilefuse_core::optimize(&program, &tilefuse_core::Options::cpu(&[4, 4])).unwrap();
        let harris = lower_tree(&program, &opt.tree, &[], &opt.report.scratch_scopes).unwrap();
        let program = tilefuse_workloads::wavefront::upwind(512, 512)
            .unwrap()
            .program;
        let tree = tilefuse_workloads::wavefront::tiled_tree(64).unwrap();
        let upwind = lower_tree(&program, &tree, &[], &BTreeMap::new()).unwrap();
        for compiled in [&harris, &upwind] {
            for (s, sm) in compiled.streams.iter().enumerate() {
                for (k, level) in sm.inst_levels.iter().enumerate() {
                    assert!(
                        matches!(level, InstLevel::Pinned { .. }),
                        "{}: stream {s} level {k} is {level:?}",
                        compiled.name
                    );
                }
            }
        }
    }

    #[test]
    fn padded_shallow_entry_does_not_veto_deep_parallel_depth() {
        // Regression: a shallow live-out statement (1-D) beside a deeper
        // fused group (2-D). The shallow entry's schedule is padded to the
        // common length; its padded depth must be *neutral* when selecting
        // parallel depths, not a veto that serializes the deep group.
        use tilefuse_pir::{ArrayKind, Body, SchedTerm};
        use tilefuse_presburger::{UnionMap, UnionSet};
        use tilefuse_schedtree::{band, filter, sequence, Band, Node};

        let mut p = Program::new("veto").with_param("N", 6);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Output);
        let b = p.add_array("B", vec!["N".into(), "N".into()], ArrayKind::Output);
        p.add_stmt(
            "{ S0[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::mul(Expr::Iter(0), Expr::Const(3.0)),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S1[i, j] : 0 <= i < N and 0 <= j < N }",
            vec![SchedTerm::Cst(1), SchedTerm::Var(0), SchedTerm::Var(1)],
            Body {
                target: b,
                target_idx: vec![IdxExpr::dim(2, 0), IdxExpr::dim(2, 1)],
                rhs: Expr::add(Expr::Iter(0), Expr::Iter(1)),
            },
        )
        .unwrap();
        let uset = |s: &str| {
            UnionSet::from_parts([s.parse::<tilefuse_presburger::Set>().unwrap()]).unwrap()
        };
        let umap = |s: &str| {
            UnionMap::from_parts([s.parse::<tilefuse_presburger::Map>().unwrap()]).unwrap()
        };
        let dom = uset("[N] -> { S0[i] : 0 <= i < N }")
            .union(&uset("[N] -> { S1[i, j] : 0 <= i < N and 0 <= j < N }"))
            .unwrap();
        let tree = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(
                    uset("[N] -> { S0[i] }"),
                    band(
                        Band::new(umap("[N] -> { S0[i] -> [i] }"), true, vec![true]).unwrap(),
                        Node::Leaf,
                    ),
                ),
                filter(
                    uset("[N] -> { S1[i, j] }"),
                    band(
                        Band::new(
                            umap("[N] -> { S1[i, j] -> [i, j] }"),
                            true,
                            vec![true, true],
                        )
                        .unwrap(),
                        Node::Leaf,
                    ),
                ),
            ]),
        );
        let entries = flatten(&tree).unwrap();
        // Depth 0 is the sequence dim; depths 1 and 2 are coincident band
        // members. S0 does not iterate depth 2 (padding), so it must not
        // veto it.
        assert_eq!(
            parallel_depths(&entries, &BTreeMap::new()),
            vec![false, true, true]
        );
        let none = BTreeMap::new();
        let (seq_ctx, seq_stats) = crate::execute_tree(&p, &tree, &[], &none).unwrap();
        let compiled = lower_tree(&p, &tree, &[], &none).unwrap();
        for (par_ctx, par_stats) in [
            crate::execute_tree_dag(&p, &tree, &[], &none, 4, crate::ExecBackend::Vm).unwrap(),
            crate::execute_compiled(&p, &compiled, 4).unwrap(),
        ] {
            assert_eq!(seq_stats, par_stats);
            for arr in [a, b] {
                assert_eq!(seq_ctx.buffer(arr).data(), par_ctx.buffer(arr).data());
            }
        }
    }
}
