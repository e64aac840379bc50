//! The bytecode virtual machine: executes a [`CompiledProgram`]
//! bit-identically to the schedule-tree interpreter.
//!
//! Where the interpreter materializes and sorts the full `(schedule tuple,
//! instance)` work list and re-resolves names per instance, the VM walks
//! the compiled loop nest directly: integer dim registers drive compiled
//! affine bounds, a pinned instance level sets its register from one
//! affine instead of looping over a one-point range, statement bodies run
//! as flat register programs, and tile-local scratch is an epoch-stamped
//! flat array — clearing a tile is one epoch bump per scratch scope, not a
//! `BTreeMap` sweep. Statistics (instances, loads,
//! stores, scratch hits) are counted at exactly the interpreter's points,
//! so [`ExecStats`] match bit-for-bit.
//!
//! The one unit of parallel work is [`Machine::run_under`]: the compiled
//! program run under a pinned schedule prefix, on shared relaxed-atomic
//! buffers, as a task of the pool in [`crate::dag`]. A tile-DAG task is
//! `run_under(task prefix)`; a coincident loop met by
//! [`execute_compiled`] with more than one thread is the same thing with
//! no edges — one task per iteration value ([`Machine::fan_out`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bytecode::{
    BodyOp, CAccess, CAffine, CFilter, CLevel, CompiledProgram, FiberMeta, Inst, InstLevel,
};
use crate::error::{Error, Result};
use crate::interp::{default_threads, ExecContext, ExecStats};
use tilefuse_pir::{BinOp, Program, UnOp};
use tilefuse_scheduler::TileDag;

/// Backing memory for a VM run: a sequential run writes straight through;
/// pool tasks access shared relaxed-atomic buffers (sound because
/// conflicting accesses are ordered by the pool's release/acquire chain —
/// see `crate::dag`).
pub(crate) enum Mem<'a> {
    Direct(&'a mut Vec<Vec<f64>>),
    Shared(&'a [Vec<AtomicU64>]),
}

impl Mem<'_> {
    #[inline]
    fn load(&self, buf: usize, idx: usize) -> f64 {
        match self {
            Mem::Direct(d) => d[buf][idx],
            Mem::Shared(a) => f64::from_bits(a[buf][idx].load(Ordering::Relaxed)),
        }
    }

    #[inline]
    fn store(&mut self, buf: usize, idx: usize, v: f64) {
        match self {
            Mem::Direct(d) => d[buf][idx] = v,
            Mem::Shared(a) => a[buf][idx].store(v.to_bits(), Ordering::Relaxed),
        }
    }
}

/// Counters in index form; converted to [`ExecStats`] once at the end.
#[derive(Clone)]
pub(crate) struct RawStats {
    instances: Vec<u64>,
    loads: u64,
    stores: u64,
    scratch_hits: u64,
}

impl RawStats {
    pub(crate) fn new(n_stmts: usize) -> Self {
        RawStats {
            instances: vec![0; n_stmts],
            loads: 0,
            stores: 0,
            scratch_hits: 0,
        }
    }

    pub(crate) fn merge(&mut self, other: &RawStats) {
        for (a, b) in self.instances.iter_mut().zip(&other.instances) {
            *a += b;
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.scratch_hits += other.scratch_hits;
    }

    pub(crate) fn into_stats(self, names: &[String]) -> ExecStats {
        let mut stats = ExecStats {
            loads: self.loads,
            stores: self.stores,
            scratch_hits: self.scratch_hits,
            ..ExecStats::default()
        };
        for (name, &n) in names.iter().zip(&self.instances) {
            if n > 0 {
                stats.instances.insert(name.clone(), n);
            }
        }
        stats
    }
}

/// Epoch-stamped tile-local storage of one buffer: an element is live iff
/// its stamp equals its scope's epoch ([`Machine::epochs`]), so clearing
/// the scope is one bump for all of its buffers. Out-of-range or
/// wrong-arity coordinates — which the interpreter's `BTreeMap` scratch
/// accepts silently — spill to a side map so the semantics stay identical.
struct ScratchState {
    /// Index of the buffer's scope in [`Machine::epochs`].
    scope: usize,
    data: Vec<f64>,
    stamp: Vec<u32>,
    side: BTreeMap<Vec<i64>, (u32, f64)>,
}

impl ScratchState {
    fn new(scope: usize, len: usize) -> Self {
        ScratchState {
            scope,
            data: vec![0.0; len],
            stamp: vec![0; len],
            side: BTreeMap::new(),
        }
    }

    /// Forgets every stamp: run when the scope's epoch wraps, so a stamp
    /// from an earlier round can never match again.
    fn reset(&mut self) {
        self.stamp.fill(0);
        self.side.clear();
    }

    #[inline]
    fn get(&self, idx: usize, epoch: u32) -> Option<f64> {
        (self.stamp[idx] == epoch).then(|| self.data[idx])
    }

    #[inline]
    fn put(&mut self, idx: usize, v: f64, epoch: u32) {
        self.data[idx] = v;
        self.stamp[idx] = epoch;
    }

    fn get_side(&self, coords: &[i64], epoch: u32) -> Option<f64> {
        self.side
            .get(coords)
            .filter(|(e, _)| *e == epoch)
            .map(|&(_, v)| v)
    }

    fn put_side(&mut self, coords: Vec<i64>, v: f64, epoch: u32) {
        self.side.insert(coords, (epoch, v));
    }
}

/// Per-loop iteration state. A loop id appears exactly once in the
/// instruction stream and loops never re-enter themselves, so one slot per
/// loop suffices — no runtime stack.
#[derive(Default, Clone)]
struct LoopState {
    cur: i64,
    hi: i64,
    /// Per-guard `[lo, hi]` under the current outer prefix.
    ranges: Vec<(i64, i64)>,
    /// Whether each guard's stream was active when the loop opened.
    entered: Vec<bool>,
}

pub(crate) struct Machine<'p> {
    prog: &'p CompiledProgram,
    /// Shared integer register file: schedule dims `0..n_sched`, then the
    /// current fiber's instance dims.
    dims: Vec<i64>,
    active: Vec<bool>,
    lstate: Vec<LoopState>,
    scratch: Vec<ScratchState>,
    /// One epoch per distinct scratch scope, in ascending scope order.
    epochs: Vec<u32>,
    /// Per instruction, the distinct scopes whose epochs it advances: those
    /// of an [`Inst::Clear`] list or of a [`Inst::LoopClose`]'s
    /// `LoopMeta::clears`, empty elsewhere.
    clear_scopes: Vec<Vec<usize>>,
    regs: Vec<f64>,
    stats: RawStats,
    n_threads: usize,
    /// Per-stream index of the disjunct that last accepted a membership
    /// query. Consecutive lexicographic points almost always fall in the
    /// same disjunct, so trying it first makes `in_exact` amortized O(1)
    /// in the number of disjuncts.
    mru: Vec<usize>,
    /// `[params | sched | inst]`, the point form `BasicSet::contains`
    /// takes: the parameters are written once, the registers copied in per
    /// query, so a divful disjunct costs no allocation here either.
    point: Vec<i64>,
}

impl<'p> Machine<'p> {
    pub(crate) fn new(prog: &'p CompiledProgram, n_threads: usize) -> Self {
        let n_regs = prog.bodies.iter().map(|b| b.n_regs).max().unwrap_or(1);
        let mut scopes: Vec<usize> = prog.scratch.iter().map(|s| s.scope).collect();
        scopes.sort_unstable();
        scopes.dedup();
        let slot: Vec<usize> = prog
            .scratch
            .iter()
            .map(|s| scopes.partition_point(|&v| v < s.scope))
            .collect();
        let distinct = |list: &[usize]| {
            let mut out: Vec<usize> = list.iter().map(|&s| slot[s]).collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        Machine {
            prog,
            dims: vec![0; prog.n_sched + prog.max_inst],
            active: vec![true; prog.streams.len()],
            lstate: vec![LoopState::default(); prog.loops.len()],
            scratch: prog
                .scratch
                .iter()
                .zip(&slot)
                .map(|(s, &sc)| ScratchState::new(sc, prog.bufs[s.buf].len))
                .collect(),
            epochs: vec![1; scopes.len()],
            clear_scopes: prog
                .insts
                .iter()
                .map(|inst| match inst {
                    Inst::Clear(list) => distinct(list),
                    Inst::LoopClose(l) => distinct(&prog.loops[*l].clears),
                    _ => Vec::new(),
                })
                .collect(),
            regs: vec![0.0; n_regs],
            stats: RawStats::new(prog.stmt_names.len()),
            n_threads,
            mru: vec![0; prog.streams.len()],
            point: prog
                .param_values
                .iter()
                .copied()
                .chain(std::iter::repeat_n(0, prog.n_sched + prog.max_inst))
                .collect(),
        }
    }

    /// Runs instructions `[from, to)`.
    fn run(&mut self, mem: &mut Mem, from: usize, to: usize) -> Result<()> {
        let prog = self.prog;
        let mut ip = from;
        while ip < to {
            match &prog.insts[ip] {
                Inst::SetDim { dim, value } => {
                    self.dims[*dim] = *value;
                    ip += 1;
                }
                Inst::Clear(_) => {
                    self.clear(ip);
                    ip += 1;
                }
                Inst::LoopOpen(l) => {
                    ip = self.loop_open(*l, mem)?;
                }
                Inst::LoopClose(l) => {
                    ip = self.loop_close(*l);
                }
                Inst::Fiber(f) => {
                    self.fiber(*f, mem)?;
                    ip += 1;
                }
                Inst::Fused(f) => {
                    self.fused(*f, mem)?;
                    ip += 1;
                }
            }
        }
        Ok(())
    }

    /// Advances the epoch of scratch scope `sc`, so every buffer of the
    /// scope reads as empty. On wrap the buffers' stamps and side maps are
    /// reset, so no value stored before the wrap can hit after it.
    fn bump(&mut self, sc: usize) {
        if self.epochs[sc] == u32::MAX {
            for s in self.scratch.iter_mut().filter(|s| s.scope == sc) {
                s.reset();
            }
            self.epochs[sc] = 1;
        } else {
            self.epochs[sc] += 1;
        }
    }

    /// Clears the scratch scopes named by the instruction at `ip`.
    fn clear(&mut self, ip: usize) {
        for i in 0..self.clear_scopes[ip].len() {
            self.bump(self.clear_scopes[ip][i]);
        }
    }

    /// Evaluates the loop's guards under the current outer dims: which
    /// streams were active, each one's `[lo, hi]`, and the union range
    /// `[cur, hi]` (empty when no stream contributes).
    fn loop_guards(&self, l: usize) -> Result<LoopState> {
        let meta = &self.prog.loops[l];
        let n_guards = meta.guards.len();
        let mut ranges = vec![(1i64, 0i64); n_guards];
        let mut entered = vec![false; n_guards];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for (gi, g) in meta.guards.iter().enumerate() {
            if !self.active[g.stream] {
                continue;
            }
            entered[gi] = true;
            let (Some(ls), Some(hs)) = (g.level.lo(&self.dims), g.level.hi(&self.dims)) else {
                return Err(Error::Exec(format!(
                    "unbounded schedule dimension {}",
                    meta.dim
                )));
            };
            ranges[gi] = (ls, hs);
            if ls <= hs {
                lo = lo.min(ls);
                hi = hi.max(hs);
            }
        }
        Ok(LoopState {
            cur: lo,
            hi,
            ranges,
            entered,
        })
    }

    /// Enters the loop at `state.cur`: sets the dim register and each
    /// guarded stream's activity. Returns whether any stream is live.
    fn loop_enter(&mut self, l: usize, state: LoopState) -> bool {
        let meta = &self.prog.loops[l];
        let v = state.cur;
        self.dims[meta.dim] = v;
        let mut any = false;
        for (gi, g) in meta.guards.iter().enumerate() {
            let a = state.entered[gi] && v >= state.ranges[gi].0 && v <= state.ranges[gi].1;
            self.active[g.stream] = a;
            any |= a;
        }
        self.lstate[l] = state;
        any
    }

    /// Evaluates the loop's guards and either enters the first populated
    /// iteration, cuts the whole range into pool tasks, or skips the loop.
    /// Returns the next instruction pointer.
    fn loop_open(&mut self, l: usize, mem: &mut Mem) -> Result<usize> {
        let meta = &self.prog.loops[l];
        let state = self.loop_guards(l)?;
        let (lo, hi) = (state.cur, state.hi);
        if lo > hi {
            return Ok(meta.close_ip + 1);
        }
        if meta.parallel && self.n_threads > 1 && hi > lo {
            self.fan_out(meta.dim, lo, hi, mem)?;
            // The tasks leave what sequential execution would leave after
            // the last iteration; the next instance's prefix differs at
            // most at this depth, so clear everything scoped deeper.
            self.clear(meta.close_ip);
            return Ok(meta.close_ip + 1);
        }
        self.loop_enter(l, state);
        Ok(meta.open_ip + 1)
    }

    /// Advances the loop: bumps deeper-scoped scratch epochs on every
    /// increment (the interpreter clears exactly these arrays when the
    /// schedule prefix changes at this depth), skips values where no
    /// stream is live, and either jumps back to the body or falls through.
    fn loop_close(&mut self, l: usize) -> usize {
        let prog = self.prog;
        let meta = &prog.loops[l];
        let hi = self.lstate[l].hi;
        let mut cur = self.lstate[l].cur;
        loop {
            cur += 1;
            if cur > hi {
                self.lstate[l].cur = cur;
                return meta.close_ip + 1;
            }
            self.clear(meta.close_ip);
            let mut any = false;
            for (gi, g) in meta.guards.iter().enumerate() {
                let (lo_s, hi_s) = self.lstate[l].ranges[gi];
                let a = self.lstate[l].entered[gi] && cur >= lo_s && cur <= hi_s;
                self.active[g.stream] = a;
                any |= a;
            }
            if any {
                self.dims[meta.dim] = cur;
                self.lstate[l].cur = cur;
                return meta.open_ip + 1;
            }
        }
    }

    /// The fused loop's `[lo, hi]` under the current dims, with its pins
    /// applied; `None` when its stream is inactive or the range is empty.
    fn fused_range(&mut self, fi: usize) -> Result<Option<(i64, i64)>> {
        let meta = &self.prog.fused[fi];
        if !self.active[self.prog.fibers[meta.fiber].streams[0]] {
            return Ok(None);
        }
        let (Some(lo), Some(hi)) = (meta.level.lo(&self.dims), meta.level.hi(&self.dims)) else {
            return Err(Error::Exec(format!(
                "unbounded schedule dimension {}",
                meta.dim
            )));
        };
        if lo > hi {
            return Ok(None);
        }
        for &(d, v) in &meta.pins {
            self.dims[d] = v;
        }
        Ok(Some((lo, hi)))
    }

    /// Executes a specialized fused inner loop.
    fn fused(&mut self, fi: usize, mem: &mut Mem) -> Result<()> {
        let prog = self.prog;
        let meta = &prog.fused[fi];
        let Some((lo, hi)) = self.fused_range(fi)? else {
            return Ok(());
        };
        if meta.parallel && self.n_threads > 1 && hi > lo {
            return self.fan_out(meta.dim, lo, hi, mem);
        }
        let fiber = &prog.fibers[meta.fiber];
        for v in lo..=hi {
            self.dims[meta.dim] = v;
            self.walk_exec(fiber.streams[0], 0, fiber, mem)?;
        }
        Ok(())
    }

    /// Runs the compiled program restricted to the schedule tuples that
    /// start with `prefix` — the one unit of parallel work on the VM.
    /// Loops, fused loops and static partitions at depths `< prefix.len()`
    /// are pinned to the prefix value (a partition or pin that disagrees
    /// is skipped); everything deeper runs through [`Machine::run`]
    /// unchanged, so the instances execute in exactly the sequential order
    /// restricted to the prefix.
    ///
    /// Scratch starts cleared: every scratch scope is at least the prefix
    /// length (tile-DAG prefix invariant; `parallel_depths` for
    /// [`Machine::fan_out`]), so the sequential run clears all scratch at
    /// every boundary between two prefixes too, and `scratch_hits` match.
    pub(crate) fn run_under(&mut self, prefix: &[i64], mem: &mut Mem) -> Result<()> {
        let prog = self.prog;
        self.active.fill(true);
        for sc in 0..self.epochs.len() {
            self.bump(sc);
        }
        let mut ip = 0;
        while ip < prog.insts.len() {
            ip = match prog.insts[ip] {
                Inst::SetDim { dim, value } if dim < prefix.len() => {
                    if value == prefix[dim] {
                        self.dims[dim] = value;
                        ip + 1
                    } else {
                        prog.partition_end[&ip]
                    }
                }
                Inst::LoopOpen(l) if prog.loops[l].dim < prefix.len() => {
                    let mut state = self.loop_guards(l)?;
                    let v = prefix[prog.loops[l].dim];
                    // A one-iteration loop at the pinned value.
                    let inside = state.cur <= v && v <= state.hi;
                    state.cur = v;
                    state.hi = v;
                    if inside && self.loop_enter(l, state) {
                        ip + 1
                    } else {
                        prog.loops[l].close_ip + 1
                    }
                }
                Inst::Fused(fi) if prog.fused[fi].dim < prefix.len() => {
                    let meta = &prog.fused[fi];
                    let v = prefix[meta.dim];
                    let pins_agree = meta
                        .pins
                        .iter()
                        .all(|&(d, pv)| d >= prefix.len() || prefix[d] == pv);
                    if pins_agree {
                        if let Some((lo, hi)) = self.fused_range(fi)? {
                            if lo <= v && v <= hi {
                                let fiber = &prog.fibers[meta.fiber];
                                self.dims[meta.dim] = v;
                                self.walk_exec(fiber.streams[0], 0, fiber, mem)?;
                            }
                        }
                    }
                    ip + 1
                }
                // Below the prefix: a whole loop, or one instruction (the
                // close of a pinned loop falls through, since `hi == cur`).
                Inst::LoopOpen(l) => {
                    let end = prog.loops[l].close_ip + 1;
                    self.run(mem, ip, end)?;
                    end
                }
                _ => {
                    self.run(mem, ip, ip + 1)?;
                    ip + 1
                }
            };
        }
        Ok(())
    }

    /// Runs iterations `lo..=hi` of the parallel dimension `dim` as an
    /// edge-free task set on the pool — a coincident band is a tile DAG
    /// with no edges — one [`Machine::run_under`] task per value.
    fn fan_out(&mut self, dim: usize, lo: i64, hi: i64, mem: &mut Mem) -> Result<()> {
        let tasks: Vec<Vec<i64>> = (lo..=hi)
            .map(|v| {
                let mut prefix = self.dims[..dim].to_vec();
                prefix.push(v);
                prefix
            })
            .collect();
        let dag = TileDag {
            prefix_len: dim + 1,
            succs: vec![Vec::new(); tasks.len()],
            n_preds: vec![0; tasks.len()],
            tasks,
            deps: Vec::new(),
        };
        let stats = run_on_pool(self.prog, &dag, self.n_threads, false, mem)?;
        self.stats.merge(&stats);
        Ok(())
    }

    /// Runs a fiber: enumerates the owning entry's instance dims under the
    /// current schedule point and executes the body per instance, in
    /// lexicographic order. A single div-free stream walks its (exact)
    /// bounds directly; unions and divful streams collect candidates into
    /// an ordered set with the exact membership test, reproducing the
    /// scanner's dedup semantics.
    fn fiber(&mut self, f: usize, mem: &mut Mem) -> Result<()> {
        let prog = self.prog;
        let meta = &prog.fibers[f];
        // One walk per *group* whose members include an active stream: all
        // members share identical instance bounds, so any active member
        // makes the group's box live. This keeps the per-point cost at
        // O(groups), not O(streams) — crucial when a halo relation's case
        // splits produce many coverage-only stream variants.
        let mut live = meta
            .groups
            .iter()
            .filter(|g| g.iter().any(|&s| self.active[s]))
            .map(|g| g[0]);
        let Some(first) = live.next() else {
            return Ok(());
        };
        if live.next().is_none() {
            // A single box enumerates in lexicographic order without
            // duplicates, and the membership filter inside `walk_exec`
            // preserves both, so no collection pass is needed.
            return self.walk_exec(first, 0, meta, mem);
        }
        let mut pts: BTreeSet<Vec<i64>> = BTreeSet::new();
        for g in &meta.groups {
            if g.iter().any(|&s| self.active[s]) {
                self.walk_collect(g[0], 0, meta.n_inst, &mut pts)?;
            }
        }
        for p in pts {
            self.dims[prog.n_sched..prog.n_sched + meta.n_inst].copy_from_slice(&p);
            self.exec_body(meta.body, mem)?;
        }
        Ok(())
    }

    /// A pinned level's one value under the current dims, or `None` when a
    /// check row fails (the range it replaces would be empty).
    #[inline]
    fn pinned(&self, at: &CAffine, check: &[CAffine]) -> Option<i64> {
        check
            .iter()
            .all(|r| r.eval(&self.dims) >= 0)
            .then(|| at.eval(&self.dims))
    }

    /// Evaluates a range level's `[lo, hi]` under the current dims.
    /// `None` means empty; an error mirrors the scanner's `Unbounded`.
    fn inst_range(&self, level: &CLevel, k: usize) -> Result<Option<(i64, i64)>> {
        let (Some(lo), Some(hi)) = (level.lo(&self.dims), level.hi(&self.dims)) else {
            return Err(Error::Exec(format!("unbounded instance dimension {k}")));
        };
        Ok((lo <= hi).then_some((lo, hi)))
    }

    /// Tests the current point (sched dims + first `n_inst` instance dims)
    /// against the stream's exact set, if any. Tries the
    /// most-recently-matching disjunct first (see [`Machine::mru`]).
    fn in_exact(&mut self, s: usize, n_inst: usize) -> Result<bool> {
        let Some(exact) = &self.prog.streams[s].exact else {
            return Ok(true);
        };
        let n = exact.rows.len() + exact.divs.len();
        let m = self.mru[s];
        if m < n && self.in_disjunct(exact, m, n_inst)? {
            return Ok(true);
        }
        for i in 0..n {
            if i != m && self.in_disjunct(exact, i, n_inst)? {
                self.mru[s] = i;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether disjunct `i` of `exact` (compiled rows first, then the
    /// divful sets) accepts the current point.
    #[inline]
    fn in_disjunct(&mut self, exact: &CFilter, i: usize, n_inst: usize) -> Result<bool> {
        if let Some(d) = exact.rows.get(i) {
            return Ok(d.contains(&self.dims));
        }
        let n_regs = self.prog.n_sched + n_inst;
        let n_param = self.prog.param_values.len();
        self.point[n_param..n_param + n_regs].copy_from_slice(&self.dims[..n_regs]);
        Ok(exact.divs[i - exact.rows.len()].contains(&self.point[..n_param + n_regs])?)
    }

    /// Direct execution walk for a single stream (or group of streams with
    /// identical bounds): enumerates the bounding box in lexicographic
    /// order, filtering through the exact set when the box over-covers.
    fn walk_exec(&mut self, s: usize, k: usize, meta: &FiberMeta, mem: &mut Mem) -> Result<()> {
        if k == meta.n_inst {
            if !self.in_exact(s, meta.n_inst)? {
                return Ok(());
            }
            return self.exec_body(meta.body, mem);
        }
        let prog = self.prog;
        let x = prog.n_sched + k;
        match &prog.streams[s].inst_levels[k] {
            InstLevel::Pinned { at, check } => {
                if let Some(v) = self.pinned(at, check) {
                    self.dims[x] = v;
                    self.walk_exec(s, k + 1, meta, mem)?;
                }
            }
            InstLevel::Range(level) => {
                if let Some((lo, hi)) = self.inst_range(level, k)? {
                    for v in lo..=hi {
                        self.dims[x] = v;
                        self.walk_exec(s, k + 1, meta, mem)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Candidate-collection walk for unions / divful streams.
    fn walk_collect(
        &mut self,
        s: usize,
        k: usize,
        n_inst: usize,
        out: &mut BTreeSet<Vec<i64>>,
    ) -> Result<()> {
        let prog = self.prog;
        if k == n_inst {
            if !self.in_exact(s, n_inst)? {
                return Ok(());
            }
            out.insert(self.dims[prog.n_sched..prog.n_sched + n_inst].to_vec());
            return Ok(());
        }
        let x = prog.n_sched + k;
        match &prog.streams[s].inst_levels[k] {
            InstLevel::Pinned { at, check } => {
                if let Some(v) = self.pinned(at, check) {
                    self.dims[x] = v;
                    self.walk_collect(s, k + 1, n_inst, out)?;
                }
            }
            InstLevel::Range(level) => {
                if let Some((lo, hi)) = self.inst_range(level, k)? {
                    for v in lo..=hi {
                        self.dims[x] = v;
                        self.walk_collect(s, k + 1, n_inst, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolves an access to its flat row-major index; `None` when out of
    /// bounds or of the wrong arity.
    #[inline]
    fn flat_idx(&self, acc: &CAccess, shape: &[i64]) -> Option<usize> {
        if acc.coords.len() != shape.len() {
            return None;
        }
        let mut idx = 0i64;
        for (c, &s) in acc.coords.iter().zip(shape) {
            let c = c.eval(&self.dims);
            if c < 0 || c >= s {
                return None;
            }
            idx = idx * s + c;
        }
        Some(idx as usize)
    }

    /// The evaluated coordinates of an access [`Machine::flat_idx`] could
    /// not resolve: the key of the scratch side map and the error text.
    #[cold]
    fn coords(&self, acc: &CAccess) -> Vec<i64> {
        acc.coords.iter().map(|c| c.eval(&self.dims)).collect()
    }

    /// Executes one statement instance: counters, loads (scratch first),
    /// register ops, then the store — in exactly the interpreter's order,
    /// including the continue-on-load-error-then-fail behavior.
    fn exec_body(&mut self, body: usize, mem: &mut Mem) -> Result<()> {
        let prog = self.prog;
        let body = &prog.bodies[body];
        self.stats.instances[body.stmt] += 1;
        let mut loads = 0u64;
        let mut hits = 0u64;
        let mut err: Option<Error> = None;
        for op in &body.ops {
            match op {
                BodyOp::Const { dst, v } => self.regs[*dst] = *v,
                BodyOp::Iter { dst, reg } => self.regs[*dst] = self.dims[*reg] as f64,
                BodyOp::Load { dst, acc } => {
                    loads += 1;
                    let a = &body.accesses[*acc];
                    let bm = &prog.bufs[a.buf];
                    let flat = self.flat_idx(a, &bm.shape);
                    let mut value = 0.0f64;
                    let mut served = false;
                    if let Some(sc) = bm.scratch {
                        let st = &self.scratch[sc];
                        let epoch = self.epochs[st.scope];
                        let hit = match flat {
                            Some(idx) => st.get(idx, epoch),
                            None => st.get_side(&self.coords(a), epoch),
                        };
                        if let Some(v) = hit {
                            hits += 1;
                            value = v;
                            served = true;
                        }
                    }
                    if !served {
                        match flat {
                            Some(idx) => value = mem.load(a.buf, idx),
                            None => {
                                err = Some(oob_error(&self.coords(a), &bm.shape));
                            }
                        }
                    }
                    self.regs[*dst] = value;
                }
                BodyOp::Bin { op, dst, a, b } => {
                    let x = self.regs[*a];
                    let y = self.regs[*b];
                    self.regs[*dst] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Max => x.max(y),
                        BinOp::Min => x.min(y),
                    };
                }
                BodyOp::Un { op, dst, a } => {
                    let x = self.regs[*a];
                    self.regs[*dst] = match op {
                        UnOp::Neg => -x,
                        UnOp::Relu => x.max(0.0),
                        UnOp::Exp => x.exp(),
                        UnOp::Sqrt => x.sqrt(),
                        UnOp::Abs => x.abs(),
                        UnOp::Recip => 1.0 / x,
                    };
                }
            }
        }
        self.stats.loads += loads;
        self.stats.scratch_hits += hits;
        if let Some(e) = err {
            return Err(e);
        }
        let value = self.regs[body.result];
        let bm = &prog.bufs[body.store.buf];
        let flat = self.flat_idx(&body.store, &bm.shape);
        self.stats.stores += 1;
        if let Some(sc) = bm.scratch {
            let epoch = self.epochs[self.scratch[sc].scope];
            match flat {
                Some(idx) => self.scratch[sc].put(idx, value, epoch),
                None => {
                    let coords = self.coords(&body.store);
                    self.scratch[sc].put_side(coords, value, epoch);
                }
            }
        } else {
            match flat {
                Some(idx) => mem.store(body.store.buf, idx, value),
                None => return Err(oob_error(&self.coords(&body.store), &bm.shape)),
            }
        }
        Ok(())
    }
}

fn oob_error(coords: &[i64], shape: &[i64]) -> Error {
    if coords.len() != shape.len() {
        Error::Exec(format!(
            "access with {} coords into {}-d buffer",
            coords.len(),
            shape.len()
        ))
    } else {
        Error::Exec(format!(
            "out-of-bounds access {coords:?} into shape {shape:?}"
        ))
    }
}

/// Runs every task of `dag` as [`Machine::run_under`] on the pool, one
/// machine per worker (scratch is reset by epoch bump between tasks, not
/// reallocated), and returns the summed counters. `mem` must be the
/// shared arena.
pub(crate) fn run_on_pool(
    prog: &CompiledProgram,
    dag: &TileDag,
    n_threads: usize,
    adversarial: bool,
    mem: &Mem,
) -> Result<RawStats> {
    let Mem::Shared(atoms) = *mem else {
        return Err(Error::Exec("VM pool tasks need the shared arena".into()));
    };
    let machines = crate::dag::run_pool(
        dag,
        n_threads,
        adversarial,
        &|| Machine::new(prog, 1),
        &|m: &mut Machine, t: usize| {
            tilefuse_trace::governor::checkpoint("dag/exec")
                .map_err(|e| Error::Presburger(tilefuse_presburger::Error::from(e)))?;
            m.run_under(&dag.tasks[t], &mut Mem::Shared(atoms))
        },
    )?;
    let mut stats = RawStats::new(prog.stmt_names.len());
    for m in &machines {
        stats.merge(&m.stats);
    }
    Ok(stats)
}

/// Moves a buffer's data into shared relaxed-atomic cells (f64 bits).
fn into_atoms(data: Vec<f64>) -> Vec<AtomicU64> {
    data.into_iter()
        .map(|v| AtomicU64::new(v.to_bits()))
        .collect()
}

/// Moves the cells' final values back into plain buffer data.
fn from_atoms(cells: Vec<AtomicU64>) -> Vec<f64> {
    cells
        .into_iter()
        .map(|c| f64::from_bits(c.into_inner()))
        .collect()
}

/// Initializes buffers exactly as [`ExecContext::initialized`] does for
/// the interpreter, moves them into the VM's flat arena (relaxed atomics
/// when `shared`), runs `f`, and moves them back (shapes agree: both
/// sides derive them from the same binding).
fn run_in_arena(
    program: &Program,
    compiled: &CompiledProgram,
    shared: bool,
    f: impl FnOnce(&mut Mem) -> Result<RawStats>,
) -> Result<(ExecContext, ExecStats)> {
    let overrides: Vec<(&str, i64)> = compiled
        .param_names
        .iter()
        .map(String::as_str)
        .zip(compiled.param_values.iter().copied())
        .collect();
    let mut ctx = ExecContext::initialized(program, &overrides);
    let mut data: Vec<Vec<f64>> = compiled
        .bufs
        .iter()
        .map(|b| std::mem::take(ctx.buffer_mut(b.array).data_mut()))
        .collect();
    let stats = if shared {
        let atoms: Vec<Vec<AtomicU64>> = data.into_iter().map(into_atoms).collect();
        let stats = f(&mut Mem::Shared(&atoms))?;
        data = atoms.into_iter().map(from_atoms).collect();
        stats
    } else {
        f(&mut Mem::Direct(&mut data))?
    };
    for (b, d) in compiled.bufs.iter().zip(data) {
        *ctx.buffer_mut(b.array).data_mut() = d;
    }
    Ok((ctx, stats.into_stats(&compiled.stmt_names)))
}

/// Executes a compiled program.
///
/// Buffers are initialized exactly as [`ExecContext::initialized`] does
/// for the interpreter (same deterministic pseudo-inputs), executed on the
/// VM, and returned as an ordinary [`ExecContext`]. `n_threads == 0` means
/// [`default_threads`]; `1` runs the sequential machine on plain buffers;
/// any other value runs on shared relaxed-atomic buffers and cuts every
/// outermost coincident loop it meets into edge-free tasks on the pool of
/// [`crate::execute_tree_dag`] — tasks of one loop touch disjoint
/// elements and their counters sum, so results and statistics are
/// bit-identical across thread counts, and to the interpreter.
///
/// # Errors
/// Returns an error on out-of-bounds accesses or unbounded dimensions
/// (the same conditions under which the interpreter fails). Worker panics
/// are caught and surfaced as [`Error::Exec`], tagged with the active
/// governor phase.
pub fn execute_compiled(
    program: &Program,
    compiled: &CompiledProgram,
    n_threads: usize,
) -> Result<(ExecContext, ExecStats)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _span = tilefuse_trace::span!("codegen/vm-exec", "{}", program.name());
        tilefuse_trace::governor::checkpoint("codegen/vm-exec")
            .map_err(|e| Error::Presburger(tilefuse_presburger::Error::from(e)))?;
        let n_threads = if n_threads == 0 {
            default_threads()
        } else {
            n_threads
        };
        run_in_arena(program, compiled, n_threads > 1, |mem| {
            let mut machine = Machine::new(compiled, n_threads);
            machine.run(mem, 0, compiled.insts.len())?;
            Ok(machine.stats)
        })
    }))
    .unwrap_or_else(|payload| {
        Err(Error::Exec(format!(
            "panic during VM execution (phase {}): {}",
            tilefuse_trace::governor::last_phase(),
            tilefuse_trace::governor::panic_message(payload.as_ref()),
        )))
    })
}

/// Executes a compiled program as the tasks of `dag` (the run half of
/// [`crate::execute_tree_dag_with`]).
pub(crate) fn execute_compiled_dag(
    program: &Program,
    compiled: &CompiledProgram,
    dag: &TileDag,
    n_threads: usize,
    adversarial: bool,
) -> Result<(ExecContext, ExecStats)> {
    run_in_arena(program, compiled, true, |mem| {
        run_on_pool(compiled, dag, n_threads, adversarial, mem)
    })
}

/// The engine under [`crate::execute_tree_dag`]: always the VM. The
/// parameter remains only because the `perf` benchmark passes it; it goes
/// when that benchmark is next refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The compiled bytecode VM (lower once, then run).
    Vm,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harris 16/4 lowered with three scratch buffers in two scopes: two
    /// at depth 3, one at depth 5.
    fn two_scope_program() -> CompiledProgram {
        let program = tilefuse_workloads::polymage::harris(16, 16)
            .unwrap()
            .program;
        let opt = tilefuse_core::optimize(&program, &tilefuse_core::Options::cpu(&[4, 4])).unwrap();
        let arrays: Vec<_> = program.arrays().iter().map(|a| a.id()).collect();
        let scopes = BTreeMap::from([(arrays[0], 3), (arrays[1], 3), (arrays[2], 5)]);
        crate::lower_tree(&program, &opt.tree, &[], &scopes).unwrap()
    }

    #[test]
    fn clear_lists_map_to_distinct_scopes() {
        let prog = two_scope_program();
        let m = Machine::new(&prog, 1);
        assert_eq!(m.epochs, vec![1, 1]);
        let slots: Vec<usize> = m.scratch.iter().map(|s| s.scope).collect();
        assert_eq!(slots, vec![0, 0, 1]);
        let mut seen = 0;
        for (ip, inst) in prog.insts.iter().enumerate() {
            let list = match inst {
                Inst::Clear(list) => list,
                Inst::LoopClose(l) => &prog.loops[*l].clears,
                _ => continue,
            };
            if list.len() == 3 {
                assert_eq!(m.clear_scopes[ip], vec![0, 1], "ip {ip}");
                seen += 1;
            }
        }
        assert!(seen > 0, "no clear of every buffer to check");
    }

    #[test]
    fn epoch_wrap_resets_exactly_its_scope() {
        let prog = two_scope_program();
        let mut m = Machine::new(&prog, 1);
        // Store one element and one side-map entry per buffer at epoch 1.
        for (i, s) in m.scratch.iter_mut().enumerate() {
            s.put(0, i as f64, 1);
            s.put_side(vec![-1], i as f64, 1);
        }
        // The next bump of scope 0 wraps its epoch back to 1, where the
        // values stored above would hit again without the reset.
        m.epochs[0] = u32::MAX;
        m.bump(0);
        assert_eq!(m.epochs, vec![1, 1]);
        for s in &m.scratch[..2] {
            assert!(s.stamp.iter().all(|&t| t == 0));
            assert!(s.side.is_empty());
            assert_eq!(s.get(0, m.epochs[0]), None);
            assert_eq!(s.get_side(&[-1], m.epochs[0]), None);
        }
        let other = &m.scratch[2];
        assert_eq!(other.get(0, m.epochs[1]), Some(2.0));
        assert_eq!(other.get_side(&[-1], m.epochs[1]), Some(2.0));
    }
}
