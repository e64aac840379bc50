//! The compiled executable form of a schedule tree: a register-based
//! bytecode program.
//!
//! The tree-walking interpreter in [`crate::interp`] enumerates every
//! (schedule tuple, instance) pair through the presburger [`Scanner`],
//! sorts the full work list, and re-resolves parameter names, index
//! expressions and scratch keys per instance. The bytecode backend pays
//! those costs **once, at lowering time** (see [`crate::lower`]): the
//! merged loop nest becomes explicit [`Inst::LoopOpen`]/[`Inst::LoopClose`]
//! instructions whose affine bounds are compiled rows over an integer
//! register file, statement bodies become flat register programs over
//! fused affine accesses with parameters folded in, and tile-local scratch
//! becomes epoch-stamped flat storage instead of a `BTreeMap` keyed by
//! coordinate vectors.
//!
//! The execution semantics are defined to be *bit-identical* to the
//! interpreter — same instance order, same float operation order, same
//! [`crate::ExecStats`] down to the scratch-hit count — which is what the
//! fuzz oracle's VM differential check enforces.
//!
//! [`Scanner`]: tilefuse_presburger::Scanner

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tilefuse_pir::{ArrayId, BinOp, UnOp};
use tilefuse_presburger::BasicSet;

/// A compiled affine bound for one loop level or fiber level:
/// `coeff * x` compared against `constant + Σ terms`, where each term reads
/// one integer register (schedule dims first, then the owning entry's
/// instance dims). Parameter contributions are folded into `constant` at
/// lowering time.
///
/// * as a lower bound: `x >= ceil(-eval / coeff)`
/// * as an upper bound: `x <= floor(eval / coeff)`
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CBound {
    /// Positive coefficient of the bounded variable.
    pub coeff: i64,
    /// `(register, coefficient)` terms over outer dims.
    pub terms: Vec<(usize, i64)>,
    /// Constant part (parameters already substituted).
    pub constant: i64,
}

impl CBound {
    /// Evaluates the affine part against the register file.
    #[inline]
    pub(crate) fn eval(&self, regs: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(r, c) in &self.terms {
            acc += c * regs[r];
        }
        acc
    }
}

/// The iteration range of one loop or fiber level, as a union box over
/// *alternative* bound groups:
///
/// * `lo = min over lower groups of max(rows)`
/// * `hi = max over upper groups of min(rows)`
///
/// A single-group level is an exact Fourier–Motzkin range (the common
/// case). Multiple groups arise when a many-disjunct union is collapsed
/// into one stream: each disjunct contributes its bound rows as one group,
/// so the level covers the union of the per-disjunct boxes (points in the
/// box but outside the union are rejected by the stream's exact membership
/// test). An empty outer vector — or any empty group — means the level is
/// unbounded in that direction.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CLevel {
    pub lowers: Vec<Vec<CBound>>,
    pub uppers: Vec<Vec<CBound>>,
}

impl CLevel {
    /// Effective lower bound under the register file; `None` if unbounded.
    pub(crate) fn lo(&self, regs: &[i64]) -> Option<i64> {
        let mut best: Option<i64> = None;
        for g in &self.lowers {
            if g.is_empty() {
                return None;
            }
            let mut m = i64::MIN;
            for b in g {
                m = m.max(crate::lower::cdiv(-b.eval(regs), b.coeff));
            }
            best = Some(best.map_or(m, |x| x.min(m)));
        }
        best
    }

    /// Effective upper bound under the register file; `None` if unbounded.
    pub(crate) fn hi(&self, regs: &[i64]) -> Option<i64> {
        let mut best: Option<i64> = None;
        for g in &self.uppers {
            if g.is_empty() {
                return None;
            }
            let mut m = i64::MAX;
            for b in g {
                m = m.min(crate::lower::fdiv(b.eval(regs), b.coeff));
            }
            best = Some(best.map_or(m, |x| x.max(m)));
        }
        best
    }
}

/// How the VM enumerates one instance level of a stream.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum InstLevel {
    /// A runtime range: combine and reduction dims, equalities with a
    /// coefficient other than 1, union boxes without a filter.
    Range(CLevel),
    /// The dimension equals `at` over the outer registers: every group of
    /// the level held `x >= at` and `x <= at`. The point exists iff every
    /// `check` row evaluates to a non-negative value — the level's other
    /// rows with `at` substituted, minus those the enclosing guards
    /// already hold (see `lower`'s invariant 5).
    Pinned { at: CAffine, check: Vec<CAffine> },
}

/// One disjunct of one flattened entry's schedule graph, viewed as a
/// scannable loop nest over `[sched dims..., instance dims...]`.
#[derive(Debug, Clone)]
pub(crate) struct StreamMeta {
    /// Index of the owning flattened entry (execution-order tiebreak).
    pub entry: usize,
    /// Per-instance-dim levels (`n_sched..n_sched + n_inst`), pinned where
    /// lowering could name the one value a range would contain.
    pub inst_levels: Vec<InstLevel>,
    /// Exact membership test of the point `[sched | inst]`. Present when
    /// the disjunct carries existential divs (the compiled per-level
    /// bounds are exact otherwise — see `Scanner::branch_exact`), or when
    /// this stream's levels are the union box of a many-disjunct union
    /// and must reject box points outside the union.
    pub exact: Option<CFilter>,
}

/// One div-free disjunct of a stream's exact set, compiled: a point is in
/// it iff every `eqs` row evaluates to zero and every `ineqs` row to a
/// non-negative value over the register file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CDisjunct {
    pub eqs: Vec<CAffine>,
    pub ineqs: Vec<CAffine>,
}

impl CDisjunct {
    #[inline]
    pub(crate) fn contains(&self, regs: &[i64]) -> bool {
        self.ineqs.iter().all(|r| r.eval(regs) >= 0) && self.eqs.iter().all(|r| r.eval(regs) == 0)
    }
}

/// A stream's exact set as the VM tests it: the point is a member iff some
/// disjunct accepts it.
#[derive(Debug, Clone)]
pub(crate) struct CFilter {
    /// The div-free disjuncts, compiled at lowering time.
    pub rows: Vec<CDisjunct>,
    /// The disjuncts that carry existential divs: membership means solving
    /// for the divs, so these keep their set and take the point as
    /// `[params | sched | inst]`.
    pub divs: Vec<BasicSet>,
}

/// Per-stream guard of a merged loop: the stream participates in the
/// iterations of `level`'s range at this loop's dimension.
#[derive(Debug, Clone)]
pub(crate) struct StreamGuard {
    pub stream: usize,
    pub level: CLevel,
}

/// A merged runtime loop over one schedule dimension: iterates the union
/// of its streams' ranges in ascending order, keeping each stream's
/// active flag in sync with its guard.
#[derive(Debug, Clone)]
pub(crate) struct LoopMeta {
    /// The schedule dimension (register) this loop drives.
    pub dim: usize,
    /// Coincident at this depth and outside every scratch scope: no
    /// dependence crosses distinct values, so `execute_compiled` may cut
    /// the iterations into edge-free pool tasks here.
    pub parallel: bool,
    /// Instruction index of the matching [`Inst::LoopOpen`].
    pub open_ip: usize,
    /// Instruction index of the matching [`Inst::LoopClose`].
    pub close_ip: usize,
    /// Per-stream iteration guards.
    pub guards: Vec<StreamGuard>,
    /// Scratch buffers (indices into [`CompiledProgram::scratch`]) whose
    /// scope is deeper than `dim`: cleared on every increment, exactly
    /// when the interpreter's prefix-change test would clear them. (The
    /// VM bumps one epoch per distinct scope of the list.)
    pub clears: Vec<usize>,
}

/// Kernel shape of a fused loop, for diagnostics and disassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelKind {
    /// Every instance dim is pinned to an affine function of the schedule
    /// dims and the accesses are pure translations: a pointwise kernel.
    Point,
    /// Instance dims pinned, but some load reads at a constant offset
    /// from the store: a stencil.
    Stencil,
    /// Some instance dim spans a range per schedule point (reduction /
    /// combine kernels).
    Combine,
}

impl KernelKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelKind::Point => "point",
            KernelKind::Stencil => "stencil",
            KernelKind::Combine => "combine",
        }
    }
}

/// The specialized innermost-loop instruction: a single-stream loop over
/// the deepest non-constant schedule dimension, with any deeper constant
/// dims pre-pinned. The whole iteration — bounds, fiber walk, body — runs
/// inside one dispatch, which is where the VM's speedup over the tree
/// interpreter concentrates.
#[derive(Debug, Clone)]
pub(crate) struct FusedMeta {
    /// The schedule dimension iterated.
    pub dim: usize,
    /// See [`LoopMeta::parallel`].
    pub parallel: bool,
    /// Bounds of the single stream at `dim`.
    pub level: CLevel,
    /// Deeper schedule dims statically pinned for this stream.
    pub pins: Vec<(usize, i64)>,
    /// The fiber executed per iteration.
    pub fiber: usize,
    /// Shape classification (disassembly only).
    pub kind: KernelKind,
}

/// The leaf of the loop nest: for one flattened entry, enumerate the
/// instance dims under the current schedule point (in lexicographic
/// order, deduplicated across disjunct streams exactly like the
/// interpreter's Scanner) and run the compiled body per instance.
#[derive(Debug, Clone)]
pub(crate) struct FiberMeta {
    /// Owning flattened entry (index into [`CompiledProgram::entry_labels`]).
    pub entry: usize,
    /// Streams that may be active here (subset of the entry's streams).
    pub streams: Vec<usize>,
    /// Streams partitioned into *walk groups*: members of a group have
    /// identical instance levels and exactness test, so at every schedule
    /// point where a member is active the group's walk enumerates that
    /// member's instances, and one walk per group (if any member is
    /// active) covers them all. Disjunct case-splits of a tiled halo
    /// relation produce many streams that differ only in schedule-dim
    /// coverage — this collapses the per-point fiber cost from
    /// O(streams) to O(groups).
    pub groups: Vec<Vec<usize>>,
    /// The compiled statement body.
    pub body: usize,
    /// Number of instance dimensions.
    pub n_inst: usize,
}

/// One bytecode instruction. Loop-carried state lives in per-loop frames
/// (a loop id appears at most once per program, so frames need no stack).
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Evaluate bounds/guards of `loops[i]`; enter the loop or jump past
    /// its close when no stream contributes.
    LoopOpen(usize),
    /// Increment `loops[i]`, clear deeper-scoped scratch, re-guard, and
    /// either jump back to the body or fall through.
    LoopClose(usize),
    /// Pin a schedule dimension to a compile-time constant (static
    /// sequence/padding dims — no runtime loop is spun).
    SetDim { dim: usize, value: i64 },
    /// Advance the epochs of the listed scratch buffers' scopes (emitted
    /// between static partitions, mirroring a prefix change at that depth).
    Clear(Vec<usize>),
    /// Run `fibers[i]` under the current schedule point.
    Fiber(usize),
    /// Run `fused[i]` (specialized innermost loop).
    Fused(usize),
}

/// A compiled affine expression over the integer registers (an access
/// coordinate, a row of a [`CDisjunct`], or a pinned level's value or
/// check row); parameters folded into `constant`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CAffine {
    pub terms: Vec<(usize, i64)>,
    pub constant: i64,
}

impl CAffine {
    /// Evaluates against the register file.
    #[inline]
    pub(crate) fn eval(&self, regs: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(r, c) in &self.terms {
            acc += c * regs[r];
        }
        acc
    }
}

/// A fused strided access: buffer + per-axis affine coordinates. The VM
/// folds the coordinates into a flat row-major offset with per-axis
/// bounds checks (same failure condition as `Buffer::index`).
#[derive(Debug, Clone)]
pub(crate) struct CAccess {
    pub buf: usize,
    pub coords: Vec<CAffine>,
}

/// One register operation of a compiled statement body. Value registers
/// are `f64`; index registers are the shared integer dim file.
#[derive(Debug, Clone)]
pub(crate) enum BodyOp {
    /// `r[dst] = v`
    Const { dst: usize, v: f64 },
    /// `r[dst] = dims[reg] as f64` (an `Iter` expression)
    Iter { dst: usize, reg: usize },
    /// `r[dst] = load(accesses[acc])` — scratch-first for tile-local
    /// buffers, falling back to global memory.
    Load { dst: usize, acc: usize },
    /// `r[dst] = op(r[a], r[b])`
    Bin {
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
    },
    /// `r[dst] = op(r[a])`
    Un { op: UnOp, dst: usize, a: usize },
}

/// A statement body compiled to register form.
#[derive(Debug, Clone)]
pub(crate) struct CompiledBody {
    /// Index into [`CompiledProgram::stmt_names`] (stats attribution).
    pub stmt: usize,
    /// Ops in interpreter evaluation order (left-to-right tree walk), so
    /// loads, errors and float rounding are replayed identically.
    pub ops: Vec<BodyOp>,
    /// Load accesses referenced by [`BodyOp::Load`].
    pub accesses: Vec<CAccess>,
    /// The store target access.
    pub store: CAccess,
    /// Register holding the final rhs value.
    pub result: usize,
    /// Register file size.
    pub n_regs: usize,
}

/// A buffer as the VM sees it.
#[derive(Debug, Clone)]
pub(crate) struct BufMeta {
    pub array: ArrayId,
    pub name: String,
    pub shape: Vec<i64>,
    pub len: usize,
    /// `Some(index into scratch)` when the buffer is tile-local.
    pub scratch: Option<usize>,
}

/// Epoch-stamped tile-local storage descriptor.
#[derive(Debug, Clone)]
pub(crate) struct ScratchMeta {
    pub buf: usize,
    /// Schedule-prefix length identifying a tile (the interpreter's
    /// scratch scope).
    pub scope: usize,
}

/// A schedule tree lowered to executable bytecode for one concrete
/// parameter binding. Produced by [`crate::lower_tree`], executed by
/// [`crate::execute_compiled`], pretty-printed by [`disasm`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) name: String,
    pub(crate) insts: Vec<Inst>,
    /// For each [`Inst::SetDim`] ip, the ip just past its static partition:
    /// where a run pinned to a different value of that dimension resumes.
    pub(crate) partition_end: BTreeMap<usize, usize>,
    pub(crate) loops: Vec<LoopMeta>,
    pub(crate) fused: Vec<FusedMeta>,
    pub(crate) fibers: Vec<FiberMeta>,
    pub(crate) streams: Vec<StreamMeta>,
    pub(crate) bodies: Vec<CompiledBody>,
    pub(crate) bufs: Vec<BufMeta>,
    pub(crate) scratch: Vec<ScratchMeta>,
    pub(crate) stmt_names: Vec<String>,
    /// Common schedule-tuple length; dim registers `0..n_sched` are the
    /// schedule dims, `n_sched..` the current fiber's instance dims.
    pub(crate) n_sched: usize,
    /// Widest instance-dim count across entries (register file sizing).
    pub(crate) max_inst: usize,
    pub(crate) param_names: Vec<String>,
    pub(crate) param_values: Vec<i64>,
    /// `"S2 (entry 3)"`-style labels, one per flattened entry.
    pub(crate) entry_labels: Vec<String>,
}

impl CompiledProgram {
    /// Number of bytecode instructions.
    pub fn n_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of merged runtime loops.
    pub fn n_loops(&self) -> usize {
        self.loops.len()
    }

    /// Number of specialized fused inner loops.
    pub fn n_fused(&self) -> usize {
        self.fused.len()
    }
}

fn render_affine(out: &mut String, terms: &[(usize, i64)], constant: i64, names: &Names) {
    let mut first = true;
    for &(r, c) in terms {
        if c == 0 {
            continue;
        }
        let v = names.reg(r);
        if first {
            match c {
                1 => {
                    let _ = write!(out, "{v}");
                }
                -1 => {
                    let _ = write!(out, "-{v}");
                }
                _ => {
                    let _ = write!(out, "{c}{v}");
                }
            }
            first = false;
        } else if c > 0 {
            if c == 1 {
                let _ = write!(out, " + {v}");
            } else {
                let _ = write!(out, " + {c}{v}");
            }
        } else if c == -1 {
            let _ = write!(out, " - {v}");
        } else {
            let _ = write!(out, " - {}{v}", -c);
        }
    }
    if first {
        let _ = write!(out, "{constant}");
    } else if constant > 0 {
        let _ = write!(out, " + {constant}");
    } else if constant < 0 {
        let _ = write!(out, " - {}", -constant);
    }
}

/// Register naming for the disassembler: schedule dims print as `d0..`,
/// instance dims as `i0..`.
struct Names {
    n_sched: usize,
}

impl Names {
    fn reg(&self, r: usize) -> String {
        if r < self.n_sched {
            format!("d{r}")
        } else {
            format!("i{}", r - self.n_sched)
        }
    }
}

fn render_group(lowers: &[CBound], uppers: &[CBound], var: &str, names: &Names) -> String {
    let mut parts = Vec::new();
    for b in lowers {
        let mut e = String::new();
        render_affine(&mut e, &b.terms, b.constant, names);
        if b.coeff == 1 {
            parts.push(format!("{var} >= -({e})"));
        } else {
            parts.push(format!("{} * {var} >= -({e})", b.coeff));
        }
    }
    for b in uppers {
        let mut e = String::new();
        render_affine(&mut e, &b.terms, b.constant, names);
        if b.coeff == 1 {
            parts.push(format!("{var} <= {e}"));
        } else {
            parts.push(format!("{} * {var} <= {e}", b.coeff));
        }
    }
    parts.join(", ")
}

fn render_range(level: &CLevel, var: &str, names: &Names) -> String {
    if level.lowers.len() <= 1 && level.uppers.len() <= 1 {
        let empty: &[CBound] = &[];
        return render_group(
            level.lowers.first().map_or(empty, Vec::as_slice),
            level.uppers.first().map_or(empty, Vec::as_slice),
            var,
            names,
        );
    }
    let lo: Vec<String> = level
        .lowers
        .iter()
        .map(|g| render_group(g, &[], var, names))
        .collect();
    let hi: Vec<String> = level
        .uppers
        .iter()
        .map(|g| render_group(&[], g, var, names))
        .collect();
    format!("min[{}] max[{}]", lo.join(" | "), hi.join(" | "))
}

fn render_access(prog: &CompiledProgram, acc: &CAccess, names: &Names) -> String {
    let mut s = prog.bufs[acc.buf].name.clone();
    s.push('[');
    for (k, c) in acc.coords.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        render_affine(&mut s, &c.terms, c.constant, names);
    }
    s.push(']');
    s
}

fn bin_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Max => "max",
        BinOp::Min => "min",
    }
}

fn un_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Relu => "relu",
        UnOp::Exp => "exp",
        UnOp::Sqrt => "sqrt",
        UnOp::Abs => "abs",
        UnOp::Recip => "recip",
    }
}

/// Pretty-prints a compiled program as a stable textual listing: buffer
/// table, per-statement register bodies, and the instruction stream with
/// loop nesting shown by indentation. Golden-snapshot tests pin this
/// output, so the format is deliberately deterministic.
pub fn disasm(prog: &CompiledProgram) -> String {
    let names = Names {
        n_sched: prog.n_sched,
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        ";; {} — compiled schedule ({} sched dims, {} insts, {} loops, {} fused)",
        prog.name,
        prog.n_sched,
        prog.insts.len(),
        prog.loops.len(),
        prog.fused.len()
    );
    let params: Vec<String> = prog
        .param_names
        .iter()
        .zip(&prog.param_values)
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    let _ = writeln!(s, ";; params: {}", params.join(", "));
    let _ = writeln!(s, "buffers:");
    for (i, b) in prog.bufs.iter().enumerate() {
        let shape: Vec<String> = b.shape.iter().map(i64::to_string).collect();
        let scratch = match b.scratch {
            Some(sc) => format!("  scratch(scope {})", prog.scratch[sc].scope),
            None => String::new(),
        };
        let _ = writeln!(s, "  b{i} {}[{}]{}", b.name, shape.join(", "), scratch);
    }
    for (i, body) in prog.bodies.iter().enumerate() {
        let _ = writeln!(
            s,
            "body {i} ({}, {} regs):",
            prog.stmt_names[body.stmt], body.n_regs
        );
        for op in &body.ops {
            match op {
                BodyOp::Const { dst, v } => {
                    let _ = writeln!(s, "  r{dst} <- const {v}");
                }
                BodyOp::Iter { dst, reg } => {
                    let _ = writeln!(s, "  r{dst} <- iter {}", names.reg(*reg));
                }
                BodyOp::Load { dst, acc } => {
                    let _ = writeln!(
                        s,
                        "  r{dst} <- load {}",
                        render_access(prog, &body.accesses[*acc], &names)
                    );
                }
                BodyOp::Bin { op, dst, a, b } => {
                    let _ = writeln!(s, "  r{dst} <- {} r{a}, r{b}", bin_name(*op));
                }
                BodyOp::Un { op, dst, a } => {
                    let _ = writeln!(s, "  r{dst} <- {} r{a}", un_name(*op));
                }
            }
        }
        let _ = writeln!(
            s,
            "  store {} <- r{}",
            render_access(prog, &body.store, &names),
            body.result
        );
    }
    let _ = writeln!(s, "code:");
    let mut depth = 0usize;
    for (ip, inst) in prog.insts.iter().enumerate() {
        if matches!(inst, Inst::LoopClose(_)) {
            depth = depth.saturating_sub(1);
        }
        let pad = "  ".repeat(depth);
        match inst {
            Inst::LoopOpen(l) => {
                let m = &prog.loops[*l];
                let par = if m.parallel { " par" } else { "" };
                let guards: Vec<String> = m
                    .guards
                    .iter()
                    .map(|g| {
                        format!(
                            "s{}{{{}}}",
                            g.stream,
                            render_range(&g.level, &names.reg(m.dim), &names)
                        )
                    })
                    .collect();
                let _ = writeln!(
                    s,
                    "{ip:04} {pad}loop_open  L{l} {}{par}  {}",
                    names.reg(m.dim),
                    guards.join(" ")
                );
                depth += 1;
            }
            Inst::LoopClose(l) => {
                let m = &prog.loops[*l];
                let clears = if m.clears.is_empty() {
                    String::new()
                } else {
                    let list: Vec<String> = m.clears.iter().map(|c| format!("sc{c}")).collect();
                    format!("  clear[{}]", list.join(","))
                };
                let _ = writeln!(s, "{ip:04} {pad}loop_close L{l}{clears}");
            }
            Inst::SetDim { dim, value } => {
                let _ = writeln!(s, "{ip:04} {pad}set        {} = {value}", names.reg(*dim));
            }
            Inst::Clear(list) => {
                let items: Vec<String> = list.iter().map(|c| format!("sc{c}")).collect();
                let _ = writeln!(s, "{ip:04} {pad}clear      [{}]", items.join(","));
            }
            Inst::Fiber(f) => {
                let m = &prog.fibers[*f];
                let streams: Vec<String> = m.streams.iter().map(|st| format!("s{st}")).collect();
                let _ = writeln!(
                    s,
                    "{ip:04} {pad}fiber      {} body={} inst_dims={} groups={} streams={{{}}}",
                    prog.entry_labels[m.entry],
                    m.body,
                    m.n_inst,
                    m.groups.len(),
                    streams.join(",")
                );
            }
            Inst::Fused(f) => {
                let m = &prog.fused[*f];
                let fb = &prog.fibers[m.fiber];
                let par = if m.parallel { " par" } else { "" };
                let pins: Vec<String> = m
                    .pins
                    .iter()
                    .map(|(d, v)| format!("{}={v}", names.reg(*d)))
                    .collect();
                let pins = if pins.is_empty() {
                    String::new()
                } else {
                    format!("  pin[{}]", pins.join(","))
                };
                let _ = writeln!(
                    s,
                    "{ip:04} {pad}fused_loop {} kind={}{par} {}  {{{}}}{pins} body={}",
                    names.reg(m.dim),
                    m.kind.name(),
                    prog.entry_labels[fb.entry],
                    render_range(&m.level, &names.reg(m.dim), &names),
                    fb.body,
                );
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caffine_eval() {
        let a = CAffine {
            terms: vec![(0, 2), (2, -1)],
            constant: 3,
        };
        assert_eq!(a.eval(&[5, 0, 4]), 2 * 5 - 4 + 3);
    }

    #[test]
    fn kernel_kind_names() {
        assert_eq!(KernelKind::Point.name(), "point");
        assert_eq!(KernelKind::Stencil.name(), "stencil");
        assert_eq!(KernelKind::Combine.name(), "combine");
    }
}
