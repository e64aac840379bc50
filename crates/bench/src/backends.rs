//! Interpreter-vs-VM backend comparison (`experiments … --backend vm`).
//!
//! Unlike the modeled tables, this artifact *actually executes* every
//! PolyMage workload on both execution backends — the reference tree
//! interpreter and the register-based bytecode VM — at a real (small)
//! image size, times each, and verifies the VM is bit-exact against the
//! interpreter: every buffer compared by f64 bit pattern, plus full
//! execution-statistics equality.
//!
//! Every workload is compared on its *optimized* tree. If the interpreter
//! cannot execute an optimized tree, the comparison falls back to the
//! minfuse-scheduled tree — loudly: a warning goes to stderr, the row
//! records `"scheduled-fallback"` plus the triggering error, and the
//! driver fails the run unless the workload is in
//! [`FALLBACK_ALLOWLIST`]. The allowlist is empty: the historical
//! entries (Local Laplacian, Multiscale Interpolation, whose optimized
//! trees hit an `Unbounded` scanner failure) were fixed by clipping
//! extension relations with the enclosing loop context during
//! flattening.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::tables::ResultTable;
use crate::versions::BoxError;
use tilefuse_codegen::{execute_compiled, execute_tree, ExecContext, ExecStats};
use tilefuse_core::{optimize, Options};
use tilefuse_pir::Program;
use tilefuse_scheduler::FusionHeuristic;
use tilefuse_workloads::polymage;

/// Image size for the executed comparison. The interpreter is the slow
/// side (minutes per workload at benchmark sizes); 32×32 keeps the whole
/// artifact under a minute while still covering every loop structure.
pub const BACKEND_IMG: i64 = 32;

/// Tile sizes for the executed comparison (the auto-tuned Table I tiles
/// target 2048×2048 images and degenerate at 32×32).
pub const BACKEND_TILE: [i64; 2] = [4, 4];

/// Workloads allowed to fall back to the scheduled tree without failing
/// the `experiments --backend vm` run. Empty: every optimized tree is
/// expected to execute.
pub const FALLBACK_ALLOWLIST: &[&str] = &[];

/// One workload's measured interp-vs-VM comparison.
pub struct BackendRow {
    /// Workload name as the paper spells it.
    pub name: String,
    /// Which tree was compared: `"optimized"`, or `"scheduled-fallback"`
    /// when the interpreter cannot run the optimized tree (see module
    /// docs).
    pub tree: &'static str,
    /// The error that triggered a fallback, if any.
    pub fallback_reason: Option<String>,
    /// Wall-clock of `lower_tree` (bytecode compilation), milliseconds.
    pub lower_ms: f64,
    /// Sequential interpreter execution, milliseconds.
    pub interp_ms: f64,
    /// Sequential VM execution (excluding lowering), milliseconds.
    pub vm_ms: f64,
    /// Whether every buffer bit and every statistic matched.
    pub bit_exact: bool,
}

impl BackendRow {
    /// Interpreter time over VM time (>1 means the VM is faster).
    pub fn speedup(&self) -> f64 {
        if self.vm_ms > 0.0 {
            self.interp_ms / self.vm_ms
        } else {
            f64::INFINITY
        }
    }

    /// Whether this row fell back to the scheduled tree on a workload not
    /// in [`FALLBACK_ALLOWLIST`] (a hard failure for the driver).
    pub fn fallback_violation(&self) -> bool {
        self.fallback_reason.is_some() && !FALLBACK_ALLOWLIST.contains(&self.name.as_str())
    }
}

pub(crate) fn bit_exact(
    program: &Program,
    interp: &(ExecContext, ExecStats),
    vm: &(ExecContext, ExecStats),
) -> bool {
    for a in program.arrays() {
        let bi = interp.0.buffer(a.id()).data();
        let bv = vm.0.buffer(a.id()).data();
        if bi.len() != bv.len() {
            return false;
        }
        if bi.iter().zip(bv).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return false;
        }
    }
    interp.1 == vm.1
}

fn compare_one(program: &Program) -> Result<BackendRow, BoxError> {
    let opt = optimize(program, &Options::cpu(&BACKEND_TILE))?;

    // Interpreter is the oracle: if it cannot run the optimized tree,
    // compare on the scheduled tree instead — and make it loud.
    let (tree, scopes, kind, fallback_reason) =
        match execute_tree(program, &opt.tree, &[], &opt.report.scratch_scopes) {
            Ok(_) => (
                opt.tree.clone(),
                opt.report.scratch_scopes.clone(),
                "optimized",
                None,
            ),
            Err(e) => {
                eprintln!(
                    "warning: {}: interpreter cannot run the optimized tree ({e}); \
                     falling back to the minfuse-scheduled tree",
                    program.name()
                );
                let sched = tilefuse_scheduler::schedule(program, FusionHeuristic::MinFuse)?;
                (
                    sched.tree,
                    BTreeMap::new(),
                    "scheduled-fallback",
                    Some(e.to_string()),
                )
            }
        };

    let t0 = Instant::now();
    let interp = execute_tree(program, &tree, &[], &scopes)?;
    let interp_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let compiled = tilefuse_codegen::lower_tree(program, &tree, &[], &scopes)?;
    let lower_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let vm = execute_compiled(program, &compiled, 1)?;
    let vm_ms = t0.elapsed().as_secs_f64() * 1e3;

    Ok(BackendRow {
        name: program.name().to_string(),
        tree: kind,
        fallback_reason,
        lower_ms,
        interp_ms,
        vm_ms,
        bit_exact: bit_exact(program, &interp, &vm),
    })
}

/// Executes every PolyMage workload on both backends sequentially (no
/// worker pool — these are wall-clock timings) and returns one row per
/// workload.
///
/// # Errors
/// Returns an error if a workload fails to build, optimize, lower, or
/// execute on either backend. A bit-exactness *mismatch* or a fallback
/// outside the allowlist is not an error here — both are reported in the
/// row (the driver fails the run on them).
pub fn compare_backends(img: i64) -> Result<Vec<BackendRow>, BoxError> {
    let mut rows = Vec::new();
    for w in polymage::all(img, img)? {
        rows.push(compare_one(&w.program)?);
    }
    Ok(rows)
}

/// Renders the comparison as a printable table.
pub fn backend_table(rows: &[BackendRow]) -> ResultTable {
    ResultTable {
        title: format!(
            "Backends — interpreter vs. bytecode VM (measured, {BACKEND_IMG}x{BACKEND_IMG}, \
             tile {BACKEND_TILE:?}, 1 thread)"
        ),
        columns: [
            "tree",
            "lower (ms)",
            "interp (ms)",
            "VM (ms)",
            "speedup",
            "bit-exact",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect(),
        rows: rows
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    vec![
                        r.tree.to_string(),
                        format!("{:.1}", r.lower_ms),
                        format!("{:.1}", r.interp_ms),
                        format!("{:.1}", r.vm_ms),
                        format!("{:.2}x", r.speedup()),
                        if r.bit_exact { "yes" } else { "NO" }.to_string(),
                    ],
                )
            })
            .collect(),
    }
}
