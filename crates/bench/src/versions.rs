//! The compiler "versions" compared in the evaluation, and how each is
//! modeled.
//!
//! | version | modeling |
//! |---|---|
//! | Naive | minfuse grouping, no tiling (PolyMage's naïve output) |
//! | MinFuse/SmartFuse/MaxFuse/HybridFuse | the real heuristics from `tilefuse-scheduler`, tiling-after-fusion |
//! | PolyMage | our optimizer with *loosened* overlapped tiles: every fused stage recomputes with the group's **maximum** halo (PolyMage transforms computation spaces only, over-approximating recomputation — Section VI-A) |
//! | Halide | the published manual schedules' granularity: PolyMage-style looseness, but for Harris the manual schedule misses the inlining (no fusion at all), and on GPU Bilateral Grid / Unsharp Mask gain the paper-noted unrolling bonus |
//! | Ours | the post-tiling fusion optimizer (`tilefuse-core`) with tight per-stage footprints |

use std::collections::{BTreeMap, HashMap};
use std::sync::{LazyLock, Mutex, PoisonError};

use tilefuse_core::{optimize, Options};
use tilefuse_memsim::{card_box, summarize_groups, summarize_optimized, ExecGroup};
use tilefuse_scheduler::{schedule, FuseBudget, FusionHeuristic};
use tilefuse_trace::Budget;
use tilefuse_workloads::Workload;

/// Error alias for experiment code.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A compared compiler version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Untiled, unfused, sequential (the PolyMage naïve baseline).
    Naive,
    /// PPCG's minfuse (no fusion) with rectangular tiling.
    MinFuse,
    /// isl's default smartfuse, tiling after fusion.
    SmartFuse,
    /// Aggressive maxfuse (shifting allowed, parallelism lost).
    MaxFuse,
    /// Pluto's hybrid heuristic (✗ on non-rectangular domains).
    HybridFuse,
    /// PolyMage's overlapped tiling (loose, computation-space-only).
    PolyMage,
    /// Halide's manual expert schedules.
    Halide,
    /// The paper's post-tiling fusion (this repository's optimizer).
    Ours,
}

impl Version {
    /// Display name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Version::Naive => "naive",
            Version::MinFuse => "minfuse",
            Version::SmartFuse => "smartfuse",
            Version::MaxFuse => "maxfuse",
            Version::HybridFuse => "hybridfuse",
            Version::PolyMage => "PolyMage",
            Version::Halide => "Halide",
            Version::Ours => "Our work",
        }
    }
}

/// Target platform for summary construction (sets the parallelism cap the
/// optimizer exploits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// OpenMP CPU (one parallel dimension).
    Cpu,
    /// CUDA GPU (two-level parallelism).
    Gpu,
    /// DaVinci accelerator.
    Davinci,
}

/// Memo table for [`summaries`]: several artifacts evaluate the *same*
/// (workload, version, target) triple — Table I, Fig. 8 and Fig. 10 all
/// revisit the PolyMage pipelines — and the summary construction runs the
/// full polyhedral pipeline each time. The key captures every input the
/// result depends on: workload name, parameter values, tile sizes,
/// version, and target.
type SummaryKey = (String, Vec<i64>, Vec<i64>, Version, TargetKind, Budget);
static SUMMARY_MEMO: LazyLock<Mutex<HashMap<SummaryKey, Vec<ExecGroup>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Process-wide resource budget installed for every `optimize` call the
/// experiment pipeline makes (the `--deadline-ms` CLI flag lands here).
/// Defaults to unlimited.
static BUDGET: LazyLock<Mutex<Budget>> = LazyLock::new(|| Mutex::new(Budget::default()));

/// Sets the resource budget used by [`summaries`] and [`compile_time`]
/// for the optimizer versions. Call before generating artifacts.
pub fn set_budget(budget: Budget) {
    *BUDGET.lock().unwrap_or_else(PoisonError::into_inner) = budget;
}

/// The currently-configured experiment budget.
#[must_use]
pub fn current_budget() -> Budget {
    BUDGET
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Degradation outcome of the `Ours` optimizer on one workload, recorded
/// when its summaries were (re)built under the current budget.
#[derive(Debug, Clone)]
pub struct WorkloadDegradation {
    /// Ladder rung that produced the schedule (1 = no degradation).
    pub rung: u8,
    /// Budget trips absorbed on the way.
    pub trips: usize,
    /// Conservatively-approximated feasibility answers during the run.
    pub silent_feasible: u64,
    /// Omega operations charged to the governor.
    pub omega_ops: u64,
    /// Whether the start-up maxfuse shift solver hit its step budget.
    pub fusion_budget_exhausted: bool,
}

static DEGRADATIONS: LazyLock<Mutex<BTreeMap<String, WorkloadDegradation>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Per-workload degradation outcomes of the `Ours` pipeline observed so
/// far in this process (workload name → outcome). Consumed by the
/// experiments JSON summary.
#[must_use]
pub fn degradations() -> BTreeMap<String, WorkloadDegradation> {
    DEGRADATIONS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

fn record_degradation(name: &str, report: &tilefuse_core::Report) {
    let d = &report.degradation;
    DEGRADATIONS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(
            name.to_string(),
            WorkloadDegradation {
                rung: d.rung,
                trips: d.trips.len(),
                silent_feasible: d.silent_feasible,
                omega_ops: d.omega_ops,
                fusion_budget_exhausted: d.fusion_budget_exhausted,
            },
        );
}

/// Builds the execution-group summaries of `version` for `workload`.
///
/// Results are memoized process-wide (the construction is deterministic in
/// the key), so artifacts sharing a configuration pay for it once.
///
/// # Errors
/// Returns an error if the heuristic rejects the program (hybridfuse ✗) or
/// a set operation fails.
pub fn summaries(
    workload: &Workload,
    version: Version,
    target: TargetKind,
) -> Result<Vec<ExecGroup>, BoxError> {
    let key: SummaryKey = (
        workload.name.to_string(),
        workload.program.param_values(&[]),
        workload.tile_sizes.clone(),
        version,
        target,
        current_budget(),
    );
    if let Some(hit) = SUMMARY_MEMO
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Ok(hit.clone());
    }
    let result = summaries_uncached(workload, version, target)?;
    SUMMARY_MEMO
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, result.clone());
    Ok(result)
}

fn summaries_uncached(
    workload: &Workload,
    version: Version,
    target: TargetKind,
) -> Result<Vec<ExecGroup>, BoxError> {
    let program = &workload.program;
    let params = program.param_values(&[]);
    let tiles = &workload.tile_sizes;
    let cap = match target {
        TargetKind::Cpu => Some(1),
        TargetKind::Gpu => Some(2),
        TargetKind::Davinci => None,
    };
    match version {
        Version::Naive => {
            let s = schedule(program, FusionHeuristic::MinFuse)?;
            let mut gs = summarize_groups(program, &s.fusion.groups, &[], &params)?;
            for g in &mut gs {
                g.vectorizable = false;
            }
            Ok(gs)
        }
        Version::MinFuse => {
            let s = schedule(program, FusionHeuristic::MinFuse)?;
            Ok(summarize_groups(program, &s.fusion.groups, tiles, &params)?)
        }
        Version::SmartFuse => {
            let s = schedule(program, FusionHeuristic::SmartFuse)?;
            Ok(summarize_groups(program, &s.fusion.groups, tiles, &params)?)
        }
        Version::MaxFuse => {
            let s = schedule(program, FusionHeuristic::MaxFuse)?;
            Ok(summarize_groups(program, &s.fusion.groups, tiles, &params)?)
        }
        Version::HybridFuse => {
            let s = schedule(program, FusionHeuristic::HybridFuse)?;
            let mut gs = summarize_groups(program, &s.fusion.groups, tiles, &params)?;
            // Pluto's hybrid maximizes fusion at the innermost level,
            // which benefits auto-vectorization (the paper's 2mm note).
            for g in &mut gs {
                g.vectorizable = true;
            }
            Ok(gs)
        }
        Version::Ours => {
            let opts = Options {
                tile_sizes: tiles.clone(),
                parallel_cap: cap,
                startup: FusionHeuristic::MinFuse,
                budget: current_budget(),
                ..Default::default()
            };
            let o = optimize(program, &opts)?;
            record_degradation(workload.name, &o.report);
            Ok(summarize_optimized(program, &o, tiles, &params)?)
        }
        Version::PolyMage => {
            let opts = Options {
                tile_sizes: tiles.clone(),
                parallel_cap: cap,
                startup: FusionHeuristic::MinFuse,
                budget: current_budget(),
                ..Default::default()
            };
            let o = optimize(program, &opts)?;
            let mut gs = summarize_optimized(program, &o, tiles, &params)?;
            loosen_overlap(program, &mut gs, &params)?;
            Ok(gs)
        }
        Version::Halide => {
            if workload.name == "Harris Corner Detection" {
                // The manual schedule misses the inlining opportunity
                // (Section VI-A): only the pointwise chains fuse.
                let s = schedule(program, FusionHeuristic::SmartFuse)?;
                return Ok(summarize_groups(program, &s.fusion.groups, tiles, &params)?);
            }
            let opts = Options {
                tile_sizes: tiles.clone(),
                parallel_cap: cap,
                startup: FusionHeuristic::MinFuse,
                budget: current_budget(),
                ..Default::default()
            };
            let o = optimize(program, &opts)?;
            let mut gs = summarize_optimized(program, &o, tiles, &params)?;
            loosen_overlap(program, &mut gs, &params)?;
            if target == TargetKind::Gpu
                && matches!(workload.name, "Bilateral Grid" | "Unsharp Mask")
            {
                // Manual channel-dimension unrolling (paper, Section VI-B):
                // better ILP and fewer redundant loads.
                for g in &mut gs {
                    g.ops *= 0.80;
                    g.loads *= 0.85;
                    for (_, bytes) in &mut g.external_arrays {
                        *bytes *= 0.93;
                    }
                }
            }
            Ok(gs)
        }
    }
}

/// PolyMage-style looseness: overlapped tiling computed on computation
/// spaces only over-approximates the recomputation region. Modeled as a
/// multiplier on each fused stage's *excess* (its halo triples), capped —
/// PolyMage's own fusion cost model refuses groupings whose overlap blows
/// up past a bound.
fn loosen_overlap(
    program: &tilefuse_pir::Program,
    groups: &mut [ExecGroup],
    params: &[i64],
) -> Result<(), BoxError> {
    const LOOSE: f64 = 3.0;
    const CAP: f64 = 2.0;
    for g in groups.iter_mut() {
        let snapshot: Vec<(tilefuse_pir::StmtId, f64)> =
            g.instances.iter().map(|(&s, &c)| (s, c)).collect();
        for (s, count) in snapshot {
            let stmt = program.stmt(s);
            let base = card_box(stmt.domain(), params)?.max(1.0) * stmt.work_scale();
            let rf = (count / base).max(1.0);
            if rf <= 1.0 {
                continue;
            }
            let loose_rf = (1.0 + LOOSE * (rf - 1.0)).min(CAP.max(rf));
            let extra = base * (loose_rf - rf);
            if extra <= 0.0 {
                continue;
            }
            *g.instances.get_mut(&s).expect("present") += extra;
            let per_inst_ops = stmt.body().rhs.op_count() as f64 + 1.0;
            g.ops += extra * per_inst_ops;
            g.loads += extra * stmt.body().rhs.loads().len() as f64;
            g.stores += extra;
        }
    }
    Ok(())
}

/// Measured compile time of a version's scheduling pass, with maxfuse's
/// exhaustive search budget surfaced (`None` = exceeded budget, the
/// paper's `>24h`).
///
/// # Errors
/// Returns an error if the heuristic rejects the program.
pub fn compile_time(
    workload: &Workload,
    version: Version,
    budget: u64,
) -> Result<Option<f64>, BoxError> {
    let program = &workload.program;
    let start = std::time::Instant::now();
    match version {
        Version::MinFuse | Version::Naive => {
            schedule(program, FusionHeuristic::MinFuse)?;
        }
        Version::SmartFuse => {
            schedule(program, FusionHeuristic::SmartFuse)?;
        }
        Version::HybridFuse => {
            schedule(program, FusionHeuristic::HybridFuse)?;
        }
        Version::MaxFuse => {
            let deps = tilefuse_pir::compute_dependences(program)?;
            let mut b = FuseBudget::new(budget);
            let f = tilefuse_scheduler::fuse(program, &deps, FusionHeuristic::MaxFuse, &mut b)?;
            if f.budget_exhausted {
                return Ok(None);
            }
        }
        Version::Ours | Version::PolyMage | Version::Halide => {
            let opts = Options {
                tile_sizes: workload.tile_sizes.clone(),
                parallel_cap: Some(1),
                startup: FusionHeuristic::MinFuse,
                budget: current_budget(),
                ..Default::default()
            };
            optimize(program, &opts)?;
        }
    }
    Ok(Some(start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilefuse_workloads::polymage::unsharp_mask;

    #[test]
    fn versions_have_labels() {
        assert_eq!(Version::Ours.label(), "Our work");
        assert_eq!(Version::MaxFuse.label(), "maxfuse");
    }

    #[test]
    fn ours_produces_fewer_groups_than_minfuse() {
        let w = unsharp_mask(64, 64).unwrap();
        let min = summaries(&w, Version::MinFuse, TargetKind::Cpu).unwrap();
        let ours = summaries(&w, Version::Ours, TargetKind::Cpu).unwrap();
        assert!(
            ours.len() < min.len(),
            "ours {} vs minfuse {}",
            ours.len(),
            min.len()
        );
    }

    #[test]
    fn polymage_recomputes_at_least_as_much_as_ours() {
        let w = unsharp_mask(64, 64).unwrap();
        let ours = summaries(&w, Version::Ours, TargetKind::Cpu).unwrap();
        let pm = summaries(&w, Version::PolyMage, TargetKind::Cpu).unwrap();
        let total = |gs: &[ExecGroup]| gs.iter().map(ExecGroup::total_instances).sum::<f64>();
        assert!(total(&pm) >= total(&ours));
    }

    #[test]
    fn compile_time_measures() {
        let w = unsharp_mask(32, 32).unwrap();
        let t = compile_time(&w, Version::Ours, 1000).unwrap();
        assert!(t.is_some());
        let t = compile_time(&w, Version::SmartFuse, 1000).unwrap();
        assert!(t.unwrap() >= 0.0);
    }
}
