//! The differential oracle: one spec, every cross-check this repository
//! can make.
//!
//! A single oracle run drives the full pipeline — conservative start-up
//! fusion, live-out tiling, extension-schedule construction, Algorithm 2/3
//! grafting, interpretation — and fails on the *first* of:
//!
//! 1. a build/optimize/codegen error, or an optimize run in which Omega's
//!    built-in branch cap answered "feasible" without proof
//!    (`silent-feasible`, read from that run's `DegradationReport`);
//! 2. the exact legality checker rejecting the transformed tree;
//! 3. live-out buffers differing **bit-exactly** (tolerance 0) from the
//!    reference interpretation of the original program;
//! 4. interpreter instance counts differing from the Presburger
//!    `count_points` of each flattened entry's schedule graph (a Scanner
//!    enumeration vs. symbolic counting differential);
//! 5. a live-out or unfused statement executing a different number of
//!    instances than the reference (fusion must not introduce
//!    recomputation there, and DCE may only drop *dead* instances —
//!    live-outs never shrink);
//! 6. a shared producer fused into several live-outs with per-live-out
//!    slices that intersect (an independent re-verification of
//!    Algorithm 3's Rule 2, which is what catches the deliberately
//!    injected `FaultInjection::SkipSharedSliceCheck` bug);
//! 7. any of the above differing when the presburger memo layers
//!    (emptiness table, inline emptiness flags, interval pre-check) are
//!    disabled — memoization must be semantically invisible.
//!
//! The two execution-runtime checks keep the numbers that the docs, CI
//! and fuzz logs know them by (the slot between was the parallel
//! interpreter's, retired with it); both drive the work-stealing pool at
//! every [`OracleConfig::threads`] value:
//!
//! 9. the register-based bytecode VM (the optimized tree lowered via
//!    `lower_tree`, executed sequentially and — coincident loops cut into
//!    pool tasks — at every thread count) differing from the sequential
//!    interpreter in any buffer bit or statistic —
//!    `FaultInjection::VmMisLower` deliberately corrupts the lowering
//!    here to prove this check catches a miscompile;
//! 10. the tile-level task-DAG work-stealing runtime (each task the
//!     compiled program run under the tile's prefix, at every thread count
//!     plus a single-threaded *adversarial* drain that runs the latest
//!     ready task first) differing from the sequential interpreter in any
//!     buffer bit or statistic — `FaultInjection::DagDropEdge` deliberately
//!     removes one inter-tile dependence edge to prove the adversarial
//!     drain exposes a missing edge.
//!
//! Under a budget ([`OracleConfig::budget`]) one more check applies: a
//! governed run that ends on rung 1 with no trips must return the
//! ungoverned plan (`rung1-plan`) — budgets stop work, they never change
//! answers.

use std::collections::{BTreeMap, BTreeSet};

use crate::spec::{build_program, ProgramSpec};
use tilefuse_codegen::{
    check_outputs_match, execute_compiled, execute_tree, execute_tree_dag_with, lower_tree,
    reference_execute, ExecBackend, ExecStats,
};
use tilefuse_core::{optimize, DegradationReport, FaultInjection, Optimized, Options};
use tilefuse_pir::Program;
use tilefuse_presburger::stats as pstats;
use tilefuse_schedtree::{flatten, render};
use tilefuse_scheduler::{build_tile_dag, check_schedule, FusionHeuristic};

/// What the oracle runs and compares.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Pool thread counts for the VM and tile-DAG differentials.
    pub threads: Vec<usize>,
    /// Re-run the pipeline with the presburger memo disabled and compare.
    /// Ignored (forced off) when `budget` is set: memoization legitimately
    /// shifts *which* call exhausts the budget first, so the two runs may
    /// settle on different (each individually bit-exact) ladder rungs.
    pub memo_diff: bool,
    /// Deliberate optimizer bug to inject (the oracle must catch it).
    pub fault: FaultInjection,
    /// Resource budget to install for the optimize run. Every other check
    /// still applies — whatever ladder rung the governor forces, the
    /// result must stay legal and bit-exact — plus the degradation-report
    /// coherence checks and, on rung 1 without trips, `rung1-plan`.
    pub budget: Option<tilefuse_trace::Budget>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            threads: vec![2, 5],
            memo_diff: true,
            fault: FaultInjection::None,
            budget: None,
        }
    }
}

/// One oracle failure: which check tripped, and the evidence.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Stable check identifier (the shrinker preserves it).
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl Failure {
    /// The failure's equivalence class for shrinking. All *semantic*
    /// violations (wrong buffers, wrong counts, broken legality or
    /// disjointness) are one class — the same underlying optimizer bug
    /// routinely surfaces through different checks as a program shrinks —
    /// while operational errors (build/optimize/execute refusing to run)
    /// each keep their own identity so the shrinker never slides from a
    /// miscompile into a mere crash.
    pub fn class(&self) -> &'static str {
        match self.check {
            "legality"
            | "output-mismatch"
            | "instance-count"
            | "liveout-count"
            | "unfused-count"
            | "shared-slice-overlap"
            | "memo-diff"
            | "vm-mismatch"
            | "dag-mismatch" => "semantic",
            other => other,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

fn fail(check: &'static str, detail: impl std::fmt::Display) -> Failure {
    Failure {
        check,
        detail: detail.to_string(),
    }
}

/// Number of live [`MemoOff`] guards. The presburger memo switch is
/// process-global and oracles run concurrently, so the switch is only ever
/// flipped under this lock: off while the count is non-zero.
static MEMO_OFF_DEPTH: std::sync::Mutex<usize> = std::sync::Mutex::new(0);

fn memo_off_depth() -> std::sync::MutexGuard<'static, usize> {
    // The count is valid at every step, so a poisoned lock is still usable.
    MEMO_OFF_DEPTH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keeps the presburger memo off while alive; the last guard to drop turns
/// it back on, so an early `?` return cannot leave the process with caching
/// disabled and a finishing oracle cannot re-enable it under another one.
struct MemoOff;

impl MemoOff {
    fn new() -> Self {
        let mut depth = memo_off_depth();
        *depth += 1;
        pstats::set_memo_enabled(false);
        MemoOff
    }
}

impl Drop for MemoOff {
    fn drop(&mut self) {
        let mut depth = memo_off_depth();
        *depth -= 1;
        if *depth == 0 {
            pstats::set_memo_enabled(true);
        }
    }
}

fn options_for(spec: &ProgramSpec, cfg: &OracleConfig) -> Options {
    Options {
        tile_sizes: vec![spec.tile, spec.tile],
        parallel_cap: spec.parallel_cap,
        startup: if spec.smart_startup {
            FusionHeuristic::SmartFuse
        } else {
            FusionHeuristic::MinFuse
        },
        fault: cfg.fault,
        budget: cfg.budget.clone().unwrap_or_default(),
        ..Default::default()
    }
}

fn nonzero(counts: &BTreeMap<String, u64>) -> BTreeMap<&str, u64> {
    counts
        .iter()
        .filter(|(_, &n)| n > 0)
        .map(|(k, &n)| (k.as_str(), n))
        .collect()
}

/// Fails when Omega's built-in branch cap answered "feasible" without proof
/// during the run: every later check would rest on an unproven emptiness
/// answer. Reads the run's own (thread-local) count, so concurrent oracles
/// cannot blame each other.
fn check_proven(deg: &DegradationReport) -> Result<(), Failure> {
    if deg.silent_feasible > 0 {
        return Err(fail(
            "silent-feasible",
            format!(
                "{} Omega feasibility call(s) hit the branch cap and were answered \
                 \"feasible\" without proof",
                deg.silent_feasible
            ),
        ));
    }
    Ok(())
}

/// Fails when a governed run that ended on rung 1 without a trip returned a
/// different plan than the ungoverned run `free`: tree, scratch scopes and
/// Algorithm 1 schedules must all agree.
fn check_rung1_plan(governed: &Optimized, free: &Optimized) -> Result<(), Failure> {
    let differs = |what: &str| {
        Err(fail(
            "rung1-plan",
            format!("governed rung-1 plan differs from the ungoverned one in its {what}"),
        ))
    };
    if render(&governed.tree) != render(&free.tree) {
        return differs("tree");
    }
    if governed.report.scratch_scopes != free.report.scratch_scopes {
        return differs("scratch scopes");
    }
    if format!("{:?}", governed.report.mixed) != format!("{:?}", free.report.mixed) {
        return differs("fusion schedules");
    }
    Ok(())
}

/// One full pipeline run: optimize + sequential interpretation.
struct PipelineRun {
    optimized: Optimized,
    context: tilefuse_codegen::ExecContext,
    stats: ExecStats,
}

fn run_pipeline(
    program: &Program,
    opts: &Options,
    overrides: &[(&str, i64)],
) -> Result<PipelineRun, Failure> {
    let optimized = optimize(program, opts).map_err(|e| fail("optimize", e))?;
    let deg = &optimized.report.degradation;
    check_proven(deg)?;
    if !opts.budget.is_unlimited() && deg.rung == 1 && deg.trips.is_empty() {
        let ungoverned = Options {
            budget: tilefuse_trace::Budget::default(),
            ..opts.clone()
        };
        let free = optimize(program, &ungoverned).map_err(|e| fail("optimize", e))?;
        check_rung1_plan(&optimized, &free)?;
    }
    let (context, stats) = execute_tree(
        program,
        &optimized.tree,
        overrides,
        &optimized.report.scratch_scopes,
    )
    .map_err(|e| fail("execute", e))?;
    Ok(PipelineRun {
        optimized,
        context,
        stats,
    })
}

/// Runs every cross-check on `spec`. `Ok(())` means the whole pipeline is
/// consistent; `Err` carries the first failed check.
///
/// # Errors
/// Returns the first [`Failure`] encountered (see the module docs for the
/// check list).
pub fn run_oracle(spec: &ProgramSpec, cfg: &OracleConfig) -> Result<(), Failure> {
    let program = build_program(spec).map_err(|e| fail("build", e))?;
    let ov_h = spec.size + spec.param_delta;
    let overrides: Vec<(&str, i64)> = vec![("H", ov_h), ("W", ov_h)];
    let opts = options_for(spec, cfg);

    let run = run_pipeline(&program, &opts, &overrides)?;
    let o = &run.optimized;

    // Degradation-report coherence: whichever ladder rung ran, the report
    // must explain it. (Bit-exactness of the degraded tree is proven by
    // the output/count checks below, which run unconditionally.)
    let deg = &o.report.degradation;
    if !(1..=4).contains(&deg.rung) {
        return Err(fail(
            "degradation-report",
            format!("rung {} out of range", deg.rung),
        ));
    }
    if deg.rung == 1 && !deg.trips.is_empty() {
        return Err(fail(
            "degradation-report",
            format!("rung 1 with budget trips: {:?}", deg.trips),
        ));
    }
    if deg.rung >= 2 && deg.trips.is_empty() {
        return Err(fail(
            "degradation-report",
            format!("rung {} without any recorded budget trip", deg.rung),
        ));
    }
    if deg.rung >= 3 && !o.report.mixed.is_empty() {
        return Err(fail(
            "degradation-report",
            format!(
                "rung {} but report still carries fusion schedules",
                deg.rung
            ),
        ));
    }

    // Exact legality re-check of the transformed tree. Fused producers
    // carry multi-valued schedule relations (one instance recomputed in
    // several tiles, with tile-local scratch semantics) that the pairwise
    // lexicographic check cannot model — exactly the case
    // `LegalityReport::skipped` documents — so dependences touching them
    // are validated end-to-end by the buffer and count checks below
    // instead.
    let fused_ids: BTreeSet<tilefuse_pir::StmtId> = o
        .report
        .groups
        .iter()
        .enumerate()
        .filter(|(g, _)| o.report.is_fused(*g))
        .flat_map(|(_, grp)| grp.stmts.iter().copied())
        .collect();
    let checkable: Vec<tilefuse_pir::Dependence> = o
        .report
        .deps
        .iter()
        .filter(|d| !fused_ids.contains(&d.src) && !fused_ids.contains(&d.dst))
        .cloned()
        .collect();
    let entries = flatten(&o.tree).map_err(|e| fail("flatten", e))?;
    let legality = check_schedule(&checkable, &entries).map_err(|e| fail("legality", e))?;
    if !legality.legal {
        return Err(fail(
            "legality",
            format!("violations: {:?}", legality.violations),
        ));
    }

    // Bit-exact output comparison against the reference interpretation.
    let (reference, ref_stats) =
        reference_execute(&program, &overrides).map_err(|e| fail("reference", e))?;
    check_outputs_match(&program, &reference, &run.context, 0.0)
        .map_err(|e| fail("output-mismatch", e))?;

    // Scanner enumeration vs. symbolic point counting: the interpreter's
    // per-statement instance counts must equal the count_points of each
    // flattened entry's schedule graph.
    let values = program.param_values(&overrides);
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for e in &entries {
        let n = e
            .schedule
            .intersect_domain(&e.domain)
            .and_then(|m| m.as_wrapped_set().fixed_params(&values))
            .and_then(|s| s.count_points(&values))
            .map_err(|e| fail("count-points", e))?;
        *expected.entry(e.stmt.clone()).or_insert(0) += n;
    }
    if nonzero(&expected) != nonzero(&run.stats.instances) {
        return Err(fail(
            "instance-count",
            format!(
                "interpreter {:?} vs count_points {:?}",
                nonzero(&run.stats.instances),
                nonzero(&expected)
            ),
        ));
    }

    // No recomputation where the paper forbids it, and DCE only ever
    // drops instances of producers that were fused (their originals are
    // legally skipped; outputs above prove nothing needed was lost).
    let fused_stmts: BTreeSet<&str> = fused_ids.iter().map(|&s| program.stmt(s).name()).collect();
    for s in program.stmts() {
        let got = run.stats.instances.get(s.name()).copied().unwrap_or(0);
        let want = ref_stats.instances.get(s.name()).copied().unwrap_or(0);
        if program.is_live_out(s.id()) && got != want {
            return Err(fail(
                "liveout-count",
                format!("{} executed {got} instances, reference {want}", s.name()),
            ));
        }
        if !fused_stmts.contains(s.name()) && got != want {
            return Err(fail(
                "unfused-count",
                format!(
                    "unfused {} executed {got} instances, reference {want}",
                    s.name()
                ),
            ));
        }
    }

    // Independent Rule 2 re-verification: a producer fused into several
    // live-outs must have pairwise-disjoint per-live-out slices, or
    // fusion has introduced recomputation across live-outs. This check
    // does not trust the optimizer's own conflict bookkeeping, so it
    // catches FaultInjection::SkipSharedSliceCheck.
    for (g, grp) in o.report.groups.iter().enumerate() {
        let fused_in: Vec<_> = o
            .report
            .mixed
            .iter()
            .filter(|m| m.fused_groups.contains(&g))
            .collect();
        if fused_in.len() < 2 {
            continue;
        }
        for &s in &grp.stmts {
            let mut slices = Vec::new();
            for m in &fused_in {
                if let Some(e) = m.extensions.iter().find(|e| e.stmt == s) {
                    slices.push((
                        m.liveout,
                        e.ext.range().map_err(|e| fail("shared-slice-overlap", e))?,
                    ));
                }
            }
            for i in 0..slices.len() {
                for j in i + 1..slices.len() {
                    let inter = slices[i]
                        .1
                        .intersect(&slices[j].1)
                        .and_then(|s| s.fixed_params(&values))
                        .map_err(|e| fail("shared-slice-overlap", e))?;
                    let n = inter
                        .count_points(&values)
                        .map_err(|e| fail("shared-slice-overlap", e))?;
                    if n > 0 {
                        return Err(fail(
                            "shared-slice-overlap",
                            format!(
                                "{} fused into live-out groups {} and {} with {n} \
                                 shared instance(s) — recomputation across live-outs",
                                program.stmt(s).name(),
                                slices[i].0,
                                slices[j].0
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Memo differential: the whole pipeline re-run with every presburger
    // memo layer disabled must produce the same tree semantics — same
    // dependences, bit-identical buffers, identical instance counts.
    if cfg.memo_diff && cfg.budget.is_none() {
        let p2 = build_program(spec).map_err(|e| fail("build", e))?;
        let _restore = MemoOff::new();
        let run2 = run_pipeline(&p2, &opts, &overrides)?;
        if run2.optimized.report.deps.len() != o.report.deps.len() {
            return Err(fail(
                "memo-diff",
                format!(
                    "{} dependences with memo off, {} with memo on",
                    run2.optimized.report.deps.len(),
                    o.report.deps.len()
                ),
            ));
        }
        for a in program.arrays() {
            let d = run
                .context
                .max_diff(&run2.context, a.id())
                .map_err(|e| fail("memo-diff", e))?;
            if d != 0.0 {
                return Err(fail(
                    "memo-diff",
                    format!("array {} differs by {d} with memo disabled", a.name()),
                ));
            }
        }
        if run2.stats != run.stats {
            return Err(fail(
                "memo-diff",
                format!(
                    "stats differ with memo disabled: {:?} vs {:?}",
                    run2.stats, run.stats
                ),
            ));
        }
    }

    // Compiled-backend differential: lower the optimized tree to bytecode
    // and run it on the register VM, sequentially and with its coincident
    // loops cut into pool tasks at every thread count. Buffers must be bit-identical and statistics equal to
    // the sequential interpreter's. `FaultInjection::VmMisLower` corrupts
    // the lowered program here (one load's access function offset by one
    // element) so a self-test can prove this check catches a miscompile
    // in the VM path — the interpreter checks above all pass under it.
    let mut compiled = lower_tree(&program, &o.tree, &overrides, &o.report.scratch_scopes)
        .map_err(|e| fail("vm-lower", e))?;
    if cfg.fault == FaultInjection::VmMisLower && !compiled.inject_mis_lower() {
        return Err(fail(
            "vm-lower",
            "VmMisLower requested but the lowered program has no load to corrupt",
        ));
    }
    for threads in std::iter::once(1).chain(cfg.threads.iter().copied()) {
        let (vm_ctx, vm_stats) =
            execute_compiled(&program, &compiled, threads).map_err(|e| fail("vm-execute", e))?;
        for a in program.arrays() {
            let d = run
                .context
                .max_diff(&vm_ctx, a.id())
                .map_err(|e| fail("vm-execute", e))?;
            if d != 0.0 {
                return Err(fail(
                    "vm-mismatch",
                    format!(
                        "array {} differs by {d} on the VM with {threads} thread(s)",
                        a.name()
                    ),
                ));
            }
        }
        if vm_stats != run.stats {
            return Err(fail(
                "vm-mismatch",
                format!(
                    "VM stats differ with {threads} thread(s): {vm_stats:?} vs {:?}",
                    run.stats
                ),
            ));
        }
    }

    // Tile-DAG runtime differential: materialize the inter-tile task
    // graph and execute it — the sequential drain, every work-stealing
    // thread count, and the adversarial drain (latest ready task first,
    // which deterministically exposes a missing edge). Buffers and
    // statistics must be bit-identical to the sequential interpreter.
    // `FaultInjection::DagDropEdge` removes one edge post-build so a
    // self-test can prove this check catches an under-constrained task
    // graph — every check above passes under it.
    let mut dag = build_tile_dag(&program, &o.tree, &overrides, &o.report.scratch_scopes)
        .map_err(|e| fail("dag-build", e))?;
    if cfg.fault == FaultInjection::DagDropEdge && !dag.drop_edge() {
        // Nothing to drop: the graph is edge-free, the fault is vacuous
        // and the runs below legitimately match. The fuzz driver keeps
        // drawing specs until one with real inter-tile edges comes up.
        let _s = tilefuse_trace::span!("oracle/dag-drop-edge", "no edge to drop");
    }
    for (threads, adversarial) in std::iter::once((1usize, false))
        .chain(cfg.threads.iter().map(|&t| (t, false)))
        .chain(std::iter::once((1usize, true)))
    {
        let (dag_ctx, dag_stats) = execute_tree_dag_with(
            &program,
            &o.tree,
            &overrides,
            &o.report.scratch_scopes,
            threads,
            ExecBackend::Vm,
            &dag,
            adversarial,
        )
        .map_err(|e| fail("dag-execute", e))?;
        let mode = if adversarial { ", adversarial" } else { "" };
        for a in program.arrays() {
            let d = run
                .context
                .max_diff(&dag_ctx, a.id())
                .map_err(|e| fail("dag-execute", e))?;
            if d != 0.0 {
                return Err(fail(
                    "dag-mismatch",
                    format!(
                        "array {} differs by {d} on the DAG runtime ({threads} thread(s){mode})",
                        a.name()
                    ),
                ));
            }
        }
        if dag_stats != run.stats {
            return Err(fail(
                "dag-mismatch",
                format!(
                    "DAG stats differ ({threads} thread(s){mode}): {dag_stats:?} vs {:?}",
                    run.stats
                ),
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StageKind, StageSpec};

    fn chain_spec() -> ProgramSpec {
        ProgramSpec {
            size: 12,
            tile: 3,
            smart_startup: true,
            parallel_cap: None,
            param_delta: 0,
            stages: vec![
                StageSpec {
                    kind: StageKind::Point,
                    src: 0,
                    liveout: false,
                },
                StageSpec {
                    kind: StageKind::StencilX(1),
                    src: 1,
                    liveout: false,
                },
                StageSpec {
                    kind: StageKind::StencilY(1),
                    src: 2,
                    liveout: true,
                },
            ],
        }
    }

    #[test]
    fn clean_chain_passes_every_check() {
        run_oracle(&chain_spec(), &OracleConfig::default()).unwrap();
    }

    #[test]
    fn parametric_override_passes() {
        let spec = ProgramSpec {
            param_delta: 3,
            ..chain_spec()
        };
        run_oracle(&spec, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn injected_budget_faults_prove_each_ladder_rung() {
        // Each fault forces budget exhaustion at a specific pipeline
        // phase; the full oracle must still pass — the degraded schedule
        // is bit-exact — and the report must land on the expected rung.
        for (fault, want_rung) in [
            (FaultInjection::BudgetExhaustExtension, 2),
            (FaultInjection::BudgetExhaustSurgery, 3),
            (FaultInjection::BudgetExhaustTiling, 4),
        ] {
            let cfg = OracleConfig {
                fault,
                ..OracleConfig::default()
            };
            run_oracle(&chain_spec(), &cfg)
                .unwrap_or_else(|e| panic!("{fault:?}: oracle failed: {e}"));
            let program = build_program(&chain_spec()).unwrap();
            let opts = options_for(&chain_spec(), &cfg);
            let o = optimize(&program, &opts).unwrap();
            assert_eq!(
                o.report.degradation.rung, want_rung,
                "{fault:?}: {:?}",
                o.report.degradation
            );
            assert!(!o.report.degradation.trips.is_empty());
        }
    }

    /// Two live-out stages in producer/consumer order: live-outs are
    /// never fused into each other, so the optimized tree keeps two
    /// groups and the tile DAG carries real cross-group edges — the
    /// shape `DagDropEdge` needs a target in.
    fn two_liveout_spec() -> ProgramSpec {
        ProgramSpec {
            size: 12,
            tile: 3,
            smart_startup: false,
            parallel_cap: None,
            param_delta: 0,
            stages: vec![
                StageSpec {
                    kind: StageKind::Point,
                    src: 0,
                    liveout: true,
                },
                StageSpec {
                    kind: StageKind::StencilY(1),
                    src: 1,
                    liveout: true,
                },
            ],
        }
    }

    #[test]
    fn two_liveout_dag_has_edges_and_passes() {
        let spec = two_liveout_spec();
        run_oracle(&spec, &OracleConfig::default()).unwrap();
        // The fault-injection test below is only meaningful if this
        // spec's DAG actually has an edge to drop.
        let program = build_program(&spec).unwrap();
        let o = optimize(&program, &options_for(&spec, &OracleConfig::default())).unwrap();
        let dag = tilefuse_scheduler::build_tile_dag(
            &program,
            &o.tree,
            &[("H", spec.size), ("W", spec.size)],
            &o.report.scratch_scopes,
        )
        .unwrap();
        assert!(dag.n_edges() > 0, "expected inter-tile edges");
    }

    #[test]
    fn injected_dag_drop_edge_fails_the_dag_check() {
        // The fault is inert in the optimizer and every earlier check
        // runs on the intact pipeline; only the DAG differential sees
        // the under-constrained graph, and the adversarial drain turns
        // the missing edge into a deterministic state mismatch.
        let cfg = OracleConfig {
            fault: FaultInjection::DagDropEdge,
            ..OracleConfig::default()
        };
        let f = run_oracle(&two_liveout_spec(), &cfg).unwrap_err();
        assert_eq!(f.check, "dag-mismatch", "got: {f}");
    }

    #[test]
    fn injected_vm_mislower_fails_the_vm_check() {
        // The fault is inert in the optimizer, so every interpreter-side
        // check passes; only the VM differential may object — either with
        // a bit mismatch or, when the offset access lands out of bounds,
        // a VM execution error.
        let cfg = OracleConfig {
            fault: FaultInjection::VmMisLower,
            ..OracleConfig::default()
        };
        let f = run_oracle(&chain_spec(), &cfg).unwrap_err();
        assert!(
            ["vm-mismatch", "vm-execute"].contains(&f.check),
            "expected the VM differential to fire, got: {f}"
        );
    }

    #[test]
    fn adversarial_budgets_degrade_but_stay_exact() {
        // A zero-op grant and a 1 ms deadline both force real (not
        // injected) exhaustion somewhere in the pipeline; the oracle's
        // bit-exactness and coherence checks must hold on whatever rung
        // the ladder settles on.
        for budget in [
            tilefuse_trace::Budget {
                max_omega_ops: Some(0),
                ..tilefuse_trace::Budget::default()
            },
            tilefuse_trace::Budget {
                deadline_ms: Some(0),
                ..tilefuse_trace::Budget::default()
            },
        ] {
            let cfg = OracleConfig {
                budget: Some(budget.clone()),
                ..OracleConfig::default()
            };
            run_oracle(&chain_spec(), &cfg)
                .unwrap_or_else(|e| panic!("budget {budget:?}: oracle failed: {e}"));
        }
    }

    #[test]
    fn unproven_feasibility_is_its_own_failure() {
        // Omega's branch cap has no honest trigger at fuzz sizes, so the
        // check is driven with a report as a capped run would carry it.
        let clean = DegradationReport::default();
        check_proven(&clean).unwrap();
        let capped = DegradationReport {
            silent_feasible: 3,
            ..DegradationReport::default()
        };
        let f = check_proven(&capped).unwrap_err();
        assert_eq!(f.check, "silent-feasible");
        assert_eq!(
            f.class(),
            "silent-feasible",
            "not folded into another class"
        );
        assert!(f.detail.starts_with("3 Omega feasibility call(s)"), "{f}");
        // A real run reports its own count, and on this spec it is 0.
        let program = build_program(&chain_spec()).unwrap();
        let o = optimize(
            &program,
            &options_for(&chain_spec(), &OracleConfig::default()),
        )
        .unwrap();
        assert_eq!(o.report.degradation.silent_feasible, 0);
    }

    #[test]
    fn rung1_plan_mismatch_is_its_own_failure() {
        // A governed run that stays on rung 1 always returns the ungoverned
        // plan today, so the check is driven with a forged divergence.
        let program = build_program(&chain_spec()).unwrap();
        let o = optimize(
            &program,
            &options_for(&chain_spec(), &OracleConfig::default()),
        )
        .unwrap();
        check_rung1_plan(&o, &o).unwrap();
        let mut tree = o.clone();
        tree.tree = tilefuse_scheduler::schedule(&program, FusionHeuristic::MinFuse)
            .unwrap()
            .tree;
        let mut scopes = o.clone();
        scopes
            .report
            .scratch_scopes
            .insert(tilefuse_pir::ArrayId(usize::MAX), 0);
        let mut mixed = o.clone();
        assert!(!mixed.report.mixed.is_empty(), "the chain fuses a producer");
        mixed.report.mixed.clear();
        for (forged, what) in [
            (tree, "tree"),
            (scopes, "scratch scopes"),
            (mixed, "fusion schedules"),
        ] {
            let f = check_rung1_plan(&forged, &o).unwrap_err();
            assert_eq!(f.check, "rung1-plan");
            assert_eq!(f.class(), "rung1-plan", "not folded into another class");
            assert!(f.detail.ends_with(&format!("in its {what}")), "{f}");
        }
    }

    #[test]
    fn memo_toggle_is_restored_after_failure() {
        // Sibling tests run oracles (and their guards) concurrently, so the
        // global switch is asserted only where a guard of our own pins it,
        // or under the guards' lock.
        let outer = MemoOff::new();
        assert!(!pstats::memo_enabled());
        // A spec that fails at build never engages the guard; a passing one
        // engages and drops it. Neither may re-enable the memo under `outer`.
        let bad = ProgramSpec {
            stages: vec![],
            ..chain_spec()
        };
        assert_eq!(
            run_oracle(&bad, &OracleConfig::default())
                .unwrap_err()
                .check,
            "build"
        );
        run_oracle(&chain_spec(), &OracleConfig::default()).unwrap();
        assert!(!pstats::memo_enabled());
        drop(outer);
        let depth = memo_off_depth();
        assert_eq!(pstats::memo_enabled(), *depth == 0);
    }
}
