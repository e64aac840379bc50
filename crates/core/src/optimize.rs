//! Algorithm 3: the complete composition — start-up fusion, per-live-out
//! tile-shape construction, shared-intermediate resolution, and post-tiling
//! fusion.

use crate::algo1::{algorithm1, BudgetTrip, FaultInjection, MixedSchedules, Options};
use crate::algo2::{algorithm2, plain_tile_group};
use crate::error::{checkpoint, Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use tilefuse_pir::{ArrayId, DepKind, Dependence, Program};
use tilefuse_schedtree::ScheduleTree;
use tilefuse_scheduler::{schedule, Group};

/// The result of the post-tiling fusion optimizer.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The transformed schedule tree.
    pub tree: ScheduleTree,
    /// Diagnostics and metadata for execution and cost modeling.
    pub report: Report,
}

/// Metadata about an optimization run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The start-up fusion groups.
    pub groups: Vec<Group>,
    /// Indices of live-out groups.
    pub liveouts: Vec<usize>,
    /// Algorithm 1 output per live-out group.
    pub mixed: Vec<MixedSchedules>,
    /// Arrays whose producers were fused into tiles: their values become
    /// tile-local (scratchpad/shared-memory candidates).
    pub scratch_arrays: BTreeSet<ArrayId>,
    /// Per tile-local array: the schedule-prefix length identifying its
    /// tile (the depth of the extension node that fused its producer).
    /// Consumed by the interpreter's scratch clearing.
    pub scratch_scopes: std::collections::BTreeMap<ArrayId, usize>,
    /// Producer groups excluded from fusion by the shared-intermediate
    /// rule (Algorithm 3 would otherwise introduce recomputation across
    /// live-outs, or the group has an unfusable consumer).
    pub shared_unfused: Vec<usize>,
    /// The dependences of the program (for legality re-checks).
    pub deps: Vec<Dependence>,
    /// Per-phase span times and presburger counters for *this* optimize
    /// call (the calling thread's span diff around the run). Empty unless
    /// tracing was enabled via `tilefuse_trace::set_enabled(true)`.
    pub phases: Vec<tilefuse_trace::PhaseStat>,
    /// Which rung of the degradation ladder produced the tree, and the
    /// resource accounting behind that decision.
    pub degradation: DegradationReport,
}

/// How far down the graceful-degradation ladder this run had to go, and
/// what the resource governor observed along the way.
///
/// Rungs (each one strictly cheaper and still bit-exact):
/// 1. full tiling-then-fusion (the paper's Algorithm 3);
/// 2. tiling-then-fusion with specific producers dropped from fusion
///    because *their* extension or footprint computation blew the budget
///    (see [`BudgetTrip`] entries);
/// 3. plain live-out tiling, no fusion surgery;
/// 4. untiled conservative schedule (start-up `minfuse` order only).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The rung that produced the final tree (1 = no degradation).
    pub rung: u8,
    /// Every budget exhaustion absorbed on the way down, in order: which
    /// phase tripped, which limit, and what was dropped in response.
    pub trips: Vec<BudgetTrip>,
    /// Omega feasibility calls that hit the built-in branch cap and were
    /// answered conservatively (`feasible`) during this run — the
    /// governor-scoped slice of `tilefuse_presburger::stats::silent_feasible`.
    pub silent_feasible: u64,
    /// Omega operations (branch pops + projection steps) charged to the
    /// governor during this run.
    pub omega_ops: u64,
    /// Wall-clock spent inside the governed region, in milliseconds.
    pub elapsed_ms: f64,
    /// Largest per-set disjunct count kept after footprint coalescing.
    pub peak_disjuncts: usize,
    /// Whether the start-up `maxfuse` shift solver hit its step budget and
    /// fell back to a coarser grouping (sound, but less fusion).
    pub fusion_budget_exhausted: bool,
    /// Steps the `maxfuse` shift solver actually consumed.
    pub fusion_steps: u64,
}

impl Default for DegradationReport {
    fn default() -> Self {
        DegradationReport {
            rung: 1,
            trips: Vec::new(),
            silent_feasible: 0,
            omega_ops: 0,
            elapsed_ms: 0.0,
            peak_disjuncts: 0,
            fusion_budget_exhausted: false,
            fusion_steps: 0,
        }
    }
}

impl Report {
    /// Whether group `g` was fused into at least one live-out's tiles.
    pub fn is_fused(&self, g: usize) -> bool {
        self.mixed.iter().any(|m| m.fused_groups.contains(&g))
    }

    /// Total fusion groups in the final schedule (fused producers no
    /// longer count as separate groups).
    pub fn n_final_groups(&self) -> usize {
        let fused: BTreeSet<usize> = self
            .mixed
            .iter()
            .flat_map(|m| m.fused_groups.iter().copied())
            .collect();
        self.groups.len() - fused.len()
    }
}

/// Runs the full optimizer (Algorithm 3) on `program` under the resource
/// budget in `opts.budget`, degrading through the ladder described on
/// [`DegradationReport`] instead of failing when a limit trips.
///
/// # Errors
/// Returns an error if scheduling fails or the tree surgery meets an
/// unexpected shape. Budget exhaustion is *not* an error at this level:
/// it selects a cheaper rung — except a revoked [`CancelToken`]
/// (`"cancelled"` limit), whose exhaustion error propagates, because the
/// supervisor asked the whole run to stop, not the current rung. A panic
/// anywhere in the pipeline is caught and surfaced as [`Error::Panicked`]
/// tagged with the active phase.
///
/// [`CancelToken`]: tilefuse_trace::CancelToken
pub fn optimize(program: &Program, opts: &Options) -> Result<Optimized> {
    // Snapshot the calling thread's span stats around the run so the
    // report carries exactly this call's phases, even when other threads
    // optimize concurrently.
    let before = tilefuse_trace::thread_snapshot();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _span = tilefuse_trace::span!("optimize");
        let _gov = tilefuse_trace::governor::install_with_cancel(&opts.budget, opts.cancel.clone());
        run_ladder(program, opts)
    }))
    .unwrap_or_else(|payload| {
        Err(Error::Panicked {
            phase: tilefuse_trace::governor::last_phase(),
            message: tilefuse_trace::governor::panic_message(payload.as_ref()).to_string(),
        })
    });
    let mut optimized = result?;
    if tilefuse_trace::is_enabled() {
        optimized.report.phases =
            tilefuse_trace::diff_snapshots(&before, &tilefuse_trace::thread_snapshot());
    }
    Ok(optimized)
}

/// Whether `e` should be absorbed as a degradation step rather than
/// propagated: exactly the cooperative budget-exhaustion signals. The
/// governor never makes set algebra less precise, so any other error is a
/// bug and propagates, on every rung.
///
/// A revoked [`tilefuse_trace::CancelToken`] (the `"cancelled"` limit) is
/// explicitly *not* degradable: the supervisor revoked the whole run, so
/// falling to a cheaper rung would keep burning a grant that no longer
/// exists. It propagates as a budget-exhausted error for the caller.
pub(crate) fn degradable(e: &Error) -> bool {
    e.budget()
        .is_some_and(|trip| trip.limit != tilefuse_trace::governor::CANCELLED)
}

/// The degradation ladder. Runs with a governor installed; each rung that
/// absorbs a budget trip re-arms (fresh grant) so one blown deadline does
/// not starve the fallback, and the last rung runs disarmed — it must
/// terminate and is polynomial, so accounting continues but enforcement
/// stops.
fn run_ladder(program: &Program, opts: &Options) -> Result<Optimized> {
    use tilefuse_trace::governor;
    // Pin the phase before anything can fail: `last_phase()` is a
    // thread-local, so without this a panic fired before the first
    // checkpoint would be attributed to whatever phase a *previous* run
    // on this thread ended in — and quarantine replay (fresh thread)
    // could then never match the recorded phase. Deliberately not a
    // `checkpoint`: an already-expired deadline must degrade down the
    // ladder, not error out before rung 1 even starts.
    governor::note_phase("optimize/ladder");
    // Worker-panic injection for the tilefused chaos soak: it fires at the
    // very top of the ladder, inside `optimize`'s catch_unwind, so it
    // surfaces as `Error::Panicked` on every rung, the floor included.
    if opts.fault == FaultInjection::WorkerPanic {
        panic!("injected worker panic");
    }
    let mut trips: Vec<BudgetTrip> = Vec::new();
    let mut optimized = None;
    if opts.floor_only {
        // The supervisor's retry after a panic enters at the floor; the
        // synthesized trip keeps the report coherent (rung > 1 always
        // carries at least one explaining trip).
        trips.push(BudgetTrip {
            phase: "optimize/ladder",
            limit: "forced",
            detail: "supervisor forced entry at rung 4: skipped tiling-then-fusion \
                     and plain live-out tiling"
                .into(),
        });
    } else {
        optimized = match optimize_inner(program, opts) {
            Ok(o) => Some(o),
            Err(e) if degradable(&e) => {
                trips.push(BudgetTrip::from_error(
                    &e,
                    "dropped fusion entirely: falling back to plain live-out tiling".into(),
                ));
                None
            }
            Err(e) => return Err(e),
        };
        if optimized.is_none() {
            governor::rearm();
            optimized = match plain_tiled(program, opts) {
                Ok(o) => Some(o),
                Err(e) if degradable(&e) => {
                    trips.push(BudgetTrip::from_error(
                        &e,
                        "dropped tiling entirely: falling back to the untiled schedule".into(),
                    ));
                    None
                }
                Err(e) => return Err(e),
            };
        }
    }
    let rung_from_trips = |t: &[BudgetTrip]| if t.is_empty() { 1 } else { 2 };
    let (mut optimized, rung) = match optimized {
        Some(o) => {
            let rung = if trips.is_empty() {
                rung_from_trips(&o.report.degradation.trips)
            } else {
                3
            };
            (o, rung)
        }
        None => {
            // Rung 4: the conservative schedule must not be subject to the
            // (already exhausted) budget; genuine errors still propagate.
            governor::disarm();
            (untiled_schedule(program)?, 4)
        }
    };
    let d = &mut optimized.report.degradation;
    d.rung = rung;
    // Ladder-level trips go first: they explain why lower rungs ran.
    trips.append(&mut d.trips);
    d.trips = trips;
    let consumed = governor::consumed();
    d.silent_feasible = consumed.silent_feasible;
    d.omega_ops = consumed.omega_ops;
    d.elapsed_ms = consumed.elapsed.as_secs_f64() * 1e3;
    d.peak_disjuncts = consumed.peak_disjuncts;
    Ok(optimized)
}

fn optimize_inner(program: &Program, opts: &Options) -> Result<Optimized> {
    // Worker-stall injection for the tilefused chaos soak, at the top of
    // rung 1. It sleeps in short slices and polls the governor between
    // them: a blown budget deadline falls a rung like any other trip, and
    // a passed job deadline (`"cancelled"`) leaves `optimize`.
    if let FaultInjection::WorkerStall { ms } = opts.fault {
        let until = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < until {
            checkpoint("fault/stall")?;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let scheduled = schedule(program, opts.startup)?;
    // Satellite of the governor work: surface the maxfuse shift-solver
    // budget instead of silently dropping it with the Fusion struct.
    let fusion_budget_exhausted = scheduled.fusion.budget_exhausted;
    let fusion_steps = scheduled.fusion.steps;
    let groups = scheduled.fusion.groups;
    let deps = scheduled.deps;
    let mut tree = scheduled.tree;
    let has_top_sequence = groups.len() > 1;

    // Group-level flow DAG.
    let n = groups.len();
    let group_of = |s: tilefuse_pir::StmtId| -> Result<usize> {
        groups
            .iter()
            .position(|g| g.stmts.contains(&s))
            .ok_or_else(|| Error::InvalidInput(format!("statement {} belongs to no group", s.0)))
    };
    let mut gedges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for d in &deps {
        if d.kind != DepKind::Flow {
            continue;
        }
        let (a, b) = (group_of(d.src)?, group_of(d.dst)?);
        if a != b {
            gedges.insert((a, b));
        }
    }
    let liveouts: Vec<usize> = (0..n)
        .filter(|&g| groups[g].stmts.iter().any(|&s| program.is_live_out(s)))
        .collect();
    if liveouts.is_empty() {
        return Err(Error::Internal("program has no live-out statements".into()));
    }

    // Transitive producer sets per live-out (excluding other live-outs:
    // the paper does not fuse live-out spaces into each other).
    let producers_of = |l: usize, excluded: &BTreeSet<usize>| -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![l];
        while let Some(g) = stack.pop() {
            for &(a, b) in &gedges {
                if b == g && !seen.contains(&a) && !liveouts.contains(&a) && !excluded.contains(&a)
                {
                    seen.insert(a);
                    stack.push(a);
                }
            }
        }
        seen.into_iter().collect()
    };

    // Fixpoint over shared-intermediate conflicts.
    let mut excluded: BTreeSet<usize> = BTreeSet::new();
    // Rung-2 trips: producer drops inside Algorithm 1 plus shared-slice
    // proofs abandoned below. An empty list means rung 1. Collected per
    // iteration, not from the final `mixed`: a producer dropped in a round
    // the fixpoint redoes has already shaped `excluded`.
    let mut trips: Vec<BudgetTrip> = Vec::new();
    let mut mixed: Vec<MixedSchedules>;
    loop {
        mixed = Vec::new();
        for &l in &liveouts {
            let producers = producers_of(l, &excluded);
            let mut m = algorithm1(program, &deps, &groups, l, &producers, opts)?;
            trips.append(&mut m.budget_trips);
            mixed.push(m);
        }
        let mut new_conflicts: BTreeSet<usize> = BTreeSet::new();
        #[allow(clippy::needless_range_loop)] // index is the group id itself
        for g in 0..n {
            if excluded.contains(&g) || liveouts.contains(&g) {
                continue;
            }
            let fused_in: Vec<&MixedSchedules> = mixed
                .iter()
                .filter(|m| m.fused_groups.contains(&g))
                .collect();
            if fused_in.is_empty() {
                continue;
            }
            // Rule 1: fused into SOME but not ALL of its consuming
            // live-outs -> cannot skip the original -> prevent fusion.
            let consumer_liveouts: Vec<usize> = liveouts
                .iter()
                .copied()
                .filter(|&l| producers_of(l, &excluded).contains(&g))
                .collect();
            if fused_in.len() != consumer_liveouts.len() {
                new_conflicts.insert(g);
                continue;
            }
            // Rule 2: slices used by different live-outs must not
            // intersect (no recomputation across live-outs). Skippable
            // only via FaultInjection so the fuzz oracle can prove it
            // catches the resulting illegal fusion.
            if opts.fault != FaultInjection::SkipSharedSliceCheck && fused_in.len() >= 2 {
                let _span = tilefuse_trace::span!("algo3/rule2", "group {g}");
                checkpoint("algo3/rule2")?;
                'pairs: for i in 0..fused_in.len() {
                    for j in i + 1..fused_in.len() {
                        for &s in &groups[g].stmts {
                            let ei = ext_of(fused_in[i], s);
                            let ej = ext_of(fused_in[j], s);
                            if let (Some(ei), Some(ej)) = (ei, ej) {
                                // The slices intersect iff some instance x
                                // lies in both extension ranges. Testing the
                                // *joint* relation { S[x] -> (o, o') } keeps
                                // the tile dims existential in one Omega
                                // feasibility call per basic-map pair;
                                // projecting each range first (the old
                                // `range().intersect().is_empty()` chain)
                                // splintered the ranges into per-tile
                                // disjuncts and Omega-tested the full cross
                                // product — over a million emptiness calls
                                // on one Local Laplacian check, found via
                                // the algo3/rule2 span's counters.
                                let disjoint = ei
                                    .reverse()
                                    .flat_range_product(&ej.reverse())
                                    .and_then(|joint| joint.is_empty());
                                match disjoint {
                                    Ok(true) => {}
                                    Ok(false) => {
                                        new_conflicts.insert(g);
                                        break 'pairs;
                                    }
                                    Err(pe) => {
                                        let e = Error::from(pe);
                                        if !degradable(&e) {
                                            return Err(e);
                                        }
                                        // Budget blew mid-proof: assuming the
                                        // slices overlap (conflict) is the
                                        // sound direction — it only excludes
                                        // fusion. Re-arm so the rest of the
                                        // fixpoint gets a fresh grant.
                                        trips.push(BudgetTrip::from_error(
                                            &e,
                                            format!(
                                                "assumed shared-slice overlap for group {g}: \
                                                 excluded from fusion"
                                            ),
                                        ));
                                        tilefuse_trace::governor::rearm();
                                        new_conflicts.insert(g);
                                        break 'pairs;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if new_conflicts.is_subset(&excluded) {
            break;
        }
        excluded.extend(new_conflicts);
    }

    // Surgery per live-out (in tree order so paths stay valid: each
    // surgery only touches its own group's child and marks producers).
    if matches!(
        opts.fault,
        FaultInjection::BudgetExhaustSurgery | FaultInjection::BudgetExhaustTiling
    ) {
        return Err(Error::injected_budget("algo2/graft"));
    }
    checkpoint("algo2/graft")?;
    for m in &mixed {
        algorithm2(&mut tree, program, &groups, m, has_top_sequence)?;
    }
    // Plain-tile groups that stayed out of fusion but are tilable:
    // excluded/untiled producers. (Fused groups' originals are skipped.)
    let fused_all: BTreeSet<usize> = mixed
        .iter()
        .flat_map(|m| m.fused_groups.iter().copied())
        .collect();
    let untiled_all: BTreeSet<usize> = mixed
        .iter()
        .flat_map(|m| m.untiled_groups.iter().copied())
        .chain(excluded.iter().copied())
        .collect();
    if has_top_sequence {
        for &g in &untiled_all {
            if !fused_all.contains(&g) {
                plain_tile_group(&mut tree, g, &opts.tile_sizes, has_top_sequence)?;
            }
        }
    }
    {
        let _span = tilefuse_trace::span!("optimize/validate");
        checkpoint("optimize/validate")?;
        tree.validate()?;
    }

    // Scratch arrays: targets of fused producer statements, each scoped to
    // the depth of its extension node (sequence position + tile dims).
    let mut scratch_arrays = BTreeSet::new();
    let mut scratch_scopes = std::collections::BTreeMap::new();
    for m in &mixed {
        let scope = m.k + usize::from(has_top_sequence);
        for e in &m.extensions {
            let arr = program.stmt(e.stmt).body().target;
            scratch_arrays.insert(arr);
            // An array fused under several live-outs keeps the smaller
            // scope (coarser clearing is safe: slices are disjoint).
            scratch_scopes
                .entry(arr)
                .and_modify(|s: &mut usize| *s = (*s).min(scope))
                .or_insert(scope);
        }
    }

    Ok(Optimized {
        tree,
        report: Report {
            groups,
            liveouts,
            mixed,
            scratch_arrays,
            scratch_scopes,
            shared_unfused: excluded.into_iter().collect(),
            deps,
            phases: Vec::new(),
            degradation: DegradationReport {
                trips,
                fusion_budget_exhausted,
                fusion_steps,
                ..DegradationReport::default()
            },
        },
    })
}

/// Rung 3: start-up scheduling plus plain per-group tiling — no fusion
/// surgery, no footprint/extension presburger work.
fn plain_tiled(program: &Program, opts: &Options) -> Result<Optimized> {
    let _span = tilefuse_trace::span!("optimize/plain-tile");
    checkpoint("optimize/plain-tile")?;
    if opts.fault == FaultInjection::BudgetExhaustTiling {
        return Err(Error::injected_budget("optimize/plain-tile"));
    }
    let scheduled = schedule(program, opts.startup)?;
    let fusion_budget_exhausted = scheduled.fusion.budget_exhausted;
    let fusion_steps = scheduled.fusion.steps;
    let groups = scheduled.fusion.groups;
    let deps = scheduled.deps;
    let mut tree = scheduled.tree;
    let has_top_sequence = groups.len() > 1;
    for g in 0..groups.len() {
        plain_tile_group(&mut tree, g, &opts.tile_sizes, has_top_sequence)?;
    }
    tree.validate()?;
    bare_optimized(
        program,
        tree,
        groups,
        deps,
        DegradationReport {
            fusion_budget_exhausted,
            fusion_steps,
            ..DegradationReport::default()
        },
    )
}

/// Rung 4: the conservative untiled schedule in start-up `minfuse` order.
/// Runs with enforcement disarmed — it is the floor of the ladder and must
/// succeed whenever the program is schedulable at all.
fn untiled_schedule(program: &Program) -> Result<Optimized> {
    let _span = tilefuse_trace::span!("optimize/untiled");
    let scheduled = schedule(program, tilefuse_scheduler::FusionHeuristic::MinFuse)?;
    let fusion_steps = scheduled.fusion.steps;
    let tree = scheduled.tree;
    tree.validate()?;
    bare_optimized(
        program,
        tree,
        scheduled.fusion.groups,
        scheduled.deps,
        DegradationReport {
            fusion_steps,
            ..DegradationReport::default()
        },
    )
}

/// Shared tail of the degraded rungs: a report with no mixed schedules,
/// no scratch promotion and every group left unfused.
fn bare_optimized(
    program: &Program,
    tree: ScheduleTree,
    groups: Vec<Group>,
    deps: Vec<Dependence>,
    degradation: DegradationReport,
) -> Result<Optimized> {
    let liveouts: Vec<usize> = (0..groups.len())
        .filter(|&g| groups[g].stmts.iter().any(|&s| program.is_live_out(s)))
        .collect();
    if liveouts.is_empty() {
        return Err(Error::Internal("program has no live-out statements".into()));
    }
    Ok(Optimized {
        tree,
        report: Report {
            groups,
            liveouts,
            mixed: Vec::new(),
            scratch_arrays: BTreeSet::new(),
            scratch_scopes: std::collections::BTreeMap::new(),
            shared_unfused: Vec::new(),
            deps,
            phases: Vec::new(),
            degradation,
        },
    })
}

/// The extension schedule of statement `s` in `m` (its range is the
/// instance slice fused into `m`'s tiles), or `None` when not fused there.
fn ext_of(m: &MixedSchedules, s: tilefuse_pir::StmtId) -> Option<&tilefuse_presburger::Map> {
    m.extensions.iter().find(|e| e.stmt == s).map(|e| &e.ext)
}

/// Per-array count of fused producer instance executions vs. distinct
/// instances — quantifies overlapped-tiling recomputation for reporting.
///
/// # Errors
/// Returns an error on set-operation failure.
pub fn recomputation_factor(
    optimized: &Optimized,
    param_values: &[i64],
) -> Result<BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for m in &optimized.report.mixed {
        for e in &m.extensions {
            let pairs = e
                .ext
                .as_wrapped_set()
                .fixed_params(param_values)?
                .count_points(param_values)?;
            let distinct = e
                .ext
                .range()?
                .fixed_params(param_values)?
                .count_points(param_values)?;
            if distinct > 0 {
                let name = crate::footprint::stmt_of_map(&e.ext)?;
                out.insert(name, pairs as f64 / distinct as f64);
            }
        }
    }
    Ok(out)
}
