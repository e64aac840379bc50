//! Algorithm 1: construct arbitrary tile shapes.
//!
//! Rectangular tiling is applied *only to the live-out computation space*;
//! the tile shapes of intermediate spaces are then derived from the memory
//! footprints each live-out tile requires (upwards exposed data), walking
//! producer chains transitively (lines 9–16 of the paper's Algorithm 1).
//! The result is a set of *mixed schedules*: one tiling schedule for the
//! live-out group plus one extension schedule per fused producer statement.

use crate::error::{Error, Result};
use crate::footprint::{chained_footprint, exposed_footprint, extension_schedule};
use std::collections::{BTreeMap, BTreeSet};
use tilefuse_pir::{ArrayId, Dependence, Program, StmtId};
use tilefuse_presburger::Map;
use tilefuse_schedtree::Band;
use tilefuse_scheduler::{band_part, loop_vars, Group};
use tilefuse_trace::governor::Exhausted;

/// Deliberate legality bugs for validating external checkers.
///
/// The differential fuzzing oracle (`crates/fuzzgen`) proves it can catch
/// real fusion-legality regressions by injecting one on purpose and
/// demanding a detection. Production callers always use
/// [`FaultInjection::None`]; the other variants exist only so a test can
/// flip a known-correct guard off and watch the oracle object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// No fault: the optimizer behaves as published.
    #[default]
    None,
    /// Skip Algorithm 3's Rule 2: fuse a shared producer even when the
    /// per-consumer slices intersect, silently introducing recomputation
    /// of the intersection (and, for accumulating consumers, wrong
    /// results).
    SkipSharedSliceCheck,
    /// Inject budget exhaustion into every producer's extension
    /// computation: Algorithm 1 must absorb it per producer (rung 2 —
    /// fusion dropped, group tiled independently) and the result must
    /// still be valid and bit-exact. Unlike [`Self::SkipSharedSliceCheck`]
    /// the oracle must *pass* under this fault.
    BudgetExhaustExtension,
    /// Inject budget exhaustion between the fusion fixpoint and the tree
    /// surgery: the ladder must fall to rung 3 (plain live-out tiling).
    BudgetExhaustSurgery,
    /// Inject budget exhaustion at surgery *and* at plain tiling: the
    /// ladder must fall through rung 3 to rung 4 (untiled conservative
    /// schedule).
    BudgetExhaustTiling,
    /// Corrupt the bytecode lowering of the optimized tree (one load's
    /// access function is offset by one element). Inert inside the
    /// optimizer — the fuzz oracle applies it after `optimize` via
    /// `CompiledProgram::inject_mis_lower` so its VM differential check
    /// can prove it catches a miscompiled backend.
    VmMisLower,
    /// Drop one inter-tile dependence edge from the tile task DAG. Inert
    /// inside the optimizer — the fuzz oracle applies it after
    /// `build_tile_dag` via `TileDag::drop_edge` so its DAG-runtime
    /// differential (adversarial drain) can prove it catches a missing
    /// dependence edge.
    DagDropEdge,
    /// Panic unconditionally at the top of the optimize ladder, simulating
    /// a crashing worker. The `tilefused` chaos soak uses it to prove the
    /// supervisor catches the panic ([`crate::Error::Panicked`]), recycles
    /// the worker, and quarantines the request. Deterministic: the same
    /// request panics every time, which is what makes the quarantine's
    /// fast-reject sound.
    WorkerPanic,
    /// Stall for the given number of milliseconds at the top of rung 1,
    /// simulating a hung worker. The stall sleeps in short slices and
    /// polls the governor between them: a blown budget deadline cuts it
    /// short and the ladder falls to rung 3 like after any other trip,
    /// while an expired or revoked [`tilefuse_trace::CancelToken`] stops
    /// the whole run — the supervisor-side test for stopping an attempt
    /// at its job deadline.
    WorkerStall {
        /// Stall length in milliseconds.
        ms: u64,
    },
}

/// Optimizer options (the paper's target-specific knobs).
#[derive(Debug, Clone)]
pub struct Options {
    /// Tile sizes for the live-out bands (a prefix is used when a band is
    /// shallower). Empty = no tiling (fusion-only, the equake case).
    pub tile_sizes: Vec<i64>,
    /// Cap on exploitable outer parallelism: `Some(1)` when targeting
    /// OpenMP CPUs, `Some(2)` for CUDA GPUs (Section III-C), `None` for
    /// unlimited.
    pub parallel_cap: Option<usize>,
    /// The conservative start-up fusion heuristic.
    pub startup: tilefuse_scheduler::FusionHeuristic,
    /// Recomputation budget: a producer whose extension schedule would
    /// re-execute its instances more than this factor (evaluated at the
    /// program's default parameters) is not fused. Overlapped stencil
    /// halos stay well below this; fusing a matrix product into every
    /// consumer tile (re-running the whole producer per tile) blows past
    /// it — the storage-vs-recomputation judgement the akg cost model
    /// makes in the paper's Section V-A.
    pub max_recompute: f64,
    /// Deliberate legality bug to inject (testing only; see
    /// [`FaultInjection`]).
    pub fault: FaultInjection,
    /// Resource budget for the run (wall-clock deadline, Omega op grant).
    /// Default: unlimited. On exhaustion `optimize` degrades along its
    /// ladder instead of failing — see [`crate::Report::degradation`].
    pub budget: tilefuse_trace::Budget,
    /// Enter the ladder at its untiled floor (rung 4) instead of rung 1.
    /// The supervisor sets it for its one retry after a panic, so the
    /// retry skips the tiling and fusion code that panicked. The entry
    /// synthesizes a `"forced"` [`BudgetTrip`] so the
    /// [`crate::DegradationReport`] stays coherent (rung > 1 always has at
    /// least one trip explaining it).
    pub floor_only: bool,
    /// Cancellation token for the run. When set, the governor polls it at
    /// every checkpoint (even under an unlimited budget and on the disarmed
    /// floor rung): a token past its deadline
    /// ([`tilefuse_trace::CancelToken::with_deadline`]) or cancelled from
    /// another thread surfaces as a `"cancelled"` budget exhaustion, which
    /// the ladder treats as fatal — it propagates instead of degrading,
    /// because the supervisor asked the whole run to stop, not just the
    /// current rung.
    pub cancel: Option<tilefuse_trace::CancelToken>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            tile_sizes: vec![32, 32],
            parallel_cap: None,
            startup: tilefuse_scheduler::FusionHeuristic::MinFuse,
            max_recompute: 3.0,
            fault: FaultInjection::None,
            budget: tilefuse_trace::Budget::default(),
            floor_only: false,
            cancel: None,
        }
    }
}

impl Options {
    /// CPU-targeted options (OpenMP: one parallel dimension).
    pub fn cpu(tile_sizes: &[i64]) -> Self {
        Options {
            tile_sizes: tile_sizes.to_vec(),
            parallel_cap: Some(1),
            ..Options::default()
        }
    }

    /// GPU-targeted options (two-level hardware parallelism).
    pub fn gpu(tile_sizes: &[i64]) -> Self {
        Options {
            tile_sizes: tile_sizes.to_vec(),
            parallel_cap: Some(2),
            ..Options::default()
        }
    }
}

/// One extension schedule: the producer instances each live-out tile
/// (re)computes.
#[derive(Debug, Clone)]
pub struct ExtensionPart {
    /// The producer statement.
    pub stmt: StmtId,
    /// The producer's fusion group (index into the start-up groups).
    pub group: usize,
    /// Relation (6): `{ [o...] -> Stmt[i] }` over the live-out tile dims.
    pub ext: Map,
}

/// One absorbed budget-exhaustion event: where the budget tripped and
/// what the optimizer gave up in response. Collected into
/// [`crate::optimize::DegradationReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTrip {
    /// The governed phase that tripped (`"algo1/extension"`, ...).
    pub phase: &'static str,
    /// Which limit tripped (`"deadline"`, `"omega-ops"`, ...).
    pub limit: &'static str,
    /// What was dropped or degraded (human-readable).
    pub detail: String,
}

impl BudgetTrip {
    /// Builds a trip from an absorbed error. Only
    /// [`degradable`](crate::optimize::degradable) errors are absorbed, and
    /// those always carry their `(limit, phase)`.
    pub(crate) fn from_error(e: &Error, detail: String) -> Self {
        let Exhausted { limit, phase } = e.budget().unwrap_or(Exhausted {
            limit: "",
            phase: "",
        });
        BudgetTrip {
            phase,
            limit,
            detail,
        }
    }
}

/// The output of Algorithm 1 for one live-out group.
#[derive(Debug, Clone)]
pub struct MixedSchedules {
    /// The live-out group index.
    pub liveout: usize,
    /// Number of tiled band dimensions (0 = fusion without tiling).
    pub k: usize,
    /// The tile band (present when `k > 0`).
    pub tile_band: Option<Band>,
    /// Parallel dimensions of the live-out tile band after the target cap
    /// — the `m` of the paper.
    pub m: usize,
    /// Extension schedules of fused producer statements, in statement
    /// order.
    pub extensions: Vec<ExtensionPart>,
    /// Producer groups fully fused into this live-out's tiles (topological
    /// order).
    pub fused_groups: Vec<usize>,
    /// Producer groups rejected by the `m > n` parallelism guard; they keep
    /// their own schedules (and are tiled independently — line 17).
    pub untiled_groups: Vec<usize>,
    /// Budget-exhaustion events absorbed while building this live-out's
    /// schedules (rung-2 degradations: each dropped one producer's fusion).
    pub budget_trips: Vec<BudgetTrip>,
}

/// Runs Algorithm 1 for the live-out group `liveout` over its producer
/// groups.
///
/// # Errors
/// Returns an error on set-operation failure.
pub fn algorithm1(
    program: &Program,
    deps: &[Dependence],
    groups: &[Group],
    liveout: usize,
    producers: &[usize],
    opts: &Options,
) -> Result<MixedSchedules> {
    let _span = tilefuse_trace::span!("algo1", "liveout group {liveout}");
    // Validate user-supplied group structure before any indexing; the rest
    // of the function slices `shifts[idx][..k]` / `coincident[..k]` freely.
    if liveout >= groups.len() {
        return Err(Error::InvalidInput(format!(
            "live-out group index {liveout} out of range ({} groups)",
            groups.len()
        )));
    }
    if let Some(&p) = producers.iter().find(|&&p| p >= groups.len()) {
        return Err(Error::InvalidInput(format!(
            "producer group index {p} out of range ({} groups)",
            groups.len()
        )));
    }
    for g in groups {
        tilefuse_scheduler::validate_group(program, g)?;
    }
    let lg = &groups[liveout];
    let k = lg.depth.min(opts.tile_sizes.len());
    // Build per-statement tile-dimension maps (relation (2)). Budget
    // exhaustion *here* propagates: the live-out band itself cannot be
    // degraded per producer, so the ladder in `optimize` handles it
    // (rung 3: plain tiling on a fresh grant).
    crate::error::checkpoint("algo1/tile-band")?;
    let band_span = tilefuse_trace::span!("algo1/tile-band");
    let mut tile_maps = Vec::new();
    let tile_band = if k > 0 {
        let mut parts = Vec::new();
        for (idx, &s) in lg.stmts.iter().enumerate() {
            let vars = loop_vars(program, s);
            parts.push(band_part(program, s, &vars[..k], &lg.shifts[idx][..k])?);
        }
        let prefix = Band::new(
            tilefuse_presburger::UnionMap::from_parts(parts)?,
            true,
            lg.coincident[..k].to_vec(),
        )?;
        let (tile, _) = prefix.tile(&opts.tile_sizes[..k])?;
        for &s in &lg.stmts {
            let name = program.stmt(s).name();
            let part = tile
                .sched()
                .parts()
                .iter()
                .find(|m| m.space().in_tuple().name() == Some(name))
                .ok_or_else(|| Error::Internal(format!("no tile part for {name}")))?;
            tile_maps.push(part.clone());
        }
        Some(tile)
    } else {
        for &s in &lg.stmts {
            tile_maps.push(band_part(program, s, &[], &[])?);
        }
        None
    };
    let m_raw = lg.coincident[..k].iter().take_while(|&&c| c).count();
    let m = match opts.parallel_cap {
        Some(cap) => m_raw.min(cap),
        None => m_raw,
    };
    // Tile count of the live-out space at the default parameters (for the
    // recomputation budget below).
    let params = program.param_values(&[]);
    let n_tiles = {
        let rep = lg.stmts[0];
        let vars = loop_vars(program, rep);
        let hull = program
            .stmt(rep)
            .domain()
            .rect_hull(&params)?
            .unwrap_or_default();
        let mut n = 1.0f64;
        for (j, &ts) in opts.tile_sizes.iter().take(k).enumerate() {
            let extent = vars
                .get(j)
                .and_then(|&d| hull.get(d))
                .map(|(l, u)| (u - l + 1).max(0) as f64)
                .unwrap_or(1.0);
            n *= (extent / ts as f64).ceil();
        }
        n
    };
    drop(band_span);

    // Upwards exposed data of the live-out group: arrays read by it but
    // written by producer groups (line 5).
    let producer_stmts: BTreeSet<StmtId> = producers
        .iter()
        .flat_map(|&g| groups[g].stmts.iter().copied())
        .collect();
    let producer_targets: BTreeSet<ArrayId> = producer_stmts
        .iter()
        .map(|&s| program.stmt(s).body().target)
        .collect();
    let mut budget_trips: Vec<BudgetTrip> = Vec::new();
    let mut needed: BTreeMap<ArrayId, Map> = BTreeMap::new();
    {
        let _s = tilefuse_trace::span!("algo1/exposed", "{} arrays", producer_targets.len());
        crate::error::checkpoint("algo1/exposed")?;
        for &arr in &producer_targets {
            let attempt: Result<Option<Map>> =
                (|| match exposed_footprint(program, &lg.stmts, &tile_maps, arr)? {
                    Some(fp) if !fp.is_empty()? => Ok(Some(fp)),
                    _ => Ok(None),
                })();
            match attempt {
                Ok(Some(fp)) => {
                    needed.insert(arr, fp);
                }
                Ok(None) => {}
                // Rung-2 absorption: no footprint demand is recorded for
                // this array, so its producers simply stay unfused (sound:
                // they keep their original schedules). A fresh grant keeps
                // one blown deadline from cascading into every remaining
                // array.
                Err(e) if crate::optimize::degradable(&e) => {
                    budget_trips.push(BudgetTrip::from_error(
                        &e,
                        format!("dropped exposed footprint of array {}", arr.0),
                    ));
                    tilefuse_trace::governor::rearm();
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Walk producer chains (lines 9–16).
    let mut extensions: Vec<ExtensionPart> = Vec::new();
    let mut untiled: BTreeSet<usize> = BTreeSet::new();
    let mut remaining: BTreeSet<StmtId> = producer_stmts.clone();
    let group_of = |s: StmtId| -> Result<usize> {
        groups
            .iter()
            .position(|g| g.stmts.contains(&s))
            .ok_or_else(|| Error::InvalidInput(format!("statement {} belongs to no group", s.0)))
    };
    // Readers per array: the consumer-order search below asks about every
    // remaining statement at every step.
    let mut readers: BTreeMap<ArrayId, BTreeSet<StmtId>> = BTreeMap::new();
    for (i, st) in program.stmts().iter().enumerate() {
        for (a, _) in st.body().rhs.loads() {
            readers.entry(a).or_default().insert(StmtId(i));
        }
    }
    let readers_of = |arr: ArrayId| readers.get(&arr).into_iter().flatten().copied();
    let reads_array = |s: StmtId, arr: ArrayId| readers.get(&arr).is_some_and(|r| r.contains(&s));
    loop {
        // Consumer-before-producer order: a statement's extension is
        // computed from the footprint of its target array, so every fused
        // reader of that array must have contributed its chained footprint
        // first. Otherwise a producer read both directly by the live-out
        // and by a fused stencil (a diamond) gets a slice missing the
        // stencil's halo rows. Fall back to any needed statement when no
        // reader-free one exists (cyclic array dataflow).
        let strict = remaining.iter().copied().find(|&s| {
            let t = program.stmt(s).body().target;
            needed.contains_key(&t) && !readers_of(t).any(|o| o != s && remaining.contains(&o))
        });
        let Some(s) = strict.or_else(|| {
            remaining
                .iter()
                .copied()
                .find(|&s| needed.contains_key(&program.stmt(s).body().target))
        }) else {
            break;
        };
        remaining.remove(&s);
        let g = group_of(s)?;
        if untiled.contains(&g) {
            continue;
        }
        // The m > n parallelism guard (line 8): a producer group with fewer
        // parallel loops than the live-out tile band must not be fused.
        let n = match opts.parallel_cap {
            Some(cap) => groups[g].n_outer_parallel().min(cap),
            None => groups[g].n_outer_parallel(),
        };
        if m > n {
            untiled.insert(g);
            for &other in &groups[g].stmts {
                remaining.remove(&other);
            }
            continue;
        }
        let target = program.stmt(s).body().target;
        let fp = needed
            .get(&target)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("no footprint for statement {}", s.0)))?;
        // The whole per-producer pipeline (extension schedule, recompute
        // estimate, chained footprints) runs as one fallible attempt so a
        // budget trip anywhere inside drops exactly this producer's fusion
        // (rung 2) without committing partial footprint updates.
        type Attempt = Result<Option<(Map, Vec<(ArrayId, Map)>)>>;
        let attempt: Attempt = (|| {
            if opts.fault == FaultInjection::BudgetExhaustExtension {
                return Err(Error::injected_budget("algo1/extension"));
            }
            crate::error::checkpoint("algo1/extension")?;
            let ext_span = tilefuse_trace::span!("algo1/extension", "stmt {}", s.0);
            let write = program.write_access(s)?;
            let ext = coalesced(&extension_schedule(&fp, &write)?)?;
            // Recomputation budget (see Options::max_recompute): estimate how
            // many times the producer would re-execute across tiles.
            let over_budget =
                recompute_estimate(program, &ext, s, n_tiles, &params)? > opts.max_recompute;
            drop(ext_span);
            if over_budget {
                return Ok(None);
            }
            // Extend the footprint demands through this statement's reads
            // (line 15) so transitive producers can be tiled too.
            let _chain_span = tilefuse_trace::span!("algo1/chain", "stmt {}", s.0);
            crate::error::checkpoint("algo1/chain")?;
            let compose_span = tilefuse_trace::span!("algo1/chain/compose");
            let mut extras: Vec<(ArrayId, Map)> = Vec::new();
            for &arr in &producer_targets {
                if arr == target {
                    continue;
                }
                if let Some(extra) = chained_footprint(program, s, &ext, arr)? {
                    if !extra.is_empty()? {
                        extras.push((arr, extra));
                    }
                }
            }
            drop(compose_span);
            let _coalesce_span = tilefuse_trace::span!("algo1/chain/coalesce");
            let mut updates: Vec<(ArrayId, Map)> = Vec::new();
            for (arr, extra) in extras {
                // Coalesce after every union: deep multi-consumer DAGs
                // (pyramids) otherwise snowball near-duplicate disjuncts —
                // each level's point read is subsumed by its stencil
                // sibling's halo read.
                let merged = match needed.get(&arr) {
                    Some(m) => m.union(&extra)?,
                    None => extra,
                };
                updates.push((arr, coalesced(&merged)?));
            }
            Ok(Some((ext, updates)))
        })();
        match attempt {
            Ok(Some((ext, updates))) => {
                for (arr, m) in updates {
                    needed.insert(arr, m);
                }
                extensions.push(ExtensionPart {
                    stmt: s,
                    group: g,
                    ext,
                });
            }
            // Over the recomputation budget: the group keeps its own
            // schedule (hull fallbacks are priced by max_recompute here).
            Ok(None) => {
                untiled.insert(g);
                for &other in &groups[g].stmts {
                    remaining.remove(&other);
                }
            }
            // Rung-2 absorption: drop fusion for exactly this producer's
            // group, rearm so the remaining producers get a fresh grant.
            Err(e) if crate::optimize::degradable(&e) => {
                budget_trips.push(BudgetTrip::from_error(
                    &e,
                    format!("dropped fusion of statement {} (group {g})", s.0),
                ));
                untiled.insert(g);
                for &other in &groups[g].stmts {
                    remaining.remove(&other);
                }
                tilefuse_trace::governor::rearm();
            }
            Err(e) => return Err(e),
        }
    }

    // A group is fused only when every member received an extension
    // schedule; partial groups keep their original schedule.
    let mut fused_groups: Vec<usize> = Vec::new();
    for &g in producers {
        if untiled.contains(&g) {
            continue;
        }
        let covered = groups[g]
            .stmts
            .iter()
            .all(|&s| extensions.iter().any(|e| e.stmt == s));
        if covered {
            fused_groups.push(g);
        }
    }
    // Stale-read guard: skipping a fused group's original schedule is
    // only sound when every producer group reading its outputs is itself
    // fused (the live-out reads through the extension slices instead).
    // An unfused reader would consume an array nobody writes any more.
    // Dropping a group can strand new readers, so iterate to a fixpoint.
    loop {
        let unfused: Vec<usize> = producers
            .iter()
            .copied()
            .filter(|h| !fused_groups.contains(h))
            .collect();
        let stale = fused_groups.iter().copied().find(|&g| {
            let written: BTreeSet<ArrayId> = groups[g]
                .stmts
                .iter()
                .map(|&s| program.stmt(s).body().target)
                .collect();
            unfused.iter().any(|&h| {
                groups[h]
                    .stmts
                    .iter()
                    .any(|&s| written.iter().any(|&a| reads_array(s, a)))
            })
        });
        match stale {
            Some(g) => fused_groups.retain(|&x| x != g),
            None => break,
        }
    }
    fused_groups.sort_unstable();
    extensions.retain(|e| fused_groups.contains(&e.group));
    extensions.sort_by_key(|e| e.stmt);
    let _ = deps; // dependences are implicit in the access-relation walk
    Ok(MixedSchedules {
        liveout,
        k,
        tile_band,
        m,
        extensions,
        fused_groups,
        untiled_groups: untiled.into_iter().collect(),
        budget_trips,
    })
}

/// Disjunct budget for footprints and extension schedules. Deep
/// multi-consumer DAGs (image pyramids with up/downsampling) produce
/// footprint unions whose parity-constrained pieces cannot be merged
/// exactly; past this budget the count compounds geometrically with
/// pipeline depth. Over-approximating the footprint is sound — the
/// extension is clipped to the producer's domain by composition with the
/// write access, so a looser footprint only adds recomputation (which the
/// `max_recompute` budget then prices in).
const FOOTPRINT_DISJUNCT_CAP: usize = 12;

/// Simplifies a map viewed as a wrapped set: exact coalescing first
/// (drop empty/subsumed disjuncts, merge adjacent ones), then a
/// single-disjunct hull over-approximation when still over budget.
fn coalesced(m: &Map) -> Result<Map> {
    let mut s = m.as_wrapped_set().coalesce()?;
    if s.n_basic() > FOOTPRINT_DISJUNCT_CAP {
        s = s.simple_hull()?;
    }
    // Record the *kept* disjunct count (post-hull), so the report's peak
    // reflects what the pipeline actually carried forward.
    tilefuse_trace::governor::note_disjuncts(s.n_basic());
    Ok(Map::from_wrapped_set(s)?)
}

/// Estimated recomputation factor of fusing `stmt` via `ext`:
/// `(tiles × per-tile instances) / total instances`, with the per-tile
/// count sampled at the origin tile (box approximation).
fn recompute_estimate(
    program: &Program,
    ext: &Map,
    stmt: StmtId,
    n_tiles: f64,
    params: &[i64],
) -> Result<f64> {
    let card = |set: &tilefuse_presburger::Set| -> Result<f64> {
        Ok(match set.rect_hull(params)? {
            None => 0.0,
            Some(h) => h.iter().map(|(l, u)| (u - l + 1).max(0) as f64).product(),
        })
    };
    let k = ext.space().n_in();
    let per_tile = card(&ext.image_of(&vec![0; k])?)?;
    let base = card(program.stmt(stmt).domain())?.max(1.0);
    Ok((n_tiles * per_tile / base).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilefuse_pir::{compute_dependences, ArrayKind, Body, Expr, IdxExpr, SchedTerm};
    use tilefuse_scheduler::{fuse, FuseBudget, FusionHeuristic};

    /// The paper's conv2d with quantization (Fig. 1(a)), H = W = 6,
    /// KH = KW = 3.
    fn conv2d() -> Program {
        let mut p = Program::new("conv2d").with_param("H", 6).with_param("W", 6);
        let a = p.add_array("A", vec!["H".into(), "W".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec![3.into(), 3.into()], ArrayKind::Input);
        let c = p.add_array(
            "C",
            vec![("H", -2).into(), ("W", -2).into()],
            ArrayKind::Output,
        );
        let d2 = |d| IdxExpr::dim(2, d);
        let d4 = |d| IdxExpr::dim(4, d);
        p.add_stmt(
            "{ S0[h, w] : 0 <= h < H and 0 <= w < W }",
            vec![SchedTerm::Cst(0), SchedTerm::Var(0), SchedTerm::Var(1)],
            Body {
                target: a,
                target_idx: vec![d2(0), d2(1)],
                rhs: Expr::mul(Expr::load(a, vec![d2(0), d2(1)]), Expr::Const(0.5)),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S1[h, w] : 0 <= h <= H - 3 and 0 <= w <= W - 3 }",
            vec![
                SchedTerm::Cst(1),
                SchedTerm::Var(0),
                SchedTerm::Var(1),
                SchedTerm::Cst(0),
            ],
            Body {
                target: c,
                target_idx: vec![d2(0), d2(1)],
                rhs: Expr::Const(0.0),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S2[h, w, kh, kw] : 0 <= h <= H - 3 and 0 <= w <= W - 3 and 0 <= kh <= 2 and 0 <= kw <= 2 }",
            vec![
                SchedTerm::Cst(1),
                SchedTerm::Var(0),
                SchedTerm::Var(1),
                SchedTerm::Cst(1),
                SchedTerm::Var(2),
                SchedTerm::Var(3),
            ],
            Body {
                target: c,
                target_idx: vec![d4(0), d4(1)],
                rhs: Expr::add(
                    Expr::load(c, vec![d4(0), d4(1)]),
                    Expr::mul(
                        Expr::load(a, vec![d4(0).plus(&d4(2)), d4(1).plus(&d4(3))]),
                        Expr::load(b, vec![d4(2), d4(3)]),
                    ),
                ),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S3[h, w] : 0 <= h <= H - 3 and 0 <= w <= W - 3 }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0), SchedTerm::Var(1)],
            Body {
                target: c,
                target_idx: vec![d2(0), d2(1)],
                rhs: Expr::relu(Expr::load(c, vec![d2(0), d2(1)])),
            },
        )
        .unwrap();
        p
    }

    fn setup() -> (Program, Vec<Dependence>, Vec<Group>) {
        let p = conv2d();
        let deps = compute_dependences(&p).unwrap();
        let f = fuse(
            &p,
            &deps,
            FusionHeuristic::SmartFuse,
            &mut FuseBudget::default(),
        )
        .unwrap();
        (p, deps, f.groups)
    }

    #[test]
    fn startup_matches_paper_grouping() {
        let (_, _, groups) = setup();
        // ({S0}, {S1, S2, S3}) — the conservative result of Section II.
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].stmts, vec![StmtId(0)]);
        assert_eq!(groups[1].stmts, vec![StmtId(1), StmtId(2), StmtId(3)]);
        assert_eq!(groups[1].coincident, vec![true, true]);
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        let (p, deps, groups) = setup();
        let opts = Options {
            tile_sizes: vec![2, 2],
            ..Options::default()
        };
        // Live-out index out of range: used to panic on `groups[liveout]`.
        let e = algorithm1(&p, &deps, &groups, 7, &[0], &opts).unwrap_err();
        assert!(matches!(e, Error::InvalidInput(_)), "unexpected: {e}");
        // Producer index out of range.
        let e = algorithm1(&p, &deps, &groups, 1, &[9], &opts).unwrap_err();
        assert!(matches!(e, Error::InvalidInput(_)), "unexpected: {e}");
        // Group depth deeper than a member's shift vector: used to panic
        // slicing `shifts[idx][..k]`.
        let mut bad = groups.clone();
        bad[1].shifts = vec![vec![]; bad[1].stmts.len()];
        let e = algorithm1(&p, &deps, &bad, 1, &[0], &opts).unwrap_err();
        assert!(
            e.to_string().contains("malformed fusion group"),
            "unexpected: {e}"
        );
        // Empty group.
        let mut bad = groups.clone();
        bad[0].stmts.clear();
        bad[0].shifts.clear();
        assert!(algorithm1(&p, &deps, &bad, 1, &[0], &opts).is_err());
    }

    #[test]
    fn algorithm1_fuses_quantization_into_tiles() {
        let (p, deps, groups) = setup();
        let opts = Options {
            tile_sizes: vec![2, 2],
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &groups, 1, &[0], &opts).unwrap();
        assert_eq!(mixed.k, 2);
        assert_eq!(mixed.m, 2);
        assert_eq!(mixed.fused_groups, vec![0]);
        assert!(mixed.untiled_groups.is_empty());
        assert_eq!(mixed.extensions.len(), 1);
        // The extension schedule equals the paper's relation (6).
        let expected: Map = "[H, W] -> { [o0, o1] -> S0[h, w] : 0 <= o0 <= 1 and 0 <= o1 <= 1 \
               and 2o0 <= h <= 2o0 + 3 and 2o1 <= w <= 2o1 + 3 }"
            .parse()
            .unwrap();
        let got = mixed.extensions[0]
            .ext
            .fix_param(0, 6)
            .unwrap()
            .fix_param(1, 6)
            .unwrap();
        let want = expected.fix_param(0, 6).unwrap().fix_param(1, 6).unwrap();
        assert!(got.is_equal(&want).unwrap(), "got {got}");
    }

    #[test]
    fn parallelism_guard_rejects_serial_producers() {
        // If the cap says the live-out has 2 parallel dims but the producer
        // has fewer (simulate with cap): producer n capped below m.
        let (p, deps, groups) = setup();
        // Pretend the producer group has no parallelism by lowering its
        // coincident flags.
        let mut groups2 = groups.clone();
        groups2[0].coincident = vec![false, false];
        let opts = Options {
            tile_sizes: vec![2, 2],
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &groups2, 1, &[0], &opts).unwrap();
        assert_eq!(mixed.fused_groups, Vec::<usize>::new());
        assert_eq!(mixed.untiled_groups, vec![0]);
        assert!(mixed.extensions.is_empty());
    }

    #[test]
    fn fusion_without_tiling_when_no_sizes() {
        // The equake case: no tiling, extension over zero tile dims.
        let (p, deps, groups) = setup();
        let opts = Options {
            tile_sizes: vec![],
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &groups, 1, &[0], &opts).unwrap();
        assert_eq!(mixed.k, 0);
        assert!(mixed.tile_band.is_none());
        assert_eq!(mixed.m, 0);
        assert_eq!(mixed.fused_groups, vec![0]);
        let ext = &mixed.extensions[0].ext;
        assert_eq!(ext.space().n_in(), 0);
        // All S0 instances needed by the (single) whole-space "tile".
        let inst = ext.range().unwrap().fixed_params(&[6, 6]).unwrap();
        assert_eq!(inst.count_points(&[6, 6]).unwrap(), 36);
    }

    #[test]
    fn cpu_cap_reduces_m() {
        let (p, deps, groups) = setup();
        let opts = Options {
            tile_sizes: vec![2, 2],
            parallel_cap: Some(1),
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &groups, 1, &[0], &opts).unwrap();
        assert_eq!(mixed.m, 1);
        assert_eq!(mixed.fused_groups, vec![0]);
    }

    #[test]
    fn diamond_footprint_includes_fused_stencil_halo() {
        // The live-out reads A both directly and through a fused stencil:
        //   S0: A[i] = i            S1: B[i] = A[i] + A[i+2]
        //   S2 (live-out): C[i] = A[i] + B[i]
        // S0's slice must not be finalized from the live-out's direct
        // (point) read before S1's chained stencil footprint lands —
        // tile o needs A[4o .. 4o+5], not just A[4o .. 4o+3].
        let mut p = Program::new("diamond").with_param("N", 12);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec![("N", -2).into()], ArrayKind::Temp);
        let c = p.add_array("C", vec![("N", -2).into()], ArrayKind::Output);
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
            "{ S1[i] : 0 <= i < N - 2 }",
            vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
            Body {
                target: b,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(
                    Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                    Expr::load(a, vec![IdxExpr::dim(1, 0).offset(2)]),
                ),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S2[i] : 0 <= i < N - 2 }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: c,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(
                    Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                    Expr::load(b, vec![IdxExpr::dim(1, 0)]),
                ),
            },
        )
        .unwrap();
        let deps = compute_dependences(&p).unwrap();
        let f = fuse(
            &p,
            &deps,
            FusionHeuristic::MinFuse,
            &mut FuseBudget::default(),
        )
        .unwrap();
        let opts = Options {
            tile_sizes: vec![4],
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &f.groups, 2, &[0, 1], &opts).unwrap();
        assert_eq!(mixed.fused_groups, vec![0, 1]);
        let e0 = mixed
            .extensions
            .iter()
            .find(|e| e.stmt == StmtId(0))
            .unwrap();
        let inst = e0.ext.image_of(&[0]).unwrap().fixed_params(&[12]).unwrap();
        // 4 tile points + the stencil's 2-element halo.
        assert_eq!(inst.count_points(&[12]).unwrap(), 6);
    }

    #[test]
    fn transitive_chain_is_followed() {
        // S0 -> S1 -> liveout: both producers get extension schedules.
        let mut p = Program::new("chain").with_param("N", 12);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec![("N", -2).into()], ArrayKind::Temp);
        let c = p.add_array("C", vec![("N", -4).into()], ArrayKind::Output);
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
            "{ S1[i] : 0 <= i < N - 2 }",
            vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
            Body {
                target: b,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(
                    Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                    Expr::load(a, vec![IdxExpr::dim(1, 0).offset(2)]),
                ),
            },
        )
        .unwrap();
        p.add_stmt(
            "{ S2[i] : 0 <= i < N - 4 }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: c,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::add(
                    Expr::load(b, vec![IdxExpr::dim(1, 0)]),
                    Expr::load(b, vec![IdxExpr::dim(1, 0).offset(2)]),
                ),
            },
        )
        .unwrap();
        let deps = compute_dependences(&p).unwrap();
        let f = fuse(
            &p,
            &deps,
            FusionHeuristic::SmartFuse,
            &mut FuseBudget::default(),
        )
        .unwrap();
        assert_eq!(f.groups.len(), 3);
        let opts = Options {
            tile_sizes: vec![4],
            ..Options::default()
        };
        let mixed = algorithm1(&p, &deps, &f.groups, 2, &[0, 1], &opts).unwrap();
        assert_eq!(mixed.fused_groups, vec![0, 1]);
        assert_eq!(mixed.extensions.len(), 2);
        // S1's extension per tile covers the stencil halo: tile 0 of S2
        // needs B[0..5] (4 points + halo 2), so S1 instances 0..=5.
        let e1 = mixed
            .extensions
            .iter()
            .find(|e| e.stmt == StmtId(1))
            .unwrap();
        let inst = e1.ext.image_of(&[0]).unwrap().fixed_params(&[12]).unwrap();
        assert_eq!(inst.count_points(&[12]).unwrap(), 6);
        // And S0's extension covers S1's needs plus its own halo: A[0..7].
        let e0 = mixed
            .extensions
            .iter()
            .find(|e| e.stmt == StmtId(0))
            .unwrap();
        let inst0 = e0.ext.image_of(&[0]).unwrap().fixed_params(&[12]).unwrap();
        assert_eq!(inst0.count_points(&[12]).unwrap(), 8);
    }
}
