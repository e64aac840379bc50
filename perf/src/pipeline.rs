//! The optimizer-driven call chain — build program → `optimize` →
//! `lower_tree` → `execute_compiled` — shared by the three PolyMage
//! workloads and by the program pool of `serve_mix`.

use std::collections::BTreeMap;
use std::time::Instant;
use tilefuse::codegen::{
    execute_compiled, lower_tree, reference_execute, CompiledProgram, ExecContext, ExecStats,
};
use tilefuse::pir::{compute_dependences, ArrayKind, Program};
use tilefuse::presburger::stats as memo;
use tilefuse::schedtree::flatten;
use tilefuse::scheduler::schedule;
use tilefuse::trace::governor;
use tilefuse::{optimize, Optimized, Options};

use crate::bench::Recorder;
use crate::spans::Spans;
use crate::stats;

/// A program under test: how to build it afresh, and how to compile and
/// run it.
pub struct Source {
    pub name: String,
    pub build: Box<dyn Fn() -> Result<Program, String>>,
    pub opts: Options,
    /// Parameter overrides for lowering and execution (`serve_mix` runs a
    /// spec at `size + param_delta`, as the daemon does).
    pub overrides: Vec<(&'static str, i64)>,
}

/// The expected result of a [`Source`]: the independent interpreter on the
/// unoptimised program, never the VM.
pub struct Reference {
    pub program: Program,
    pub ctx: ExecContext,
    /// Statement instances of the source program.
    pub instances: u64,
    /// Wall time of `reference_execute`, in a process that has run nothing
    /// else yet (after the chains have churned the heap the interpreter
    /// runs up to twice as slow).
    pub interp_ms: f64,
}

impl Reference {
    pub fn of(src: &Source) -> Result<Reference, String> {
        let program = (src.build)()?;
        let start = Instant::now();
        let (ctx, stats) =
            reference_execute(&program, &src.overrides).map_err(|e| e.to_string())?;
        Ok(Reference {
            program,
            ctx,
            instances: stats.total_instances(),
            interp_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

fn arrays_match(program: &Program, a: &ExecContext, b: &ExecContext, outputs_only: bool) -> bool {
    program
        .arrays()
        .iter()
        .filter(|d| !outputs_only || d.kind() == ArrayKind::Output)
        .all(|d| {
            let (x, y) = (a.buffer(d.id()), b.buffer(d.id()));
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Whether every live-out array of `got` equals the reference bit for bit.
/// Intermediate arrays are not compared: a fused producer's values live in
/// tile-local scratch and need never reach backing memory.
pub fn outputs_match(program: &Program, reference: &ExecContext, got: &ExecContext) -> bool {
    arrays_match(program, reference, got, true)
}

/// Whether two runs of the *same* tree agree on every array, bit for bit.
pub fn buffers_match(program: &Program, a: &ExecContext, b: &ExecContext) -> bool {
    arrays_match(program, a, b, false)
}

/// One cold call chain and what it produced.
pub struct Chain {
    pub program: Program,
    pub opt: Optimized,
    pub compiled: CompiledProgram,
    pub ctx: ExecContext,
    pub stats: ExecStats,
    pub optimize_ms: f64,
    pub lower_ms: f64,
    pub exec_ms: f64,
    pub chain_ms: f64,
}

/// Runs the chain under a `chain` span with one child span per layer call.
/// The caller decides whether the presburger memo is cold.
pub fn chain(src: &Source, spans: &mut Spans) -> Result<Chain, String> {
    let (inner, chain_ms) = spans.scope("chain", |s| -> Result<_, String> {
        let (program, _) = s.scope("workloads.build", |_| (src.build)());
        let program = program?;
        let (opt, optimize_ms) = s.scope("core.optimize", |_| optimize(&program, &src.opts));
        let opt = opt.map_err(|e| e.to_string())?;
        let (compiled, lower_ms) = s.scope("codegen.lower_tree", |_| {
            lower_tree(
                &program,
                &opt.tree,
                &src.overrides,
                &opt.report.scratch_scopes,
            )
        });
        let compiled = compiled.map_err(|e| e.to_string())?;
        let (ran, exec_ms) = s.scope("codegen.execute_compiled", |_| {
            execute_compiled(&program, &compiled, 1)
        });
        let (ctx, stats) = ran.map_err(|e| e.to_string())?;
        Ok((
            program,
            opt,
            compiled,
            ctx,
            stats,
            [optimize_ms, lower_ms, exec_ms],
        ))
    });
    let (program, opt, compiled, ctx, stats, [optimize_ms, lower_ms, exec_ms]) = inner?;
    Ok(Chain {
        program,
        opt,
        compiled,
        ctx,
        stats,
        optimize_ms,
        lower_ms,
        exec_ms,
        chain_ms,
    })
}

/// Executions are repeated until they add up to this many milliseconds…
const SHORT_EXEC_MS: f64 = 50.0;
/// …or have been run this often.
const SHORT_EXEC_REPS: usize = 64;

/// Sums over the sources of one end-to-end round.
#[derive(Debug, Default)]
pub struct RoundSums {
    pub cold_ms: f64,
    pub warm_ms: f64,
    pub lower_ms: f64,
    pub exec_ms: f64,
    pub chain_ms: f64,
    pub instances: u64,
}

impl RoundSums {
    /// Records the four metrics every optimizer-driven workload derives
    /// from a round the same way.
    pub fn record(&self, rec: &mut Recorder) {
        rec.sample("compile_cold_ms", self.cold_ms);
        rec.sample("compile_warm_ms", self.warm_ms);
        rec.sample("lower_ms", self.lower_ms);
        rec.sample(
            "exec_ns_per_instance",
            ratio(self.exec_ms * 1e6, self.instances as f64),
        );
    }
}

/// One round of the end-to-end pass: for every source a cold chain, its
/// bit comparison with the reference, and `optimize` once more on a fresh
/// `Program` with the memo left hot. Errors and mismatches go to `rec`;
/// the sums cover the sources that ran.
pub fn e2e_round(sources: &[Source], refs: &[Reference], rec: &mut Recorder) -> RoundSums {
    let mut sums = RoundSums::default();
    let mut spans = Spans::off();
    for (src, reference) in sources.iter().zip(refs) {
        memo::clear_cache();
        let c = match chain(src, &mut spans) {
            Ok(c) => c,
            Err(e) => {
                rec.check(&src.name, Some(format!("chain failed: {e}")));
                continue;
            }
        };
        rec.expect(
            &src.name,
            outputs_match(&c.program, &reference.ctx, &c.ctx),
            "VM output differs from reference_execute",
        );
        let warm = (src.build)().and_then(|p| {
            let (r, ms) = spans.scope("core.optimize", |_| optimize(&p, &src.opts));
            r.map(|_| ms).map_err(|e| e.to_string())
        });
        match warm {
            Ok(ms) => sums.warm_ms += ms,
            Err(e) => rec.check(&src.name, Some(format!("warm optimize failed: {e}"))),
        }
        // A short execution is repeated and its median taken: a single
        // millisecond-sized timing is bimodal from run to run.
        let mut exec_ms = vec![c.exec_ms];
        while exec_ms.iter().sum::<f64>() < SHORT_EXEC_MS && exec_ms.len() < SHORT_EXEC_REPS {
            let (ran, ms) = spans.scope("codegen.execute_compiled", |_| {
                execute_compiled(&c.program, &c.compiled, 1)
            });
            match ran {
                Ok(_) => exec_ms.push(ms),
                Err(e) => {
                    rec.check(&src.name, Some(format!("execution failed: {e}")));
                    break;
                }
            }
        }
        sums.cold_ms += c.optimize_ms;
        sums.lower_ms += c.lower_ms;
        sums.exec_ms += stats::median(&exec_ms);
        sums.chain_ms += c.chain_ms;
        sums.instances += reference.instances;
    }
    sums
}

/// Metric name → value, summed over sources except where a maximum is the
/// meaningful merge.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<&'static str, f64>);

const MAX_MERGED: [&str; 2] = ["core.rung", "presburger.peak_disjuncts"];

impl Tally {
    pub fn add(&mut self, name: &'static str, v: f64) {
        let slot = self.0.entry(name).or_insert(0.0);
        if MAX_MERGED.contains(&name) {
            *slot = slot.max(v);
        } else {
            *slot += v;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn record(&self, rec: &mut Recorder) {
        for (name, v) in &self.0 {
            rec.sample(name, *v);
        }
    }
}

/// `num / den`, 0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` under an unlimited governor — accounting only, nothing is
/// enforced — and adds the Omega operations and the peak disjunct count it
/// saw on this thread to `tally`.
pub fn governed<T>(tally: &mut Tally, f: impl FnOnce() -> T) -> T {
    let guard = governor::install(&tilefuse::trace::Budget::unlimited());
    let out = f();
    let used = governor::consumed();
    drop(guard);
    tally.add("presburger.omega_ops", used.omega_ops as f64);
    tally.add("presburger.peak_disjuncts", used.peak_disjuncts as f64);
    out
}

/// The exact counts one chain determines.
fn chain_counts(c: &Chain, tally: &mut Tally) -> Result<(), String> {
    let report = &c.opt.report;
    tally.add("pir.deps_count", report.deps.len() as f64);
    tally.add("scheduler.groups", report.groups.len() as f64);
    tally.add("core.rung", f64::from(report.degradation.rung));
    tally.add("core.trips", report.degradation.trips.len() as f64);
    tally.add(
        "core.fused_producers",
        report
            .mixed
            .iter()
            .map(|m| m.fused_groups.len())
            .sum::<usize>() as f64,
    );
    let entries = flatten(&c.opt.tree).map_err(|e| e.to_string())?;
    tally.add("schedtree.flat_entries", entries.len() as f64);
    tally.add("codegen.n_insts", c.compiled.n_insts() as f64);
    tally.add("codegen.n_loops", c.compiled.n_loops() as f64);
    tally.add("codegen.n_fused", c.compiled.n_fused() as f64);
    tally.add("codegen.vm_instances", c.stats.total_instances() as f64);
    tally.add("codegen.vm_loads", c.stats.loads as f64);
    tally.add("codegen.vm_stores", c.stats.stores as f64);
    Ok(())
}

fn phase_ms(opt: &Optimized, names: &[&str]) -> f64 {
    opt.report
        .phases
        .iter()
        .filter(|p| names.contains(&p.name.as_str()))
        .map(|p| p.total_ns as f64 / 1e6)
        .sum()
}

/// The traced pass over `sources`: per source one chain with every tracer
/// off, one with the harness's spans and the program's own spans on (both
/// cold, both under an accounting governor), then the layer calls the
/// chain hides inside `optimize` and `lower_tree`, each under its own
/// span. Records every per-layer metric the chain determines; the exact
/// counts are recorded once per chain, so a count that does not repeat
/// fails the run.
pub fn layer_pass(
    sources: &[Source],
    refs: &[Reference],
    rec: &mut Recorder,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut ms = Tally::default();
    let (mut hits, mut lookups) = ([0u64; 2], [0u64; 2]);
    let mut scratch_hits = 0u64;
    let mut ref_instances = 0u64;
    let (mut chain_plain_ms, mut chain_traced_ms) = (0.0, 0.0);
    let mut covered_ms = 0.0;

    for (rep, (src, reference)) in sources.iter().zip(refs).enumerate() {
        spans.set_rep(rep as u32);
        ref_instances += reference.instances;

        tilefuse::trace::set_enabled(false);
        memo::clear_cache();
        let c = governed(&mut plain, || chain(src, &mut Spans::off()))?;
        chain_counts(&c, &mut plain)?;
        chain_plain_ms += c.chain_ms;

        tilefuse::trace::set_enabled(true);
        memo::clear_cache();
        memo::reset();
        let c = governed(&mut traced, || chain(src, spans))?;
        let seen = memo::snapshot();
        chain_counts(&c, &mut traced)?;
        chain_traced_ms += c.chain_ms;
        covered_ms += c.chain_ms * spans.covered_share("chain");
        rec.expect(
            &src.name,
            outputs_match(&c.program, &reference.ctx, &c.ctx),
            "VM output differs from reference_execute",
        );

        for (i, op) in [seen.is_empty, seen.project].iter().enumerate() {
            hits[i] += op.hits;
            lookups[i] += op.hits + op.misses;
        }
        ms.add("presburger.misses_total", seen.total_misses() as f64);
        scratch_hits += c.stats.scratch_hits;

        let optimize_ms = phase_ms(&c.opt, &["optimize"]);
        ms.add(
            "core.optimize_self_ms",
            optimize_ms - phase_ms(&c.opt, &["schedule"]),
        );
        ms.add("core.algo1_ms", phase_ms(&c.opt, &["algo1"]));
        ms.add(
            "core.algo2_ms",
            phase_ms(&c.opt, &["algo2/graft", "algo2/plain-tile"]),
        );
        ms.add("core.rule2_ms", phase_ms(&c.opt, &["algo3/rule2"]));
        ms.add("codegen.vm_exec_ms", c.exec_ms);

        // `flatten` as `lower_tree` meets it: with the memo in the state
        // `optimize` leaves behind.
        memo::clear_cache();
        let replay = optimize(&c.program, &src.opts).map_err(|e| e.to_string())?;
        let (flat, flatten_ms) = spans.scope("schedtree.flatten", |_| flatten(&replay.tree));
        flat.map_err(|e| e.to_string())?;
        ms.add("schedtree.flatten_ms", flatten_ms);
        ms.add("codegen.lower_self_ms", c.lower_ms - flatten_ms);

        // Dependences and the start-up schedule on a `Program` nothing has
        // touched (a used one carries per-set emptiness flags), memo cold
        // for the first and as the first leaves it for the second.
        let fresh = (src.build)()?;
        memo::clear_cache();
        let (deps, deps_ms) =
            spans.scope("pir.compute_dependences", |_| compute_dependences(&fresh));
        deps.map_err(|e| e.to_string())?;
        ms.add("pir.deps_ms", deps_ms);
        let fresh = (src.build)()?;
        let (sched, schedule_ms) =
            spans.scope("scheduler.schedule", |_| schedule(&fresh, src.opts.startup));
        sched.map_err(|e| e.to_string())?;
        ms.add("scheduler.schedule_ms", schedule_ms);
        ms.add("codegen.interp_ref_ms", reference.interp_ms);
    }
    tilefuse::trace::set_enabled(false);

    plain.record(rec);
    traced.record(rec);
    ms.record(rec);
    let executed = traced.get("codegen.vm_instances");
    let exec_ms = ms.get("codegen.vm_exec_ms");
    rec.sample(
        "presburger.is_empty_hit_rate",
        ratio(hits[0] as f64, lookups[0] as f64),
    );
    rec.sample(
        "presburger.project_hit_rate",
        ratio(hits[1] as f64, lookups[1] as f64),
    );
    rec.sample(
        "codegen.scratch_hit_ratio",
        ratio(scratch_hits as f64, traced.get("codegen.vm_loads")),
    );
    rec.sample(
        "codegen.recompute_factor",
        ratio(executed, ref_instances as f64),
    );
    rec.sample("codegen.vm_ns_per_instance", ratio(exec_ms * 1e6, executed));
    rec.sample(
        "codegen.vm_over_ref",
        ratio(exec_ms, ms.get("codegen.interp_ref_ms")),
    );
    rec.sample(
        "trace.overhead_share",
        ratio(chain_traced_ms - chain_plain_ms, chain_plain_ms),
    );
    rec.sample("layers_sum_over_e2e", ratio(covered_ms, chain_traced_ms));
    Ok(())
}
