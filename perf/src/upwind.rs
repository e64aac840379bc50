//! `upwind_512`: the hand-tiled wavefront stencil. The optimizer is
//! bypassed; what runs is the VM's dense single-statement nest and the
//! tile-DAG runtime.
//!
//! The workload's end-to-end chain executes on the DAG runtime — build
//! program → `tiled_tree` → `execute_tree_dag` (DAG construction included,
//! 2 threads, VM engine) — because that is the path this workload exists
//! to watch. Its "compile" is everything between the source program and a
//! runnable task graph (`tiled_tree` + `build_tile_dag`); `lower_ms` and
//! `exec_ns_per_instance` are the sequential `lower_tree` +
//! `execute_compiled` on the same tree.

use std::collections::BTreeMap;
use tilefuse::codegen::{
    execute_compiled, execute_tree_dag, execute_tree_dag_with, lower_tree, reference_execute,
    CompiledProgram, ExecBackend, ExecContext, ExecStats,
};
use tilefuse::pir::{compute_dependences, ArrayId, Program};
use tilefuse::presburger::stats as memo;
use tilefuse::schedtree::{flatten, ScheduleTree};
use tilefuse::scheduler::{build_tile_dag, TileDag};
use tilefuse::workloads::wavefront;

use crate::bench::Recorder;
use crate::native::Nest;
use crate::pipeline::{buffers_match, governed, outputs_match, ratio, Tally};
use crate::spans::Spans;
use crate::time_left;

/// Problem size `T = N` and tile size: a 9×9 tile grid, 81 tasks and 208
/// edges, 17 wavefront levels up to 9 tiles wide — the size of the
/// historical `"dag"` rows, large enough that a task outweighs the pool's
/// per-task cost.
const SIZE: i64 = 512;
const TILE: i64 = 64;
/// Worker threads of the DAG run: the two cores of the reference box.
const DAG_THREADS: usize = 2;

fn no_scratch() -> BTreeMap<ArrayId, usize> {
    BTreeMap::new()
}

fn program() -> Result<Program, String> {
    wavefront::upwind(SIZE, SIZE)
        .map(|w| w.program)
        .map_err(|e| e.to_string())
}

/// What set-up leaves for the measured rounds.
pub struct Setup {
    program: Program,
    reference: ExecContext,
    instances: u64,
    /// Wall time of `reference_execute` (see `pipeline::Reference`).
    interp_ms: f64,
    nest: Nest,
}

/// Builds the program, its expected result, and the hand-written nest,
/// which must equal the reference bit for bit.
pub fn setup(rec: &mut Recorder) -> Result<Setup, String> {
    let program = program()?;
    let start = std::time::Instant::now();
    let (reference, stats) = reference_execute(&program, &[]).map_err(|e| e.to_string())?;
    let interp_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut nest = Nest::upwind(&program, &ExecContext::initialized(&program, &[]));
    nest.run();
    rec.expect(
        "native upwind",
        nest.matches(&program, &reference),
        "hand-written nest differs from reference_execute",
    );
    Ok(Setup {
        program,
        reference,
        instances: stats.total_instances(),
        interp_ms,
        nest,
    })
}

/// The end-to-end chain and what it produced.
struct DagChain {
    program: Program,
    tree: ScheduleTree,
    ctx: ExecContext,
    stats: ExecStats,
    dag_ms: f64,
    chain_ms: f64,
}

fn dag_chain(spans: &mut Spans) -> Result<DagChain, String> {
    let (inner, chain_ms) = spans.scope("chain", |s| -> Result<_, String> {
        let (program, _) = s.scope("workloads.build", |_| program());
        let program = program?;
        let (tree, _) = s.scope("workloads.tiled_tree", |_| wavefront::tiled_tree(TILE));
        let tree = tree.map_err(|e| e.to_string())?;
        let (ran, dag_ms) = s.scope("codegen.execute_tree_dag", |_| {
            execute_tree_dag(
                &program,
                &tree,
                &[],
                &no_scratch(),
                DAG_THREADS,
                ExecBackend::Vm,
            )
        });
        let (ctx, stats) = ran.map_err(|e| e.to_string())?;
        Ok((program, tree, ctx, stats, dag_ms))
    });
    let (program, tree, ctx, stats, dag_ms) = inner?;
    Ok(DagChain {
        program,
        tree,
        ctx,
        stats,
        dag_ms,
        chain_ms,
    })
}

/// `tiled_tree` + `build_tile_dag`: the workload's compile step.
fn compile(program: &Program, spans: &mut Spans) -> Result<(TileDag, f64, f64), String> {
    let (inner, compile_ms) = spans.scope("compile", |s| -> Result<_, String> {
        let (tree, _) = s.scope("workloads.tiled_tree", |_| wavefront::tiled_tree(TILE));
        let tree = tree.map_err(|e| e.to_string())?;
        let (dag, build_ms) = s.scope("scheduler.build_tile_dag", |_| {
            build_tile_dag(program, &tree, &[], &no_scratch())
        });
        Ok((dag.map_err(|e| e.to_string())?, build_ms))
    });
    let (dag, build_ms) = inner?;
    Ok((dag, build_ms, compile_ms))
}

/// Sequential `lower_tree` + `execute_compiled` on the tiled tree.
struct Sequential {
    compiled: CompiledProgram,
    ctx: ExecContext,
    stats: ExecStats,
    lower_ms: f64,
    exec_ms: f64,
}

fn sequential(
    program: &Program,
    tree: &ScheduleTree,
    spans: &mut Spans,
) -> Result<Sequential, String> {
    let (compiled, lower_ms) = spans.scope("codegen.lower_tree", |_| {
        lower_tree(program, tree, &[], &no_scratch())
    });
    let compiled = compiled.map_err(|e| e.to_string())?;
    let (ran, exec_ms) = spans.scope("codegen.execute_compiled", |_| {
        execute_compiled(program, &compiled, 1)
    });
    let (ctx, stats) = ran.map_err(|e| e.to_string())?;
    Ok(Sequential {
        compiled,
        ctx,
        stats,
        lower_ms,
        exec_ms,
    })
}

/// Compares a DAG run with the reference (live-out, bit for bit) and with
/// the sequential VM on the same tree (every buffer and every statistic).
fn verify(setup: &Setup, dag: &DagChain, seq: &Sequential, rec: &mut Recorder) {
    rec.expect(
        "upwind dag",
        outputs_match(&setup.program, &setup.reference, &dag.ctx),
        "DAG output differs from reference_execute",
    );
    rec.expect(
        "upwind vm",
        outputs_match(&setup.program, &setup.reference, &seq.ctx),
        "VM output differs from reference_execute",
    );
    rec.expect(
        "upwind dag vs vm",
        buffers_match(&setup.program, &seq.ctx, &dag.ctx) && seq.stats == dag.stats,
        "DAG run differs from the sequential VM",
    );
}

/// One end-to-end round (see module docs for what each metric times).
fn e2e_round(setup: &Setup, rec: &mut Recorder) -> Result<(), String> {
    let mut spans = Spans::off();
    memo::clear_cache();
    let dag = dag_chain(&mut spans)?;
    memo::clear_cache();
    let (_, _, cold_ms) = compile(&dag.program, &mut spans)?;
    let (_, _, warm_ms) = compile(&dag.program, &mut spans)?;
    memo::clear_cache();
    let seq = sequential(&dag.program, &dag.tree, &mut spans)?;
    verify(setup, &dag, &seq, rec);
    rec.sample("e2e_ms", dag.chain_ms);
    rec.sample("compile_cold_ms", cold_ms);
    rec.sample("compile_warm_ms", warm_ms);
    rec.sample("lower_ms", seq.lower_ms);
    rec.sample(
        "exec_ns_per_instance",
        ratio(seq.exec_ms * 1e6, setup.instances as f64),
    );
    Ok(())
}

/// The end-to-end pass: rounds until `seconds` have been measured.
pub fn e2e_pass(setup: &Setup, seconds: f64, rec: &mut Recorder) {
    let start = std::time::Instant::now();
    let mut rounds = 0;
    while time_left(start, seconds, rounds) {
        if let Err(e) = e2e_round(setup, rec) {
            rec.check("upwind round", Some(e));
        }
        rounds += 1;
    }
}

/// Everything one cold observation of the workload determines, under an
/// accounting governor; the exact counts go to `tally`.
struct Observed {
    dag: DagChain,
    seq: Sequential,
    tile_dag: TileDag,
    build_ms: f64,
}

fn observe(spans: &mut Spans, tally: &mut Tally) -> Result<Observed, String> {
    memo::clear_cache();
    let o = governed(tally, || -> Result<_, String> {
        let dag = dag_chain(spans)?;
        let (tile_dag, build_ms, _) = compile(&dag.program, spans)?;
        let seq = sequential(&dag.program, &dag.tree, spans)?;
        Ok(Observed {
            dag,
            seq,
            tile_dag,
            build_ms,
        })
    })?;
    tally.add("scheduler.tiledag_tasks", o.tile_dag.n_tasks() as f64);
    tally.add("scheduler.tiledag_edges", o.tile_dag.n_edges() as f64);
    let entries = flatten(&o.dag.tree).map_err(|e| e.to_string())?;
    tally.add("schedtree.flat_entries", entries.len() as f64);
    tally.add("codegen.n_insts", o.seq.compiled.n_insts() as f64);
    tally.add("codegen.n_loops", o.seq.compiled.n_loops() as f64);
    tally.add("codegen.n_fused", o.seq.compiled.n_fused() as f64);
    tally.add("codegen.vm_instances", o.dag.stats.total_instances() as f64);
    tally.add("codegen.vm_loads", o.dag.stats.loads as f64);
    tally.add("codegen.vm_stores", o.dag.stats.stores as f64);
    Ok(o)
}

/// The traced pass: one observation with every tracer off, one with the
/// spans on, then the layer calls the chain hides, each under its own
/// span, and the hand-written nest.
pub fn layer_pass(setup: &mut Setup, rec: &mut Recorder, spans: &mut Spans) -> Result<(), String> {
    let mut plain = Tally::default();
    tilefuse::trace::set_enabled(false);
    let untraced = observe(&mut Spans::off(), &mut plain)?;
    plain.record(rec);

    let mut traced = Tally::default();
    tilefuse::trace::set_enabled(true);
    memo::reset();
    spans.set_rep(1);
    let o = observe(spans, &mut traced)?;
    let seen = memo::snapshot();
    let covered = spans.covered_share("chain");
    traced.record(rec);
    verify(setup, &o.dag, &o.seq, rec);

    let program = &o.dag.program;
    memo::clear_cache();
    let (deps, deps_ms) = spans.scope("pir.compute_dependences", |_| compute_dependences(program));
    let deps = deps.map_err(|e| e.to_string())?;
    let (flat, flatten_ms) = spans.scope("schedtree.flatten", |_| flatten(&o.dag.tree));
    flat.map_err(|e| e.to_string())?;
    let mut dag_run_ms = [0.0; 2];
    for (slot, threads) in [1usize, DAG_THREADS].into_iter().enumerate() {
        let (ran, ms) = spans.scope("codegen.execute_tree_dag_with", |_| {
            execute_tree_dag_with(
                program,
                &o.dag.tree,
                &[],
                &no_scratch(),
                threads,
                ExecBackend::Vm,
                &o.tile_dag,
                false,
            )
        });
        let (ctx, stats) = ran.map_err(|e| e.to_string())?;
        rec.expect(
            "upwind dag run",
            buffers_match(program, &o.seq.ctx, &ctx) && stats == o.seq.stats,
            "DAG run on a prebuilt DAG differs from the sequential VM",
        );
        dag_run_ms[slot] = ms;
    }
    tilefuse::trace::set_enabled(false);

    let (run_ns, _) = spans.scope("native.upwind", |_| setup.nest.time_ns());
    let native_ns = run_ns / setup.instances as f64;

    let executed = o.dag.stats.total_instances() as f64;
    let vm_ns = ratio(o.seq.exec_ms * 1e6, executed);
    for (name, v) in [
        ("pir.deps_ms", deps_ms),
        ("presburger.misses_total", seen.total_misses() as f64),
        ("presburger.is_empty_hit_rate", seen.is_empty.hit_rate()),
        ("presburger.project_hit_rate", seen.project.hit_rate()),
        ("schedtree.flatten_ms", flatten_ms),
        ("codegen.lower_self_ms", o.seq.lower_ms - flatten_ms),
        ("codegen.vm_exec_ms", o.seq.exec_ms),
        (
            "codegen.scratch_hit_ratio",
            ratio(o.seq.stats.scratch_hits as f64, o.seq.stats.loads as f64),
        ),
        (
            "codegen.recompute_factor",
            ratio(executed, setup.instances as f64),
        ),
        ("codegen.vm_ns_per_instance", vm_ns),
        ("codegen.interp_ref_ms", setup.interp_ms),
        ("codegen.vm_over_ref", ratio(o.seq.exec_ms, setup.interp_ms)),
        ("codegen.native_ns_per_instance", native_ns),
        ("codegen.vm_over_native", ratio(vm_ns, native_ns)),
        ("scheduler.tiledag_build_ms", o.build_ms),
        ("codegen.dag_ms", o.dag.dag_ms),
        ("codegen.dag_run_ms_t1", dag_run_ms[0]),
        ("codegen.dag_run_ms_t2", dag_run_ms[1]),
        ("codegen.dag_over_seq", ratio(dag_run_ms[1], o.seq.exec_ms)),
        (
            "trace.overhead_share",
            ratio(
                o.dag.chain_ms - untraced.dag.chain_ms,
                untraced.dag.chain_ms,
            ),
        ),
        ("layers_sum_over_e2e", covered),
    ] {
        rec.sample(name, v);
    }
    // Twice, so that the exact-count check sees the count repeat.
    rec.sample("pir.deps_count", deps.len() as f64);
    rec.sample(
        "pir.deps_count",
        compute_dependences(program).map_or(-1.0, |d| d.len() as f64),
    );
    Ok(())
}
