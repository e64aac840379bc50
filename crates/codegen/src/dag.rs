//! The tile-level task-DAG work-stealing runtime — the one parallel
//! runtime of this crate.
//!
//! A coincident band dimension can be fanned out loop-wise, but time-tiled
//! stencils — whose tile dimensions all carry dependences — cannot. This
//! runtime executes tiles as tasks of a dependence DAG ([`TileDag`], built
//! in `tilefuse-scheduler`). A tile becomes runnable the moment its
//! inter-tile predecessors have completed, which unlocks *wavefront*
//! parallelism inside a serialized band and *pipeline* parallelism across
//! fused groups. A coincident loop is the degenerate case — a DAG with no
//! edges — and [`crate::execute_compiled`] runs it on this same pool.
//!
//! ## Execution model
//!
//! Static inside a task, dynamic between tasks. On the VM a task is the
//! compiled loop nest run under the task's pinned schedule prefix
//! (`Machine::run_under`): exactly the sequential instruction stream
//! restricted to the tile, at the sequential VM's per-instance cost. On
//! the interpreter — kept as the independent implementation DAG×VM is
//! compared against — each task *enumerates its own work*: one
//! schedule-major scanner per flattened entry is built up front, and each
//! task pins it to the task's prefix with a leading-dimension walk
//! ([`Scanner::for_each_under`]) and sorts its own items into
//! lexicographic schedule order.
//!
//! Tasks access *shared* buffers directly: every buffer element is an
//! `AtomicU64` holding f64 bits, loaded and stored with `Relaxed`
//! ordering, with tile-local scratch cleared at every task start. This is
//! correct and deterministic:
//!
//! * any two instances with a conflicting access to a non-scratch element
//!   (at least one write) are related by a flow, anti or output
//!   dependence, so their tasks are DAG-ordered and the release/acquire
//!   chain below puts the accesses in happens-before order — coherence
//!   then forces each relaxed load to observe the happens-before-latest
//!   store, and the element's final value is the sequential last writer's
//!   (the edge-free tasks of a coincident loop have no conflicting
//!   accesses at all; thread spawn and join order them against the code
//!   around the loop);
//! * scratch never escapes a task: every scratch scope is at least the
//!   task prefix length, so the sequential interpreter clears scratch at
//!   every task boundary too, and a cleared scratch per task reproduces
//!   the sequential scratch state — including `scratch_hits` — bit-exactly;
//! * statistics are sums of per-worker counters, which commute.
//!
//! ## Work stealing
//!
//! Each worker owns a deque: it pushes newly released successors to the
//! back and pops its own work from the back (LIFO — the successor it just
//! released has its inputs hot in cache), while idle workers steal from
//! the *front* of a victim's deque (FIFO — the oldest task, most likely to
//! unlock further work on the thief). Completion releases successors via
//! an atomic in-degree decrement.
//!
//! ## Memory ordering
//!
//! A task's relaxed buffer stores are sequenced before its worker's
//! successor-releasing `fetch_sub(1, AcqRel)` on the successor's
//! in-degree. Multiple predecessors decrement the *same* atomic, so the
//! read-modify-write chain hands happens-before from every earlier
//! decrementer to the final one (each RMW acquires the value released by
//! the previous), and the final decrementer pushes the successor onto a
//! deque under a mutex; the worker that pops it acquires that mutex. The
//! chain `buffer stores → AcqRel in-degree RMWs → deque mutex → task run`
//! gives happens-before from every predecessor's stores to the
//! successor's loads — transitively to all ancestors, by induction over
//! the DAG. A *dropped* edge (fault injection) removes the ordering but
//! not the atomicity: results become wrong, never undefined.
//!
//! ## Adversarial mode
//!
//! [`execute_tree_dag_with`] can run single-threaded with the ready set
//! drained in *descending* lexicographic order: among runnable tasks the
//! latest always goes first, deterministically exposing a missing edge as
//! a state mismatch (the consumer runs before the producer it should have
//! waited for). The fuzz oracle's `DagDropEdge` fault-injection self-test
//! relies on this mode.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::error::{Error, Result};
use crate::interp::{
    default_threads, execute_instance, from_atoms, into_atoms, ExecContext, ExecStats, Scratch,
    SharedMem,
};
use crate::vm::{execute_compiled_dag, ExecBackend};
use tilefuse_pir::{ArrayId, Program, StmtId};
use tilefuse_presburger::Scanner;
use tilefuse_schedtree::{flatten, ScheduleTree};
use tilefuse_scheduler::{build_tile_dag, TileDag};

/// One instance owned by a task: `(entry index, [schedule…, instance…])`.
/// The flat coordinate vector is the scanner point verbatim (one
/// allocation per instance); the entry index recovers the statement and
/// the schedule/instance split.
type TaskItem = (usize, Vec<i64>);

/// Per-flattened-entry state for lazy per-task work enumeration.
struct EntryWork {
    /// Position in flatten order (sequential tie-break).
    order: usize,
    stmt: StmtId,
    /// Schedule-tuple arity (the wrapped set's leading dimensions).
    n_sched: usize,
    /// Scanner over `(schedule ∩ domain)⁻¹` wrapped —
    /// `[schedule dims…, instance dims…]` — built **once**; each task
    /// restricts it to its prefix with a pinned-prefix walk
    /// ([`Scanner::for_each_under`]), so per-task enumeration pays no
    /// set operations and no bound re-derivation.
    scanner: Scanner,
}

/// Builds the tile DAG for `tree` and executes it on the selected backend
/// with a work-stealing pool (see module docs). Buffers **and**
/// [`ExecStats`] are bit-identical to [`crate::execute_tree`] for any
/// thread count.
///
/// `n_threads == 0` means [`default_threads`]; `1` executes the tasks
/// sequentially in lexicographic order (still through the DAG machinery).
///
/// # Errors
/// Returns an error if DAG construction fails (illegal schedule, set
/// operation failure), or on the usual execution failures. Worker panics
/// are caught and surfaced as [`Error::Exec`].
pub fn execute_tree_dag(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
    n_threads: usize,
    backend: ExecBackend,
) -> Result<(ExecContext, ExecStats)> {
    let dag = build_tile_dag(program, tree, overrides, scratch_scopes)
        .map_err(|e| Error::Exec(format!("tile-DAG construction failed: {e}")))?;
    execute_tree_dag_with(
        program,
        tree,
        overrides,
        scratch_scopes,
        n_threads,
        backend,
        &dag,
        false,
    )
}

/// [`execute_tree_dag`] with a caller-supplied (possibly fault-injected)
/// DAG and an optional adversarial schedule (see module docs). With a
/// correct DAG the result is bit-identical to sequential execution in
/// every mode; `adversarial` exists so a *dropped edge* manifests
/// deterministically.
///
/// # Errors
/// See [`execute_tree_dag`].
#[allow(clippy::too_many_arguments)]
pub fn execute_tree_dag_with(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
    n_threads: usize,
    backend: ExecBackend,
    dag: &TileDag,
    adversarial: bool,
) -> Result<(ExecContext, ExecStats)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_tree_dag_inner(
            program,
            tree,
            overrides,
            scratch_scopes,
            n_threads,
            backend,
            dag,
            adversarial,
        )
    }))
    .unwrap_or_else(|payload| {
        Err(Error::Exec(format!(
            "panic during DAG execution (phase {}): {}",
            tilefuse_trace::governor::last_phase(),
            tilefuse_trace::governor::panic_message(payload.as_ref()),
        )))
    })
}

#[allow(clippy::too_many_arguments)]
fn execute_tree_dag_inner(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
    n_threads: usize,
    backend: ExecBackend,
    dag: &TileDag,
    adversarial: bool,
) -> Result<(ExecContext, ExecStats)> {
    let _span = tilefuse_trace::span!("dag/execute", "{} ({})", program.name(), backend);
    program.validate_params()?;
    let n_threads = if n_threads == 0 {
        default_threads()
    } else {
        n_threads
    };
    match backend {
        ExecBackend::Interp => run_interp(
            program,
            tree,
            overrides,
            scratch_scopes,
            n_threads,
            dag,
            adversarial,
        ),
        ExecBackend::Vm => {
            let compiled = crate::lower::lower_tree(program, tree, overrides, scratch_scopes)?;
            execute_compiled_dag(program, &compiled, dag, n_threads, adversarial)
        }
    }
}

/// Flattens the tree and builds each entry's schedule-major scanner once:
/// the schedule relation is reversed so the wrapped set leads with the
/// schedule dimensions, which makes a task prefix a *leading-dimension*
/// restriction — exactly what [`Scanner::for_each_under`] pins for free.
fn entry_work(program: &Program, tree: &ScheduleTree, values: &[i64]) -> Result<Vec<EntryWork>> {
    let entries = flatten(tree)?;
    entries
        .iter()
        .enumerate()
        .map(|(order, e)| {
            let stmt = program
                .stmt_named(&e.stmt)
                .ok_or_else(|| Error::Exec(format!("unknown statement {}", e.stmt)))?
                .id();
            let graph = e.schedule.intersect_domain(&e.domain)?;
            Ok(EntryWork {
                order,
                stmt,
                n_sched: graph.space().n_out(),
                scanner: Scanner::new(graph.reverse().as_wrapped_set(), values)?,
            })
        })
        .collect()
}

/// Enumerates one task's instances — each entry's scanner pinned to the
/// task prefix — in sequential (lexicographic schedule, then entry order,
/// then instance) order. Runs inside the task, so enumeration
/// parallelizes across workers. The schedule-major walk emits each
/// entry's items already sorted, so a single entry needs no sort at all
/// and several entries are merged by an adaptive stable sort over the
/// per-entry runs — either way far cheaper than the sequential
/// interpreter's global sort.
fn items_for_task(entries: &[EntryWork], prefix: &[i64]) -> Result<Vec<TaskItem>> {
    let mut items: Vec<TaskItem> = Vec::new();
    for (ei, e) in entries.iter().enumerate() {
        e.scanner.for_each_under(prefix, &mut |pt: &[i64]| {
            items.push((ei, pt.to_vec()));
            true
        })?;
    }
    if entries.len() > 1 {
        items.sort_by(|a, b| {
            let (ea, eb) = (&entries[a.0], &entries[b.0]);
            a.1[..ea.n_sched]
                .cmp(&b.1[..eb.n_sched])
                .then(ea.order.cmp(&eb.order))
                .then(a.1[ea.n_sched..].cmp(&b.1[eb.n_sched..]))
        });
    }
    Ok(items)
}

/// Drives the DAG to completion, calling `run_task` once per task with the
/// calling worker's private state (built by `new_worker`, one per worker
/// thread); the task's buffer effects must be in shared memory before the
/// callback returns (successors are released right after). Returns the
/// workers' states for the caller to fold.
///
/// The resource governor is thread-local: a checkpoint inside `run_task`
/// fires on the single-threaded drains (which run on the caller's thread)
/// and is inert on pool workers.
pub(crate) fn run_pool<W: Send>(
    dag: &TileDag,
    n_threads: usize,
    adversarial: bool,
    new_worker: &(dyn Fn() -> W + Sync),
    run_task: &(dyn Fn(&mut W, usize) -> Result<()> + Sync),
) -> Result<Vec<W>> {
    let n = dag.n_tasks();
    if n == 0 {
        return Ok(Vec::new());
    }
    if adversarial || n_threads <= 1 {
        // Deterministic single-threaded drain. Normal mode takes the
        // ready set in ascending (sequential) order; adversarial mode
        // descending, to maximize the observable damage of a missing edge.
        let mut worker = new_worker();
        let mut indeg = dag.n_preds.clone();
        let mut ready: BTreeSet<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        let mut done = 0usize;
        while let Some(&t) = if adversarial {
            ready.iter().next_back()
        } else {
            ready.iter().next()
        } {
            ready.remove(&t);
            run_task(&mut worker, t)?;
            done += 1;
            for &s in &dag.succs[t] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.insert(s);
                }
            }
        }
        if done != n {
            return Err(Error::Exec("tile task graph is cyclic".into()));
        }
        return Ok(vec![worker]);
    }

    let workers = n_threads.min(n);
    let indeg: Vec<AtomicUsize> = dag.n_preds.iter().map(|&p| AtomicUsize::new(p)).collect();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Seed initially-ready tasks round-robin across workers.
    {
        let mut w = 0usize;
        for t in 0..n {
            if dag.n_preds[t] == 0 {
                deques[w % workers]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(t);
                w += 1;
            }
        }
    }
    let remaining = AtomicUsize::new(n);
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<Error>> = Mutex::new(None);
    let states: Vec<W> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let (deques, indeg, remaining, failed, error) =
                    (&deques, &indeg, &remaining, &failed, &error);
                s.spawn(move || {
                    let mut worker = new_worker();
                    loop {
                        if failed.load(Ordering::Acquire) || remaining.load(Ordering::Acquire) == 0
                        {
                            break;
                        }
                        // Own deque first (back: LIFO), then steal (front: FIFO).
                        let mut task = deques[me]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_back();
                        if task.is_none() {
                            for j in 1..workers {
                                task = deques[(me + j) % workers]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_front();
                                if task.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(t) = task else {
                            std::thread::yield_now();
                            continue;
                        };
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_task(&mut worker, t)
                            }));
                        match outcome {
                            Ok(Ok(())) => {
                                for &succ in &dag.succs[t] {
                                    if indeg[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                                        deques[me]
                                            .lock()
                                            .unwrap_or_else(PoisonError::into_inner)
                                            .push_back(succ);
                                    }
                                }
                                remaining.fetch_sub(1, Ordering::AcqRel);
                            }
                            Ok(Err(e)) => {
                                let mut slot = error.lock().unwrap_or_else(PoisonError::into_inner);
                                slot.get_or_insert(e);
                                failed.store(true, Ordering::Release);
                            }
                            // Stop the other workers (they would spin on
                            // `remaining` forever), then let the entry
                            // point's `catch_unwind` type the panic.
                            Err(payload) => {
                                failed.store(true, Ordering::Release);
                                std::panic::resume_unwind(payload);
                            }
                        }
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    if remaining.load(Ordering::Acquire) != 0 {
        return Err(Error::Exec("tile task graph is cyclic".into()));
    }
    Ok(states)
}

fn run_interp(
    program: &Program,
    tree: &ScheduleTree,
    overrides: &[(&str, i64)],
    scratch_scopes: &BTreeMap<ArrayId, usize>,
    n_threads: usize,
    dag: &TileDag,
    adversarial: bool,
) -> Result<(ExecContext, ExecStats)> {
    let values = &program.param_values(overrides);
    let entries = if dag.n_tasks() == 0 {
        // Nothing to run (the optimizer proved every tile empty): skip
        // building per-entry scanners entirely.
        Vec::new()
    } else {
        entry_work(program, tree, values)?
    };
    let mut ctx = ExecContext::initialized(program, overrides);
    // Move every buffer into shared relaxed-atomic storage for the run
    // (`ctx` keeps the shapes for index arithmetic).
    let atoms: BTreeMap<ArrayId, Vec<AtomicU64>> = program
        .arrays()
        .iter()
        .map(|a| {
            let data = std::mem::take(ctx.buffer_mut(a.id()).data_mut());
            (a.id(), into_atoms(data))
        })
        .collect();
    let run = |stats: &mut ExecStats, t: usize| -> Result<()> {
        tilefuse_trace::governor::checkpoint("dag/exec")
            .map_err(|e| Error::Presburger(tilefuse_presburger::Error::from(e)))?;
        let mut mem = SharedMem {
            shapes: &ctx,
            atoms: &atoms,
        };
        let mut scratch = Scratch::new(scratch_scopes.clone());
        let mut exec = |e: &EntryWork, pt: &[i64]| {
            let (sched, inst) = pt.split_at(e.n_sched);
            scratch.enter(sched);
            execute_instance(
                program,
                &mut mem,
                values,
                e.stmt,
                inst,
                Some(&mut scratch),
                stats,
                None,
            )
        };
        if let [e] = &entries[..] {
            // Single flattened entry: the schedule-major walk already
            // visits instances in sequential order, so execute *during*
            // the walk — no item materialization, no per-point
            // allocation, no sort.
            let mut failed = None;
            e.scanner.for_each_under(&dag.tasks[t], &mut |pt: &[i64]| {
                failed = exec(e, pt).err();
                failed.is_none()
            })?;
            failed.map_or(Ok(()), Err)
        } else {
            items_for_task(&entries, &dag.tasks[t])?
                .iter()
                .try_for_each(|(ei, pt)| exec(&entries[*ei], pt))
        }
    };
    let workers = run_pool(dag, n_threads, adversarial, &ExecStats::default, &run)?;
    for (arr, cells) in atoms {
        *ctx.buffer_mut(arr).data_mut() = from_atoms(cells);
    }
    let mut stats = ExecStats::default();
    for w in &workers {
        stats.merge(w);
    }
    Ok((ctx, stats))
}
