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
//! Static inside a task, dynamic between tasks. The tree is lowered once
//! ([`crate::lower_tree`]), and a task is the compiled loop nest run under
//! the task's pinned schedule prefix (`Machine::run_under`): exactly the
//! sequential instruction stream restricted to the tile, at the sequential
//! VM's per-instance cost.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::error::{Error, Result};
use crate::interp::{default_threads, ExecContext, ExecStats};
use crate::vm::{execute_compiled_dag, ExecBackend};
use tilefuse_pir::{ArrayId, Program};
use tilefuse_schedtree::ScheduleTree;
use tilefuse_scheduler::{build_tile_dag, TileDag};

/// Builds the tile DAG for `tree` and executes it on the bytecode VM with
/// a work-stealing pool (see module docs). Buffers **and**
/// [`ExecStats`] are bit-identical to [`crate::execute_tree`] for any
/// thread count.
///
/// `n_threads == 0` means [`default_threads`]; `1` executes the tasks
/// sequentially in lexicographic order (still through the DAG machinery).
/// `backend` has one value, [`ExecBackend::Vm`].
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
    let ExecBackend::Vm = backend;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _span = tilefuse_trace::span!("dag/execute", "{}", program.name());
        program.validate_params()?;
        let n_threads = if n_threads == 0 {
            default_threads()
        } else {
            n_threads
        };
        let compiled = crate::lower::lower_tree(program, tree, overrides, scratch_scopes)?;
        execute_compiled_dag(program, &compiled, dag, n_threads, adversarial)
    }))
    .unwrap_or_else(|payload| {
        Err(Error::Exec(format!(
            "panic during DAG execution (phase {}): {}",
            tilefuse_trace::governor::last_phase(),
            tilefuse_trace::governor::panic_message(payload.as_ref()),
        )))
    })
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
