//! The `tilefused` daemon: unix-socket accept loop, bounded admission
//! queue, and the supervised worker pool.
//!
//! Admission control is two-layered. The queue itself is bounded — a full
//! queue sheds immediately with a typed `overloaded` response — and on
//! top of that sits a predictive check: an EWMA of recent service times
//! estimates how long the request would wait behind the queue's current
//! occupants, and a request that would already miss its deadline waiting
//! is shed *now* instead of wasting a worker on a dead job. The deadline
//! keeps propagating after admission: a job that expires while queued is
//! shed at dequeue, and one that expires mid-attempt stops at the next
//! governor checkpoint, because each attempt's `CancelToken` carries the
//! deadline. Every path produces exactly one typed response.
//!
//! Workers are supervised, not trusted: a worker whose job ends in panic
//! quarantine recycles itself (spawns a fresh replacement thread and
//! exits), so panic-adjacent state never leaks into the next job.

use crate::error::ServerError;
use crate::protocol::{
    error_response, read_frame, simple_ok, write_frame, OptimizeRequest, Request,
};
use crate::supervisor::{JobVerdict, Supervisor};
use std::collections::VecDeque;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tilefuse_trace::json::Value;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Admission queue bound.
    pub queue_cap: usize,
    /// Quarantine directory (created if missing).
    pub quarantine_dir: PathBuf,
    /// Plan-cache capacity.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry one, in ms.
    pub default_deadline_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("/tmp/tilefused.sock"),
            workers: 2,
            queue_cap: 64,
            quarantine_dir: PathBuf::from("/tmp/tilefused.quarantine"),
            cache_capacity: 128,
            default_deadline_ms: 10_000,
        }
    }
}

/// One admitted job: the request plus its reply channel and deadlines.
struct Job {
    req: Box<OptimizeRequest>,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::Sender<Value>,
}

struct QueueInner {
    deque: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPMC job queue (mutex + condvar; the daemon's concurrency is
/// worker-pool sized, so a lock-free queue would buy nothing).
struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                deque: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn push(&self, job: Job) -> Result<(), ServerError> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.closed {
            return Err(ServerError::Overloaded {
                reason: "daemon is shutting down".into(),
            });
        }
        if inner.deque.len() >= self.cap {
            return Err(ServerError::Overloaded {
                reason: format!("queue full ({} jobs)", inner.deque.len()),
            });
        }
        inner.deque.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(job) = inner.deque.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .deque
            .len()
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .closed = true;
        self.cond.notify_all();
    }
}

/// Shared daemon state.
struct State {
    config: DaemonConfig,
    supervisor: Supervisor,
    queue: JobQueue,
    shutdown: AtomicBool,
    /// EWMA of per-job service time, stored as `f64` bits.
    ewma_ms: AtomicU64,
    /// Jobs currently executing on a worker.
    busy: AtomicUsize,
    /// Live client connections (shutdown waits for these to drain).
    conns: AtomicUsize,
    next_worker: AtomicUsize,
}

impl State {
    fn ewma(&self) -> f64 {
        f64::from_bits(self.ewma_ms.load(Ordering::Relaxed))
    }

    fn observe_service(&self, sample_ms: f64) {
        // Lossy read-modify-write is fine: this is a shedding heuristic,
        // not an invariant.
        let next = 0.8 * self.ewma() + 0.2 * sample_ms;
        self.ewma_ms.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Predicted queue wait for a newly admitted job, in ms.
    fn predicted_wait_ms(&self) -> f64 {
        let depth = self.queue.len() + self.busy.load(Ordering::Relaxed);
        self.ewma() * depth as f64 / self.config.workers.max(1) as f64
    }
}

/// A running daemon handle (in-process embedding; the `tilefused` binary
/// is a thin wrapper over this).
pub struct Daemon {
    state: Arc<State>,
    listener_thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds the socket, spawns the worker pool and accept loop, and
    /// returns immediately. [`Daemon::wait`] blocks until shutdown.
    ///
    /// # Errors
    /// Returns the I/O error when the socket cannot be bound or the
    /// quarantine directory cannot be opened.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        let supervisor = Supervisor::new(&config.quarantine_dir, config.cache_capacity)?;
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let queue = JobQueue::new(config.queue_cap);
        let state = Arc::new(State {
            config,
            supervisor,
            queue,
            shutdown: AtomicBool::new(false),
            ewma_ms: AtomicU64::new(0f64.to_bits()),
            busy: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            next_worker: AtomicUsize::new(0),
        });
        for _ in 0..workers {
            spawn_worker(Arc::clone(&state));
        }
        let accept_state = Arc::clone(&state);
        let listener_thread = std::thread::Builder::new()
            .name("tilefused-accept".into())
            .spawn(move || accept_loop(&accept_state, &listener))?;
        Ok(Daemon {
            state,
            listener_thread: Some(listener_thread),
        })
    }

    /// Blocks until the daemon has shut down (a client sent `shutdown`),
    /// drained its queue, and answered every in-flight job.
    ///
    /// # Errors
    /// Returns the accept loop's I/O error, if it died on one.
    pub fn wait(mut self) -> std::io::Result<()> {
        let result = self
            .listener_thread
            .take()
            .expect("wait called once")
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("accept loop panicked")));
        let _ = std::fs::remove_file(&self.state.config.socket);
        result
    }

    /// Signals shutdown from the embedding process (equivalent to a
    /// client `shutdown` request).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }
}

fn accept_loop(state: &Arc<State>, listener: &UnixListener) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                state.conns.fetch_add(1, Ordering::Relaxed);
                let conn_state = Arc::clone(state);
                std::thread::Builder::new()
                    .name("tilefused-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(&conn_state, stream);
                        conn_state.conns.fetch_sub(1, Ordering::Relaxed);
                    })?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    // Graceful drain: stop admitting, let the workers empty the queue,
    // then give connection threads a moment to flush their replies. A job
    // still running when the drain gives up is not revoked here: its own
    // deadline stops it.
    state.queue.close();
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while (state.queue.len() > 0 || state.busy.load(Ordering::Relaxed) > 0)
        && Instant::now() < drain_deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let conn_deadline = Instant::now() + Duration::from_secs(2);
    while state.conns.load(Ordering::Relaxed) > 0 && Instant::now() < conn_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

fn spawn_worker(state: Arc<State>) {
    let id = state.next_worker.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("tilefused-worker-{id}"))
        .spawn(move || worker_loop(&state))
        .expect("spawn worker");
}

fn worker_loop(state: &Arc<State>) {
    while let Some(job) = state.queue.pop() {
        // Deadline propagation: a job that expired while queued is shed
        // at dequeue — running it would waste a worker on a reply the
        // client has already given up on.
        if Instant::now() >= job.deadline {
            let waited = job.enqueued.elapsed().as_millis();
            state
                .supervisor
                .counters
                .shed
                .fetch_add(1, Ordering::Relaxed);
            let e = ServerError::Overloaded {
                reason: format!("deadline expired after {waited} ms in queue"),
            };
            let _ = job.reply.send(error_response(job.req.id, &e));
            continue;
        }
        state.busy.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let verdict = state.supervisor.run_job(&job.req, job.deadline);
        state.observe_service(t0.elapsed().as_secs_f64() * 1e3);
        state.busy.fetch_sub(1, Ordering::Relaxed);
        match verdict {
            JobVerdict::Respond(v) => {
                let _ = job.reply.send(v);
            }
            JobVerdict::RespondAndRecycle(v) => {
                let _ = job.reply.send(v);
                // Quarantine event: replace this worker with a fresh
                // thread so any panic-adjacent state dies with it.
                spawn_worker(Arc::clone(state));
                return;
            }
        }
    }
}

fn handle_connection(state: &Arc<State>, mut stream: UnixStream) -> Result<(), ServerError> {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(v)) => v,
            Ok(None) => return Ok(()), // clean EOF
            Err(ServerError::Protocol(msg)) => {
                // Protocol errors are answered (id 0: we could not parse
                // one), then the connection is dropped — framing is gone.
                let _ = write_frame(&mut stream, &error_response(0, &ServerError::Protocol(msg)));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        state
            .supervisor
            .counters
            .received
            .fetch_add(1, Ordering::Relaxed);
        let response = match crate::protocol::parse_request(&frame) {
            Err(e) => {
                let id = frame.get("id").and_then(Value::as_num).unwrap_or(0.0) as u64;
                error_response(id, &e)
            }
            Ok(Request::Ping { id }) => simple_ok(id, None),
            Ok(Request::Stats { id }) => {
                let inflight = state.busy.load(Ordering::Relaxed);
                simple_ok(id, Some(("stats", state.supervisor.stats_value(inflight))))
            }
            Ok(Request::Shutdown { id }) => {
                state.shutdown.store(true, Ordering::Release);
                simple_ok(id, None)
            }
            Ok(Request::Optimize(req)) => dispatch_optimize(state, req),
        };
        write_frame(&mut stream, &response)?;
    }
}

/// Admits (or sheds) one optimize request and blocks until its worker
/// replies.
fn dispatch_optimize(state: &Arc<State>, req: Box<OptimizeRequest>) -> Value {
    let id = req.id;
    if state.shutdown.load(Ordering::Acquire) {
        state
            .supervisor
            .counters
            .shed
            .fetch_add(1, Ordering::Relaxed);
        return error_response(
            id,
            &ServerError::Overloaded {
                reason: "daemon is shutting down".into(),
            },
        );
    }
    let now = Instant::now();
    let deadline_ms = req.deadline_ms.unwrap_or(state.config.default_deadline_ms);
    let deadline = now + Duration::from_millis(deadline_ms);
    // Predictive shed: if the EWMA says the job would miss its deadline
    // just waiting in line, reject it now instead of at dequeue.
    let predicted = state.predicted_wait_ms();
    if predicted > deadline_ms as f64 {
        state
            .supervisor
            .counters
            .shed
            .fetch_add(1, Ordering::Relaxed);
        return error_response(
            id,
            &ServerError::Overloaded {
                reason: format!(
                    "predicted queue wait {predicted:.0} ms exceeds the {deadline_ms} ms deadline"
                ),
            },
        );
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        req,
        enqueued: now,
        deadline,
        reply: tx,
    };
    if let Err(e) = state.queue.push(job) {
        state
            .supervisor
            .counters
            .shed
            .fetch_add(1, Ordering::Relaxed);
        return error_response(id, &e);
    }
    // The worker sends exactly one reply per job; a closed channel means
    // the pool died mid-job, which the client should hear about.
    rx.recv().unwrap_or_else(|_| {
        error_response(id, &ServerError::Io("worker pool dropped the job".into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_when_full_or_closed() {
        let q = JobQueue::new(1);
        let (tx, _rx) = mpsc::channel();
        let mk = |tx: &mpsc::Sender<Value>| Job {
            req: Box::new(OptimizeRequest {
                id: 1,
                spec: tilefuse_fuzzgen::ProgramSpec {
                    size: 4,
                    tile: 2,
                    smart_startup: false,
                    parallel_cap: None,
                    param_delta: 0,
                    stages: vec![],
                },
                deadline_ms: None,
                budget: None,
                fault: tilefuse_core::FaultInjection::None,
            }),
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(1),
            reply: tx.clone(),
        };
        q.push(mk(&tx)).unwrap();
        let e = q.push(mk(&tx)).unwrap_err();
        assert!(matches!(e, ServerError::Overloaded { .. }));
        q.close();
        assert!(q.pop().is_some(), "close drains, not drops");
        assert!(q.pop().is_none());
        let e = q.push(mk(&tx)).unwrap_err();
        assert!(e.to_string().contains("shutting down"));
    }

    #[test]
    fn ewma_tracks_service_time() {
        let state = State {
            config: DaemonConfig::default(),
            supervisor: Supervisor::new(
                &std::env::temp_dir().join(format!("tilefuse-ewma-{}", std::process::id())),
                4,
            )
            .unwrap(),
            queue: JobQueue::new(4),
            shutdown: AtomicBool::new(false),
            ewma_ms: AtomicU64::new(0f64.to_bits()),
            busy: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            next_worker: AtomicUsize::new(0),
        };
        for _ in 0..50 {
            state.observe_service(10.0);
        }
        assert!((state.ewma() - 10.0).abs() < 0.5);
    }
}
