//! Job supervision: the per-attempt deadline, the panic floor retry, and
//! panic quarantine.
//!
//! Each job runs one optimize attempt with a [`CancelToken`] that carries
//! the job's end-to-end deadline ([`CancelToken::with_deadline`]). The
//! optimizer reads the clock at its own governor checkpoints, so once the
//! deadline passes it stops at the next one, mid-phase, with a
//! `"cancelled"` budget exhaustion; no other thread watches the clock.
//! Every other budget trip is absorbed inside `optimize` by its
//! degradation ladder (DESIGN §10), so a `"cancelled"` attempt is
//! answered with a typed `error` and never retried: its deadline has
//! already passed. Panics are different — they are deterministic bugs,
//! not resource pressure — so a panicked job gets exactly one retry that
//! enters the ladder at its untiled floor, and a second panic quarantines
//! the input (artifact on disk, hash in the fast-reject set) and recycles
//! the worker.

use crate::cache::PlanCache;
use crate::error::ServerError;
use crate::hash::plan_key;
use crate::protocol::{
    error_response, failure_response, ok_response, quarantined_response, AttemptOutcome,
    AttemptRecord, CacheOutcome, OptimizeRequest, SupervisionReport,
};
use crate::quarantine::Quarantine;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tilefuse_core::{optimize, Error, FaultInjection, Optimized, Options};
use tilefuse_fuzzgen::{build_program, output_digest, spec_to_json, ProgramSpec};
use tilefuse_pir::Program;
use tilefuse_trace::json::Value;
use tilefuse_trace::{Budget, CancelToken};

/// Daemon-wide counters, all relaxed atomics (monotonic, approximate
/// cross-counter consistency is fine for a stats endpoint).
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests received (all ops).
    pub received: AtomicU64,
    /// Optimize jobs answered `ok`.
    pub ok: AtomicU64,
    /// Optimize jobs answered `error`.
    pub errors: AtomicU64,
    /// Requests shed by admission control (`overloaded`).
    pub shed: AtomicU64,
    /// Floor retries after a panicked attempt, across all jobs.
    pub retries: AtomicU64,
    /// Jobs that ended in quarantine (fresh artifacts).
    pub quarantined: AtomicU64,
    /// Requests fast-rejected against an existing quarantine entry.
    pub quarantine_rejects: AtomicU64,
    /// Attempts stopped at their job deadline (`"cancelled"` trips).
    pub cancelled: AtomicU64,
    /// Workers recycled after a quarantine event.
    pub worker_recycles: AtomicU64,
}

/// What the daemon should do with the worker after a job.
#[derive(Debug)]
pub enum JobVerdict {
    /// Write the response; the worker is healthy.
    Respond(Value),
    /// Write the response, then recycle the worker (it hosted a panic).
    RespondAndRecycle(Value),
}

impl JobVerdict {
    /// The response value, whichever the verdict.
    #[must_use]
    pub fn response(&self) -> &Value {
        match self {
            JobVerdict::Respond(v) | JobVerdict::RespondAndRecycle(v) => v,
        }
    }
}

/// Shared supervision state: plan cache, quarantine and counters.
#[derive(Debug)]
pub struct Supervisor {
    /// Structural-hash plan cache.
    pub cache: PlanCache,
    /// Panic quarantine (artifacts + fast-reject set).
    pub quarantine: Quarantine,
    /// Daemon-wide counters.
    pub counters: Counters,
}

impl Supervisor {
    /// Builds a supervisor over the given quarantine directory.
    ///
    /// # Errors
    /// Returns the I/O error when the quarantine directory is unusable.
    pub fn new(quarantine_dir: &Path, cache_capacity: usize) -> std::io::Result<Self> {
        Ok(Supervisor {
            cache: PlanCache::new(cache_capacity),
            quarantine: Quarantine::open(quarantine_dir)?,
            counters: Counters::default(),
        })
    }

    /// The `stats` endpoint payload. `inflight` is the number of jobs
    /// currently on a worker, which only the daemon knows.
    #[must_use]
    pub fn stats_value(&self, inflight: usize) -> Value {
        let (hits, misses, entries) = self.cache.stats();
        let c = &self.counters;
        let mut o = std::collections::BTreeMap::new();
        let mut put = |k: &str, n: u64| {
            o.insert(k.to_string(), Value::Num(n as f64));
        };
        put("received", c.received.load(Ordering::Relaxed));
        put("ok", c.ok.load(Ordering::Relaxed));
        put("errors", c.errors.load(Ordering::Relaxed));
        put("shed", c.shed.load(Ordering::Relaxed));
        put("retries", c.retries.load(Ordering::Relaxed));
        put("quarantined", c.quarantined.load(Ordering::Relaxed));
        put(
            "quarantine_rejects",
            c.quarantine_rejects.load(Ordering::Relaxed),
        );
        put("cancelled", c.cancelled.load(Ordering::Relaxed));
        put("worker_recycles", c.worker_recycles.load(Ordering::Relaxed));
        put("cache_hits", hits);
        put("cache_misses", misses);
        put("cache_entries", entries as u64);
        put("quarantine_len", self.quarantine.len() as u64);
        put("inflight", inflight as u64);
        Value::Obj(o)
    }

    /// Runs one optimize job end to end: quarantine fast-reject, plan
    /// cache, then the supervised attempt. Always returns exactly one
    /// typed response.
    pub fn run_job(&self, req: &OptimizeRequest, deadline: Instant) -> JobVerdict {
        let started = Instant::now();
        let program = match build_program(&req.spec) {
            Ok(p) => p,
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                return JobVerdict::Respond(error_response(
                    req.id,
                    &ServerError::Protocol(format!("unbuildable spec: {e}")),
                ));
            }
        };
        let base_opts = options_for(&req.spec, req.budget.clone(), req.fault);
        let key = plan_key(&program, &base_opts);

        if self.quarantine.contains(key) {
            self.counters
                .quarantine_rejects
                .fetch_add(1, Ordering::Relaxed);
            return JobVerdict::Respond(error_response(
                req.id,
                &ServerError::Quarantined { hash: key },
            ));
        }

        // Fault-injected requests bypass the cache entirely: they exist to
        // exercise the failure paths, and a hit would skip the very code
        // under test (and a faulted run must never poison the cache).
        let faulted = req.fault != FaultInjection::None;
        if !faulted {
            if let Some(plan) = self.cache.get(key) {
                return self.finish_cached(req, &program, &plan, started);
            }
        }

        self.attempt_loop(req, &program, base_opts, key, faulted, deadline, started)
    }

    fn finish_cached(
        &self,
        req: &OptimizeRequest,
        program: &Program,
        plan: &Optimized,
        started: Instant,
    ) -> JobVerdict {
        let mut supervision = SupervisionReport::new();
        supervision.cache = CacheOutcome::Hit;
        match execute_plan(program, plan, &req.spec) {
            Ok(digest) => {
                supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                JobVerdict::Respond(ok_response(
                    req.id,
                    digest,
                    &plan.report.degradation,
                    &supervision,
                ))
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                JobVerdict::Respond(failure_response(
                    req.id,
                    &format!("cached plan failed to execute: {e}"),
                    Some(&supervision),
                ))
            }
        }
    }

    /// One optimize attempt under the job deadline, plus one retry at the
    /// ladder's floor if it panicked. Budget trips other than a passed
    /// deadline never reach here: `optimize` absorbs them on its ladder.
    #[allow(clippy::too_many_arguments)]
    fn attempt_loop(
        &self,
        req: &OptimizeRequest,
        program: &Program,
        base_opts: Options,
        key: u64,
        faulted: bool,
        deadline: Instant,
        started: Instant,
    ) -> JobVerdict {
        let mut supervision = SupervisionReport::new();
        supervision.cache = if faulted {
            CacheOutcome::Bypass
        } else {
            CacheOutcome::Miss
        };
        let mut opts = Options {
            cancel: Some(CancelToken::with_deadline(deadline)),
            ..base_opts
        };
        let fail = |mut supervision: SupervisionReport, message: &str| {
            supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            JobVerdict::Respond(failure_response(req.id, message, Some(&supervision)))
        };
        loop {
            let t0 = Instant::now();
            let result = optimize(program, &opts);
            let outcome = match &result {
                Ok(plan) => AttemptOutcome::Ok {
                    rung: plan.report.degradation.rung,
                },
                Err(e) => classify(e),
            };
            supervision.attempts.push(AttemptRecord {
                attempt: supervision.attempts.len() as u32,
                min_rung: if opts.floor_only { 4 } else { 1 },
                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                outcome: outcome.clone(),
            });
            let plan = match (result, outcome) {
                (Ok(plan), _) => plan,
                (Err(_), AttemptOutcome::Panicked { .. }) if !opts.floor_only => {
                    // One floor retry (the fault is kept: a panic is
                    // deterministic, and if the floor panics too the input
                    // is quarantined).
                    opts.floor_only = true;
                    supervision.retries += 1;
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                (Err(_), AttemptOutcome::Panicked { phase, message }) => {
                    return self.quarantine_job(
                        req,
                        key,
                        opts.fault,
                        &phase,
                        &message,
                        supervision,
                        started,
                    );
                }
                (Err(_), AttemptOutcome::Exhausted { limit, phase }) => {
                    if limit == tilefuse_trace::governor::CANCELLED {
                        self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    return fail(
                        supervision,
                        &format!("budget exhausted: {limit} in phase {phase}"),
                    );
                }
                // Deterministic optimizer error: no rung can fix the input.
                (Err(e), _) => return fail(supervision, &e.to_string()),
            };
            return match execute_plan(program, &plan, &req.spec) {
                Ok(digest) => {
                    // The key excludes the budget, so only a plan no budget
                    // shaped may be shared: rung 1 without trips is what an
                    // ungoverned run returns.
                    let deg = &plan.report.degradation;
                    if !faulted && deg.rung == 1 && deg.trips.is_empty() {
                        self.cache.insert(key, Arc::new(plan.clone()));
                    }
                    supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                    self.counters.ok.fetch_add(1, Ordering::Relaxed);
                    JobVerdict::Respond(ok_response(
                        req.id,
                        digest,
                        &plan.report.degradation,
                        &supervision,
                    ))
                }
                Err(e) => fail(supervision, &format!("execution failed: {e}")),
            };
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn quarantine_job(
        &self,
        req: &OptimizeRequest,
        key: u64,
        fault: FaultInjection,
        phase: &str,
        message: &str,
        mut supervision: SupervisionReport,
        started: Instant,
    ) -> JobVerdict {
        supervision.quarantined = true;
        supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        self.counters
            .worker_recycles
            .fetch_add(1, Ordering::Relaxed);
        let spec_json = spec_to_json(&req.spec);
        // Record failure is non-fatal: the in-memory reject set is already
        // updated, so the daemon keeps protecting itself.
        let _ = self
            .quarantine
            .record(key, &spec_json, fault, phase, message, &supervision);
        let detail = ServerError::Quarantined { hash: key }.to_string();
        JobVerdict::RespondAndRecycle(quarantined_response(req.id, key, &detail, &supervision))
    }
}

/// Maps a spec (plus per-request budget/fault) to optimizer options, the
/// same mapping the fuzz oracle uses.
#[must_use]
pub fn options_for(spec: &ProgramSpec, budget: Option<Budget>, fault: FaultInjection) -> Options {
    Options {
        tile_sizes: vec![spec.tile, spec.tile],
        parallel_cap: spec.parallel_cap,
        startup: if spec.smart_startup {
            tilefuse_scheduler::FusionHeuristic::SmartFuse
        } else {
            tilefuse_scheduler::FusionHeuristic::MinFuse
        },
        budget: budget.unwrap_or_default(),
        fault,
        ..Options::default()
    }
}

/// Executes a plan at the spec's default problem size and digests the
/// live-out buffers. Panics inside execution are caught and reported as
/// errors (the worker must survive any single job).
fn execute_plan(program: &Program, plan: &Optimized, spec: &ProgramSpec) -> Result<u64, String> {
    let size = spec.size + spec.param_delta;
    let overrides = [("H", size), ("W", size)];
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        tilefuse_codegen::execute_tree(program, &plan.tree, &overrides, &plan.report.scratch_scopes)
            .map(|(ctx, _)| output_digest(program, &ctx))
            .map_err(|e| e.to_string())
    }));
    match run {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panic in execute: {}",
            tilefuse_trace::governor::panic_message(&*payload)
        )),
    }
}

fn classify(e: &Error) -> AttemptOutcome {
    if let Some(trip) = e.budget() {
        return AttemptOutcome::Exhausted {
            limit: trip.limit.to_string(),
            phase: trip.phase.to_string(),
        };
    }
    if let Error::Panicked { phase, message } = e {
        return AttemptOutcome::Panicked {
            phase: (*phase).to_string(),
            message: message.clone(),
        };
    }
    AttemptOutcome::Failed {
        error: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tilefuse_fuzzgen::{StageKind, StageSpec};

    fn spec(fault_free_size: i64) -> ProgramSpec {
        ProgramSpec {
            size: fault_free_size,
            tile: 4,
            smart_startup: false,
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
                    liveout: true,
                },
            ],
        }
    }

    fn temp_supervisor(tag: &str) -> (Supervisor, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("tilefuse-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sup = Supervisor::new(&dir, 16).unwrap();
        (sup, dir)
    }

    fn req(spec: ProgramSpec, fault: FaultInjection) -> OptimizeRequest {
        OptimizeRequest {
            id: 1,
            spec,
            deadline_ms: None,
            budget: None,
            fault,
        }
    }

    #[test]
    fn clean_job_misses_then_hits_the_cache() {
        let (sup, dir) = temp_supervisor("clean");
        let deadline = Instant::now() + Duration::from_secs(30);
        let r = req(spec(8), FaultInjection::None);
        let v1 = sup.run_job(&r, deadline);
        assert_eq!(v1.response().get("status").unwrap().as_str(), Some("ok"));
        let s1 = SupervisionReport::from_value(v1.response().get("supervision").unwrap()).unwrap();
        assert_eq!(s1.cache, CacheOutcome::Miss);
        // Same pipeline, different size: structural key collides, cache hit.
        let r2 = req(spec(24), FaultInjection::None);
        let v2 = sup.run_job(&r2, deadline);
        assert_eq!(v2.response().get("status").unwrap().as_str(), Some("ok"));
        let s2 = SupervisionReport::from_value(v2.response().get("supervision").unwrap()).unwrap();
        assert_eq!(s2.cache, CacheOutcome::Hit);
        assert!(s2.attempts.is_empty());
        // Both runs produced real digests.
        assert_ne!(v1.response().get("digest").unwrap().as_str(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_fault_is_retried_once_at_the_floor_then_quarantined_and_rejected() {
        let (sup, dir) = temp_supervisor("panic");
        let deadline = Instant::now() + Duration::from_secs(30);
        let r = req(spec(8), FaultInjection::WorkerPanic);
        let v = sup.run_job(&r, deadline);
        assert!(matches!(v, JobVerdict::RespondAndRecycle(_)));
        let resp = v.response();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("quarantined"));
        let s = SupervisionReport::from_value(resp.get("supervision").unwrap()).unwrap();
        assert!(s.quarantined);
        assert_eq!(s.attempts.len(), 2, "first try + one floor retry");
        assert_eq!(s.attempts[1].min_rung, 4);
        assert!(matches!(
            s.attempts[0].outcome,
            AttemptOutcome::Panicked { .. }
        ));
        assert_eq!(sup.quarantine.len(), 1);
        // The identical request (even fault-free — same structural hash)
        // is now rejected without running.
        let r2 = req(spec(8), FaultInjection::None);
        let v2 = sup.run_job(&r2, deadline);
        assert_eq!(
            v2.response().get("status").unwrap().as_str(),
            Some("quarantined")
        );
        assert!(
            matches!(v2, JobVerdict::Respond(_)),
            "fast reject, no crash"
        );
        assert_eq!(sup.counters.quarantine_rejects.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn supervision_of(v: &JobVerdict) -> SupervisionReport {
        SupervisionReport::from_value(v.response().get("supervision").unwrap()).unwrap()
    }

    #[test]
    fn a_stall_past_the_job_deadline_is_one_cancelled_attempt() {
        let (sup, dir) = temp_supervisor("stall-cancel");
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(300);
        let r = req(spec(8), FaultInjection::WorkerStall { ms: 10_000 });
        let v = sup.run_job(&r, deadline);
        assert!(t0.elapsed() < Duration::from_secs(5), "held by the stall");
        assert_eq!(v.response().get("status").unwrap().as_str(), Some("error"));
        let s = supervision_of(&v);
        assert_eq!(s.attempts.len(), 1, "a passed deadline is never retried");
        assert_eq!(s.retries, 0);
        assert!(
            matches!(
                &s.attempts[0].outcome,
                AttemptOutcome::Exhausted { limit, phase }
                    if limit == "cancelled" && phase == "fault/stall"
            ),
            "{:?}",
            s.attempts
        );
        assert_eq!(sup.counters.cancelled.load(Ordering::Relaxed), 1);
        assert_eq!(sup.counters.retries.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stall_past_the_budget_deadline_falls_a_rung_in_one_attempt() {
        let (sup, dir) = temp_supervisor("stall-budget");
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut r = req(spec(8), FaultInjection::WorkerStall { ms: 200 });
        r.budget = Some(Budget {
            deadline_ms: Some(5),
            max_omega_ops: None,
        });
        let v = sup.run_job(&r, deadline);
        let resp = v.response();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{resp:?}");
        let s = supervision_of(&v);
        assert_eq!((s.attempts.len(), s.retries), (1, 0), "{s:?}");
        let rung = resp.get("rung").unwrap().as_num().unwrap();
        assert!(
            rung >= 3.0,
            "the stall's trip must drop fusion: rung {rung}"
        );
        let deg = crate::protocol::DegradationSummary::from_value(resp.get("degradation").unwrap())
            .unwrap();
        let stall_trips = deg.trips.iter().filter(|t| t.0 == "fault/stall").count();
        assert_eq!(stall_trips, 1, "{:?}", deg.trips);

        let program = build_program(&r.spec).unwrap();
        let size = r.spec.size + r.spec.param_delta;
        let (reference, _) =
            tilefuse_codegen::reference_execute(&program, &[("H", size), ("W", size)]).unwrap();
        let expected = format!("{:016x}", output_digest(&program, &reference));
        assert_eq!(resp.get("digest").unwrap().as_str(), Some(&*expected));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
