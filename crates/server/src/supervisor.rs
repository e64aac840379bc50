//! Job supervision: the per-attempt deadline, the retry-with-degradation
//! policy, and panic quarantine.
//!
//! Every optimize attempt runs with a [`CancelToken`] that carries the
//! job's end-to-end deadline ([`CancelToken::with_deadline`]). The
//! optimizer reads the clock at its own governor checkpoints, so once the
//! deadline passes it stops at the next one, mid-phase, with a
//! `"cancelled"` budget exhaustion; no other thread watches the clock.
//! The supervisor then retries with exponential backoff and a
//! *tighter* grant: both budget limits are halved and `min_rung` forces
//! entry below the rung that already failed (3 = plain live-out tiling,
//! then 4 = the untiled floor), so a retry never re-pays for work the
//! first attempt already proved unaffordable. Panics are different —
//! they are deterministic bugs, not resource pressure — so a panicked
//! job gets exactly one floor retry, and a second panic quarantines the
//! input (artifact on disk, hash in the fast-reject set) and recycles
//! the worker.

use crate::backoff::Backoff;
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
use std::time::{Duration, Instant};
use tilefuse_core::{optimize, Error, FaultInjection, Optimized, Options};
use tilefuse_fuzzgen::{build_program, output_digest, spec_to_json, ProgramSpec, Rng};
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
    /// Retry attempts across all jobs.
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

/// Shared supervision state: plan cache, quarantine, counters, and the
/// retry policy's knobs.
#[derive(Debug)]
pub struct Supervisor {
    /// Structural-hash plan cache.
    pub cache: PlanCache,
    /// Panic quarantine (artifacts + fast-reject set).
    pub quarantine: Quarantine,
    /// Daemon-wide counters.
    pub counters: Counters,
    /// Attempt ceiling per job (first try + retries).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: Backoff,
}

impl Supervisor {
    /// Builds a supervisor over the given quarantine directory.
    ///
    /// # Errors
    /// Returns the I/O error when the quarantine directory is unusable.
    pub fn new(
        quarantine_dir: &Path,
        cache_capacity: usize,
        max_attempts: u32,
        backoff: Backoff,
    ) -> std::io::Result<Self> {
        Ok(Supervisor {
            cache: PlanCache::new(cache_capacity),
            quarantine: Quarantine::open(quarantine_dir)?,
            counters: Counters::default(),
            max_attempts: max_attempts.max(1),
            backoff,
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
    /// cache, then the supervised attempt loop. Always returns exactly
    /// one typed response.
    pub fn run_job(&self, req: &OptimizeRequest, deadline: Instant, rng: &mut Rng) -> JobVerdict {
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

        self.attempt_loop(
            req, &program, base_opts, key, faulted, deadline, started, rng,
        )
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

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn attempt_loop(
        &self,
        req: &OptimizeRequest,
        program: &Program,
        base_opts: Options,
        key: u64,
        faulted: bool,
        deadline: Instant,
        started: Instant,
        rng: &mut Rng,
    ) -> JobVerdict {
        let mut supervision = SupervisionReport::new();
        supervision.cache = if faulted {
            CacheOutcome::Bypass
        } else {
            CacheOutcome::Miss
        };
        let mut min_rung: u8 = base_opts.min_rung.max(1);
        let mut fault = base_opts.fault;
        let mut budget = base_opts.budget.clone();
        let mut attempt: u32 = 0;
        loop {
            let backoff_ms = if attempt == 0 {
                0
            } else {
                self.backoff.delay_ms(attempt - 1, rng)
            };
            if backoff_ms > 0 {
                let remaining = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(Duration::from_millis(backoff_ms).min(remaining));
            }
            if Instant::now() >= deadline {
                supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                return JobVerdict::Respond(failure_response(
                    req.id,
                    &format!("deadline exhausted after {attempt} attempt(s)"),
                    Some(&supervision),
                ));
            }

            let opts = Options {
                budget: budget.clone(),
                fault,
                min_rung,
                cancel: Some(CancelToken::with_deadline(deadline)),
                ..base_opts.clone()
            };
            let t0 = Instant::now();
            let result = optimize(program, &opts);
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

            match result {
                Ok(plan) => {
                    supervision.attempts.push(AttemptRecord {
                        attempt,
                        min_rung,
                        backoff_ms,
                        elapsed_ms,
                        outcome: AttemptOutcome::Ok {
                            rung: plan.report.degradation.rung,
                        },
                    });
                    match execute_plan(program, &plan, &req.spec) {
                        Ok(digest) => {
                            // The key excludes the budget, so only a plan
                            // no budget shaped may be shared: rung 1 without
                            // trips is what an ungoverned run returns.
                            let deg = &plan.report.degradation;
                            if !faulted && deg.rung == 1 && deg.trips.is_empty() {
                                self.cache.insert(key, Arc::new(plan.clone()));
                            }
                            supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                            self.counters.ok.fetch_add(1, Ordering::Relaxed);
                            return JobVerdict::Respond(ok_response(
                                req.id,
                                digest,
                                &plan.report.degradation,
                                &supervision,
                            ));
                        }
                        Err(e) => {
                            supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                            self.counters.errors.fetch_add(1, Ordering::Relaxed);
                            return JobVerdict::Respond(failure_response(
                                req.id,
                                &format!("execution failed: {e}"),
                                Some(&supervision),
                            ));
                        }
                    }
                }
                Err(e) => {
                    let outcome = classify(&e);
                    if matches!(
                        &outcome,
                        AttemptOutcome::Exhausted { limit, .. }
                            if limit == tilefuse_trace::governor::CANCELLED
                    ) {
                        self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    supervision.attempts.push(AttemptRecord {
                        attempt,
                        min_rung,
                        backoff_ms,
                        elapsed_ms,
                        outcome: outcome.clone(),
                    });
                    match outcome {
                        AttemptOutcome::Failed { error } => {
                            // Deterministic optimizer error: retrying at a
                            // lower rung cannot fix the input.
                            supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                            self.counters.errors.fetch_add(1, Ordering::Relaxed);
                            return JobVerdict::Respond(failure_response(
                                req.id,
                                &error,
                                Some(&supervision),
                            ));
                        }
                        AttemptOutcome::Panicked { phase, message } => {
                            // One floor retry (the fault is kept: a panic
                            // is deterministic, and if the floor panics too
                            // the input is quarantined). A panic *at* the
                            // floor skips straight to quarantine.
                            if min_rung < 4 && attempt + 1 < self.max_attempts {
                                min_rung = 4;
                                attempt += 1;
                                supervision.retries += 1;
                                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            return self.quarantine_job(
                                req,
                                key,
                                fault,
                                &phase,
                                &message,
                                supervision,
                                started,
                            );
                        }
                        AttemptOutcome::Exhausted { .. } => {
                            if attempt + 1 >= self.max_attempts {
                                supervision.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                                return JobVerdict::Respond(failure_response(
                                    req.id,
                                    &format!(
                                        "budget exhausted in all {} attempts",
                                        self.max_attempts
                                    ),
                                    Some(&supervision),
                                ));
                            }
                            // Tighter grant, lower entry rung; an injected
                            // stall is transient (the model is a stuck
                            // worker, not a broken input) so it is cleared.
                            min_rung = if min_rung < 3 { 3 } else { 4 };
                            budget = tighten(&budget);
                            if matches!(fault, FaultInjection::WorkerStall { .. }) {
                                fault = FaultInjection::None;
                            }
                            attempt += 1;
                            supervision.retries += 1;
                            self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        }
                        AttemptOutcome::Ok { .. } => unreachable!("classify never returns Ok"),
                    }
                }
            }
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

/// Halves every finite cap in the budget (floor 1): the retry's grant is
/// strictly tighter than the attempt that already blew it.
#[must_use]
pub fn tighten(b: &Budget) -> Budget {
    Budget {
        deadline_ms: b.deadline_ms.map(|n| (n / 2).max(1)),
        max_omega_ops: b.max_omega_ops.map(|n| (n / 2).max(1)),
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
        let backoff = Backoff {
            base_ms: 1,
            cap_ms: 4,
            jitter_frac: 0.0,
        };
        let sup = Supervisor::new(&dir, 16, 3, backoff).unwrap();
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
        let mut rng = Rng::new(7);
        let deadline = Instant::now() + Duration::from_secs(30);
        let r = req(spec(8), FaultInjection::None);
        let v1 = sup.run_job(&r, deadline, &mut rng);
        assert_eq!(v1.response().get("status").unwrap().as_str(), Some("ok"));
        let s1 = SupervisionReport::from_value(v1.response().get("supervision").unwrap()).unwrap();
        assert_eq!(s1.cache, CacheOutcome::Miss);
        // Same pipeline, different size: structural key collides, cache hit.
        let r2 = req(spec(24), FaultInjection::None);
        let v2 = sup.run_job(&r2, deadline, &mut rng);
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
        let mut rng = Rng::new(7);
        let deadline = Instant::now() + Duration::from_secs(30);
        let r = req(spec(8), FaultInjection::WorkerPanic);
        let v = sup.run_job(&r, deadline, &mut rng);
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
        let v2 = sup.run_job(&r2, deadline, &mut rng);
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

    #[test]
    fn deadline_revokes_a_stalled_job_and_the_retry_lands_on_a_lower_rung() {
        let (sup, dir) = temp_supervisor("stall");
        let mut rng = Rng::new(7);
        // Deadline far shorter than the injected stall: the attempt's
        // token must revoke it mid-stall; the retry (stall cleared,
        // forced rung) then completes within the remaining time.
        let deadline = Instant::now() + Duration::from_millis(300);
        let r = req(spec(8), FaultInjection::WorkerStall { ms: 10_000 });
        let v = sup.run_job(&r, deadline, &mut rng);
        let resp = v.response();
        let s = SupervisionReport::from_value(resp.get("supervision").unwrap()).unwrap();
        assert!(
            matches!(
                &s.attempts[0].outcome,
                AttemptOutcome::Exhausted { limit, .. } if limit == "cancelled"
            ),
            "first attempt must be revoked at the deadline: {:?}",
            s.attempts
        );
        assert!(s.attempts[0].elapsed_ms < 5_000.0, "revoked mid-stall");
        if resp.get("status").unwrap().as_str() == Some("ok") {
            assert!(s.attempts.last().unwrap().min_rung >= 3);
            assert!(s.retries >= 1);
        }
        assert!(sup.counters.cancelled.load(Ordering::Relaxed) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tighten_halves_only_finite_caps() {
        let b = Budget {
            deadline_ms: None,
            max_omega_ops: Some(1),
        };
        let t = tighten(&b);
        assert_eq!(t.deadline_ms, None);
        assert_eq!(t.max_omega_ops, Some(1), "floor of 1");
        let t = tighten(&Budget {
            deadline_ms: Some(100),
            max_omega_ops: None,
        });
        assert_eq!((t.deadline_ms, t.max_omega_ops), (Some(50), None));
    }
}
