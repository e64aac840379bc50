//! Chaos soak for the `tilefused` daemon.
//!
//! `tilefuse-fuzz --serve` spawns a real `tilefused` process (found next
//! to the current executable), fires thousands of random pipelines at it
//! over concurrent connections with probabilistic fault injection —
//! worker panics, multi-second stalls, starvation deadlines, hostile
//! budgets — and asserts the service contract:
//!
//! * the daemon never crashes (it must survive to answer a clean
//!   `shutdown` and exit 0);
//! * every request receives exactly one typed response (`ok` / `error` /
//!   `overloaded` / `quarantined`) with the request id echoed;
//! * every supervised response accounts for the attempts it ran: one
//!   plus its retries (none on a plan-cache hit);
//! * every `ok` digest is bit-exact against a locally computed reference
//!   execution of the same spec — whatever ladder rung or retry produced
//!   the plan;
//! * every quarantine artifact written during the soak reproduces its
//!   panic deterministically offline, in the recorded phase;
//! * the daemon retries no more jobs than were injected with a panic:
//!   its only retry is the floor retry after a panicked attempt.
//!
//! This module is the *client* half: it speaks the wire protocol
//! directly (length-prefixed JSON over a unix socket) rather than
//! depending on the server crate, which depends on this one.

use crate::{build_program, output_digest, random_budget, random_spec, spec_from_value, Rng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tilefuse_trace::json::{self, Value};
use tilefuse_trace::Budget;

/// Soak configuration.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Base seed; connection `c` derives its jobs from `seed + c`.
    pub seed: u64,
    /// Total jobs across all connections.
    pub jobs: u64,
    /// Concurrent client connections.
    pub conns: usize,
    /// Probabilistic fault injection (panics, stalls, tight deadlines,
    /// hostile budgets). Off = clean-traffic latency baseline.
    pub faults: bool,
    /// Stop issuing new jobs after this long (shutdown still runs).
    pub time_budget: Option<Duration>,
    /// Path to the `tilefused` binary; default is a sibling of the
    /// current executable.
    pub daemon_bin: Option<PathBuf>,
    /// Scratch directory for the socket and quarantine (kept on exit so
    /// CI can upload artifacts); default is under the temp dir.
    pub dir: Option<PathBuf>,
    /// Daemon worker-pool size.
    pub workers: usize,
    /// Daemon admission-queue bound.
    pub queue_cap: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            jobs: 2000,
            conns: 4,
            faults: true,
            time_budget: None,
            daemon_bin: None,
            dir: None,
            workers: 3,
            queue_cap: 32,
        }
    }
}

/// What the soak measured and proved.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Jobs actually sent (≤ configured under a time budget).
    pub jobs_sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `error` responses.
    pub errors: u64,
    /// `overloaded` responses (admission shed).
    pub overloaded: u64,
    /// `quarantined` responses (fresh quarantines + fast rejects).
    pub quarantined: u64,
    /// `ok` digests verified bit-exact against a local reference run.
    pub digests_checked: u64,
    /// Jobs sent with an injected panic fault.
    pub panics_injected: u64,
    /// Jobs sent with an injected stall fault.
    pub stalls_injected: u64,
    /// Median request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_ms: f64,
    /// Quarantine artifacts on disk after the soak.
    pub quarantine_artifacts: u64,
    /// Of those, how many reproduced their panic offline (must be all).
    pub quarantine_reproduced: u64,
    /// Daemon-side counters scraped from the final `stats` response.
    pub daemon_retries: u64,
    /// Daemon-side shed counter.
    pub daemon_shed: u64,
    /// Daemon-side counter of attempts stopped at their job deadline.
    pub daemon_cancelled: u64,
    /// Daemon-side worker-recycle counter.
    pub daemon_worker_recycles: u64,
    /// Daemon-side plan-cache hits.
    pub daemon_cache_hits: u64,
    /// Daemon-side plan-cache misses.
    pub daemon_cache_misses: u64,
    /// Whether the daemon exited 0 after `shutdown`.
    pub daemon_exit_ok: bool,
    /// Wall-clock of the whole soak, seconds.
    pub elapsed_s: f64,
}

impl SoakReport {
    /// JSON for the `"server"` section of `BENCH_experiments.json`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        let mut put = |k: &str, n: f64| {
            o.insert(k.to_string(), Value::Num(n));
        };
        put("jobs_sent", self.jobs_sent as f64);
        put("ok", self.ok as f64);
        put("errors", self.errors as f64);
        put("overloaded", self.overloaded as f64);
        put("quarantined", self.quarantined as f64);
        put("digests_checked", self.digests_checked as f64);
        put("panics_injected", self.panics_injected as f64);
        put("stalls_injected", self.stalls_injected as f64);
        put("p50_ms", self.p50_ms);
        put("p99_ms", self.p99_ms);
        put("quarantine_artifacts", self.quarantine_artifacts as f64);
        put("quarantine_reproduced", self.quarantine_reproduced as f64);
        put("retries", self.daemon_retries as f64);
        put("shed", self.daemon_shed as f64);
        put("cancelled", self.daemon_cancelled as f64);
        put("worker_recycles", self.daemon_worker_recycles as f64);
        put("cache_hits", self.daemon_cache_hits as f64);
        put("cache_misses", self.daemon_cache_misses as f64);
        put("elapsed_s", self.elapsed_s);
        o.insert(
            "daemon_exit_ok".to_string(),
            Value::Bool(self.daemon_exit_ok),
        );
        Value::Obj(o)
    }
}

// ---- wire client ---------------------------------------------------------

fn client_write(s: &mut UnixStream, v: &Value) -> Result<(), String> {
    let body = v.render();
    let len = u32::try_from(body.len()).map_err(|_| "frame too large".to_string())?;
    s.write_all(&len.to_be_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .and_then(|()| s.flush())
        .map_err(|e| format!("write: {e}"))
}

fn client_read(s: &mut UnixStream) -> Result<Value, String> {
    let mut len_buf = [0u8; 4];
    s.read_exact(&mut len_buf)
        .map_err(|e| format!("read len: {e}"))?;
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "response not UTF-8".to_string())?;
    json::parse(&text).map_err(|e| format!("response not JSON: {e}"))
}

fn connect(socket: &Path, timeout: Duration) -> Result<UnixStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("cannot connect to {}: {e}", socket.display()));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn budget_to_value(b: &Budget) -> Value {
    let mut o = BTreeMap::new();
    let mut put = |k: &str, n: Option<u64>| {
        if let Some(n) = n {
            o.insert(k.to_string(), Value::Num(n as f64));
        }
    };
    put("deadline_ms", b.deadline_ms);
    put("max_omega_ops", b.max_omega_ops);
    Value::Obj(o)
}

// ---- per-connection driver -----------------------------------------------

#[derive(Debug, Default)]
struct ConnStats {
    sent: u64,
    ok: u64,
    errors: u64,
    overloaded: u64,
    quarantined: u64,
    digests_checked: u64,
    panics_injected: u64,
    stalls_injected: u64,
    latencies_ms: Vec<f64>,
}

#[allow(clippy::too_many_lines)]
fn drive_connection(
    socket: &Path,
    seed: u64,
    jobs: u64,
    faults: bool,
    stop_at: Option<Instant>,
) -> Result<ConnStats, String> {
    let mut rng = Rng::new(seed);
    let mut stream = connect(socket, Duration::from_secs(15))?;
    let mut stats = ConnStats::default();
    for i in 0..jobs {
        if stop_at.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        let spec = random_spec(&mut rng);
        // Fault mix: 1/8 panic, 1/8 stall, 1/8 starvation deadline, 1/4
        // hostile budget — independent rolls, so combinations occur too.
        let panic_fault = faults && rng.chance(1, 8);
        let stall_fault = !panic_fault && faults && rng.chance(1, 8);
        let tight_deadline = faults && rng.chance(1, 8);
        let hostile_budget = faults && rng.chance(1, 4);

        let mut req = BTreeMap::new();
        req.insert("op".to_string(), Value::Str("optimize".into()));
        req.insert("id".to_string(), Value::Num(i as f64));
        let spec_v = json::parse(&crate::spec_to_json(&spec)).expect("spec json is valid");
        req.insert("spec".to_string(), spec_v);
        if panic_fault {
            stats.panics_injected += 1;
            let mut f = BTreeMap::new();
            f.insert("kind".to_string(), Value::Str("panic".into()));
            req.insert("fault".to_string(), Value::Obj(f));
        } else if stall_fault {
            stats.stalls_injected += 1;
            let mut f = BTreeMap::new();
            f.insert("kind".to_string(), Value::Str("stall".into()));
            f.insert("ms".to_string(), Value::Num(rng.range(20, 81) as f64));
            req.insert("fault".to_string(), Value::Obj(f));
        }
        if tight_deadline {
            req.insert(
                "deadline_ms".to_string(),
                Value::Num(rng.range(1, 30) as f64),
            );
        }
        if hostile_budget {
            req.insert(
                "budget".to_string(),
                budget_to_value(&random_budget(&mut rng)),
            );
        }

        let t0 = Instant::now();
        client_write(&mut stream, &Value::Obj(req))?;
        let resp = client_read(&mut stream)?;
        stats.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        stats.sent += 1;

        // Contract: id echoed, status typed.
        if resp.get("id").and_then(Value::as_num) != Some(i as f64) {
            return Err(format!("job {i}: response id mismatch: {resp:?}"));
        }
        let status = resp
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("job {i}: untyped response: {resp:?}"))?;
        if let Some(sup) = resp.get("supervision") {
            let attempts = sup
                .get("attempts")
                .and_then(Value::as_arr)
                .map_or(0, <[Value]>::len);
            let retries = sup.get("retries").and_then(Value::as_num).unwrap_or(0.0) as usize;
            let hit = sup.get("cache").and_then(Value::as_str) == Some("hit");
            let counted = if hit {
                attempts == 0 && retries == 0
            } else {
                attempts == retries + 1
            };
            if !counted {
                return Err(format!(
                    "job {i}: {retries} retries but {attempts} attempts (cache hit: {hit})"
                ));
            }
        }
        match status {
            "ok" => {
                stats.ok += 1;
                // Bit-exactness: the digest the daemon computed (at
                // whatever rung and retry count) must equal a local
                // reference execution of the same spec.
                let digest = resp
                    .get("digest")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("job {i}: ok without digest"))?;
                let program =
                    build_program(&spec).map_err(|e| format!("job {i}: unbuildable spec: {e}"))?;
                let size = spec.size + spec.param_delta;
                let overrides = [("H", size), ("W", size)];
                let (reference, _) = tilefuse_codegen::reference_execute(&program, &overrides)
                    .map_err(|e| format!("job {i}: reference failed: {e}"))?;
                let expected = format!("{:016x}", output_digest(&program, &reference));
                if digest != expected {
                    return Err(format!(
                        "job {i}: digest mismatch: daemon {digest}, reference {expected} \
                         (rung {:?})",
                        resp.get("rung").and_then(Value::as_num)
                    ));
                }
                stats.digests_checked += 1;
            }
            "error" => stats.errors += 1,
            "overloaded" => stats.overloaded += 1,
            "quarantined" => stats.quarantined += 1,
            other => return Err(format!("job {i}: unknown status '{other}'")),
        }
        // A panic-faulted job must never be reported as a clean success.
        if panic_fault && status == "ok" {
            return Err(format!("job {i}: injected panic answered 'ok'"));
        }
    }
    Ok(stats)
}

// ---- quarantine replay ---------------------------------------------------

/// Replays every quarantine artifact in `dir` offline: rebuilds the
/// program, re-runs `optimize` with the recorded fault, and checks the
/// panic reproduces in the recorded phase. Returns
/// `(artifacts, reproduced)`.
///
/// # Errors
/// Returns a message for unreadable or malformed artifacts.
pub fn replay_quarantine(dir: &Path) -> Result<(u64, u64), String> {
    let mut artifacts = 0u64;
    let mut reproduced = 0u64;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok((0, 0)), // no quarantine dir = nothing recorded
    };
    // Replay *expects* panics (they are caught at the optimize boundary);
    // silence the default hook's backtrace spam for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = replay_entries(entries, &mut artifacts, &mut reproduced);
    std::panic::set_hook(prev_hook);
    result?;
    Ok((artifacts, reproduced))
}

fn replay_entries(
    entries: std::fs::ReadDir,
    artifacts: &mut u64,
    reproduced: &mut u64,
) -> Result<(), String> {
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if !name.is_some_and(|n| n.starts_with("quarantine-") && n.ends_with(".json")) {
            continue;
        }
        *artifacts += 1;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec = spec_from_value(
            v.get("spec")
                .ok_or_else(|| format!("{}: no spec", path.display()))?,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        let fault = match v
            .get("fault")
            .and_then(|f| f.get("kind"))
            .and_then(Value::as_str)
        {
            Some("panic") => tilefuse_core::FaultInjection::WorkerPanic,
            Some("stall") => tilefuse_core::FaultInjection::WorkerStall {
                ms: v
                    .get("fault")
                    .and_then(|f| f.get("ms"))
                    .and_then(Value::as_num)
                    .unwrap_or(50.0) as u64,
            },
            _ => tilefuse_core::FaultInjection::None,
        };
        let recorded_phase = v
            .get("phase")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let program = build_program(&spec).map_err(|e| format!("{}: {e}", path.display()))?;
        let opts = tilefuse_core::Options {
            tile_sizes: vec![spec.tile, spec.tile],
            parallel_cap: spec.parallel_cap,
            startup: if spec.smart_startup {
                tilefuse_scheduler::FusionHeuristic::SmartFuse
            } else {
                tilefuse_scheduler::FusionHeuristic::MinFuse
            },
            fault,
            ..tilefuse_core::Options::default()
        };
        match tilefuse_core::optimize(&program, &opts) {
            Err(tilefuse_core::Error::Panicked { phase, .. }) if phase == recorded_phase => {
                *reproduced += 1;
            }
            other => {
                return Err(format!(
                    "{}: quarantined input did NOT reproduce: expected a panic in \
                     phase '{recorded_phase}', got {other:?}",
                    path.display()
                ));
            }
        }
    }
    Ok(())
}

// ---- the soak ------------------------------------------------------------

fn locate_daemon(cfg: &SoakConfig) -> Result<PathBuf, String> {
    if let Some(p) = &cfg.daemon_bin {
        return if p.exists() {
            Ok(p.clone())
        } else {
            Err(format!("--daemon {}: no such file", p.display()))
        };
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe
        .parent()
        .ok_or("current_exe has no parent")?
        .join("tilefused");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "tilefused not found at {} — build it first (cargo build --bins)",
            sibling.display()
        ))
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the full chaos soak: spawn daemon, flood it, scrape stats, shut
/// it down, replay the quarantine. See the module docs for the contract.
///
/// # Errors
/// Returns a message describing the first contract violation (which the
/// `--serve` CLI turns into exit 1).
#[allow(clippy::too_many_lines)]
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let started = Instant::now();
    let daemon_bin = locate_daemon(cfg)?;
    let dir = cfg.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tilefused-soak-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let socket = dir.join("tilefused.sock");
    let quarantine_dir = dir.join("quarantine");
    let _ = std::fs::remove_file(&socket);

    let mut child = std::process::Command::new(&daemon_bin)
        .arg("--socket")
        .arg(&socket)
        .arg("--quarantine-dir")
        .arg(&quarantine_dir)
        .arg("--workers")
        .arg(cfg.workers.to_string())
        .arg("--queue-cap")
        .arg(cfg.queue_cap.to_string())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", daemon_bin.display()))?;

    // Liveness gate before flooding.
    let result = (|| -> Result<SoakReport, String> {
        let mut probe = connect(&socket, Duration::from_secs(15))?;
        client_write(&mut probe, &json::parse(r#"{"op":"ping","id":0}"#).unwrap())?;
        let pong = client_read(&mut probe)?;
        if pong.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("ping failed: {pong:?}"));
        }
        drop(probe);

        let stop_at = cfg.time_budget.map(|t| started + t);
        let conns = cfg.conns.max(1);
        let per_conn = cfg.jobs / conns as u64;
        let mut handles = Vec::new();
        for c in 0..conns {
            let socket = socket.clone();
            let seed = cfg.seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9);
            let jobs = if c == 0 {
                per_conn + cfg.jobs % conns as u64
            } else {
                per_conn
            };
            let faults = cfg.faults;
            handles.push(std::thread::spawn(move || {
                drive_connection(&socket, seed, jobs, faults, stop_at)
            }));
        }
        let mut report = SoakReport::default();
        let mut latencies = Vec::new();
        for h in handles {
            let s = h.join().map_err(|_| "client thread panicked")??;
            report.jobs_sent += s.sent;
            report.ok += s.ok;
            report.errors += s.errors;
            report.overloaded += s.overloaded;
            report.quarantined += s.quarantined;
            report.digests_checked += s.digests_checked;
            report.panics_injected += s.panics_injected;
            report.stalls_injected += s.stalls_injected;
            latencies.extend(s.latencies_ms);
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        report.p50_ms = percentile(&latencies, 0.50);
        report.p99_ms = percentile(&latencies, 0.99);

        // The daemon must still be alive and answering: scrape counters,
        // then ask it to shut down.
        let mut control = connect(&socket, Duration::from_secs(5))?;
        client_write(
            &mut control,
            &json::parse(r#"{"op":"stats","id":1}"#).unwrap(),
        )?;
        let stats = client_read(&mut control)?;
        let counter = |k: &str| {
            stats
                .get("stats")
                .and_then(|s| s.get(k))
                .and_then(Value::as_num)
                .unwrap_or(0.0) as u64
        };
        report.daemon_retries = counter("retries");
        report.daemon_shed = counter("shed");
        report.daemon_cancelled = counter("cancelled");
        report.daemon_worker_recycles = counter("worker_recycles");
        report.daemon_cache_hits = counter("cache_hits");
        report.daemon_cache_misses = counter("cache_misses");
        client_write(
            &mut control,
            &json::parse(r#"{"op":"shutdown","id":2}"#).unwrap(),
        )?;
        let bye = client_read(&mut control)?;
        if bye.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("shutdown not acknowledged: {bye:?}"));
        }
        drop(control);
        Ok(report)
    })();

    // Always reap the child, success or not.
    let exit = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        }
    };

    let mut report = result?;
    report.daemon_exit_ok = exit.is_some_and(|s| s.success());
    if !report.daemon_exit_ok {
        return Err(format!(
            "daemon did not exit cleanly after shutdown: {exit:?}"
        ));
    }

    // Offline determinism check of everything the soak quarantined.
    let (artifacts, reproduced) = replay_quarantine(&quarantine_dir)?;
    report.quarantine_artifacts = artifacts;
    report.quarantine_reproduced = reproduced;
    if cfg.faults && report.panics_injected > 0 && artifacts == 0 {
        return Err("self-test failed: panics were injected but nothing was quarantined".into());
    }
    if report.stalls_injected > 0 && report.daemon_cancelled == 0 {
        return Err(
            "self-test failed: stalls were injected but no attempt was revoked at its deadline"
                .into(),
        );
    }
    if report.daemon_retries > report.panics_injected {
        return Err(format!(
            "self-test failed: the daemon retried {} jobs but only {} were injected with a panic",
            report.daemon_retries, report.panics_injected
        ));
    }
    report.elapsed_s = started.elapsed().as_secs_f64();
    Ok(report)
}
