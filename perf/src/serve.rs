//! `serve_mix`: many small programs through the whole request path.
//!
//! Two things are measured on the same seeded programs. The *daemon
//! rounds*: an in-process `Daemon` with 2 workers, a closed loop of 2
//! connections (a connection sends its next job only when the previous
//! reply has arrived), 1500 jobs, no faults; half of the jobs repeat one of
//! a fixed pool of 16 specs, so the plan cache sees repeats.
//! And the *library rounds*: the pool's 16 programs through the same
//! build → optimize → lower → execute chain as the PolyMage workloads,
//! which is what a change to a layer moves when fixed per-program costs
//! dominate.
//!
//! Specs, request frames and expected digests are made in set-up, so the
//! timed loop only sends and receives.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tilefuse::codegen::reference_execute;
use tilefuse::core::FaultInjection;
use tilefuse::fuzzgen::{
    build_program, output_digest, random_spec, spec_to_json, ProgramSpec, Rng,
};
use tilefuse::server::supervisor::options_for;
use tilefuse::server::{read_frame, write_frame, Daemon, DaemonConfig};
use tilefuse::trace::json::{self, Value};

use crate::bench::{obj, Recorder};
use crate::pipeline::{self, ratio, Reference, Source};
use crate::spans::Spans;
use crate::{stats, time_left};

const POOL: usize = 16;
const JOBS: usize = 1500;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// The pool and the one-off specs are the same for every `--seed`; the
/// seed draws the order of the jobs.
const POOL_SEED: u64 = 0x7065_7266;
const ONE_OFF_SEED: u64 = 0x6f6e_6365;
const PINGS: usize = 200;

fn run_size(spec: &ProgramSpec) -> i64 {
    spec.size + spec.param_delta
}

fn source(name: String, spec: &ProgramSpec) -> Source {
    let size = run_size(spec);
    let owned = spec.clone();
    Source {
        name,
        build: Box::new(move || build_program(&owned)),
        opts: options_for(spec, None, FaultInjection::None),
        overrides: vec![("H", size), ("W", size)],
    }
}

/// One job: the frame to send and the digest a correct reply carries.
struct Job {
    request: Value,
    digest: String,
}

/// What set-up leaves for the measured rounds.
pub struct Setup {
    pool: Vec<Source>,
    refs: Vec<Reference>,
    jobs: Vec<Job>,
}

/// Builds the pool and the job stream and computes every expected digest
/// locally, with the reference interpreter.
///
/// The *population* of jobs is fixed — half of them one-off
/// `random_spec`s, half of them repeats of the 16 pool specs in equal
/// shares — and `seed` shuffles their order, so that at every position a
/// job is a repeat with probability ½. A population drawn afresh per seed
/// would move the mean round trip by ±15 %: a handful of specs cost a
/// hundred times the median one.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let specs: Vec<ProgramSpec> = (0..POOL as u64)
        .map(|i| random_spec(&mut Rng::new(POOL_SEED + i)))
        .collect();
    let pool: Vec<Source> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| source(format!("pool{i}"), s))
        .collect();
    let refs = pool
        .iter()
        .map(Reference::of)
        .collect::<Result<Vec<_>, _>>()?;

    let mut one_off = Rng::new(ONE_OFF_SEED);
    let mut stream: Vec<ProgramSpec> = (0..JOBS)
        .map(|i| match i % 2 {
            0 => specs[(i / 2) % POOL].clone(),
            _ => random_spec(&mut one_off),
        })
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.range(0, i as u64 + 1) as usize);
    }

    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    let mut jobs = Vec::with_capacity(JOBS);
    for (id, spec) in stream.iter().enumerate() {
        let wire = spec_to_json(spec);
        let digest = match digests.get(&wire) {
            Some(d) => d.clone(),
            None => {
                let program = build_program(spec)?;
                let size = run_size(spec);
                let (ctx, _) = reference_execute(&program, &[("H", size), ("W", size)])
                    .map_err(|e| e.to_string())?;
                let d = format!("{:016x}", output_digest(&program, &ctx));
                digests.insert(wire.clone(), d.clone());
                d
            }
        };
        jobs.push(Job {
            request: obj([
                ("op", Value::Str("optimize".into())),
                ("id", Value::Num(id as f64)),
                ("spec", json::parse(&wire).map_err(|e| e.to_string())?),
            ]),
            digest,
        });
    }
    Ok(Setup { pool, refs, jobs })
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("cannot connect to {}: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn round_trip(stream: &mut UnixStream, request: &Value) -> Result<Value, String> {
    write_frame(stream, request).map_err(|e| format!("write: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "daemon closed the connection".to_string())
}

fn op(name: &str) -> Value {
    obj([("op", Value::Str(name.into())), ("id", Value::Num(0.0))])
}

/// One answered job.
struct Reply {
    latency_ms: f64,
    hit: bool,
    rung: u8,
    /// Why the reply counts as failed, if it does.
    failure: Option<String>,
}

fn judge(id: usize, job: &Job, resp: &Value, latency_ms: f64) -> Reply {
    let status = resp.get("status").and_then(Value::as_str).unwrap_or("");
    let failure = if resp.get("id").and_then(Value::as_num) != Some(id as f64) {
        Some("response id differs".to_string())
    } else if status != "ok" {
        Some(format!("status '{status}'"))
    } else if resp.get("digest").and_then(Value::as_str) != Some(&job.digest) {
        Some("digest differs from the local reference".to_string())
    } else {
        None
    };
    Reply {
        latency_ms,
        hit: resp
            .get("supervision")
            .and_then(|s| s.get("cache"))
            .and_then(Value::as_str)
            == Some("hit"),
        rung: resp.get("rung").and_then(Value::as_num).unwrap_or(0.0) as u8,
        failure,
    }
}

/// What one daemon round measured.
struct Round {
    replies: Vec<Reply>,
    wall_s: f64,
    ping_ms: f64,
    /// The daemon's `stats` payload after the last job.
    stats: Value,
}

/// Starts a daemon, drives the job stream through it over
/// [`CONNECTIONS`] closed-loop connections, reads its counters and shuts
/// it down. Every thread started here has ended on return.
fn daemon_round(setup: &Setup, out_dir: &Path, spans: &mut Spans) -> Result<Round, String> {
    let tag = std::process::id();
    let socket: PathBuf = out_dir.join(format!("serve-{tag}.sock"));
    let quarantine_dir = out_dir.join(format!("quarantine-{tag}"));
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        quarantine_dir: quarantine_dir.clone(),
        workers: WORKERS,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;

    let (on, epoch) = (spans.is_on(), spans.epoch());
    let jobs = &setup.jobs;
    let started = Instant::now();
    let per_conn: Vec<Result<(Vec<Reply>, Spans), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let socket = &socket;
                scope.spawn(move || -> Result<_, String> {
                    let mut spans = Spans::new(on, epoch, conn as u32 + 1);
                    let mut stream = connect(socket)?;
                    let mut replies = Vec::with_capacity(JOBS / CONNECTIONS + 1);
                    for (id, job) in jobs.iter().enumerate().skip(conn).step_by(CONNECTIONS) {
                        spans.set_rep(id as u32);
                        let (resp, ms) = spans.scope("server.round_trip", |_| {
                            round_trip(&mut stream, &job.request)
                        });
                        replies.push(judge(id, job, &resp?, ms));
                    }
                    Ok((replies, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    // Counters and the bare frame + socket cost, then a clean shutdown —
    // also when a client failed, so that no daemon thread outlives us.
    let tail = (|| -> Result<(f64, Value), String> {
        let mut stream = connect(&socket)?;
        let mut pings = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t0 = Instant::now();
            round_trip(&mut stream, &op("ping"))?;
            pings.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let stats = round_trip(&mut stream, &op("stats"))?;
        round_trip(&mut stream, &op("shutdown"))?;
        Ok((
            stats::median(&pings),
            stats.get("stats").cloned().unwrap_or(Value::Null),
        ))
    })();
    daemon.shutdown();
    daemon.wait().map_err(|e| format!("daemon exit: {e}"))?;
    let _ = std::fs::remove_dir_all(&quarantine_dir);

    let mut replies = Vec::with_capacity(JOBS);
    for conn in per_conn {
        let (r, s) = conn?;
        replies.extend(r);
        spans.absorb(s);
    }
    let (ping_ms, stats) = tail?;
    Ok(Round {
        replies,
        wall_s,
        ping_ms,
        stats,
    })
}

fn tally_replies(round: &Round, rec: &mut Recorder) {
    for reply in &round.replies {
        rec.check("serve job", reply.failure.clone());
    }
    // A job that was never answered failed too.
    for _ in round.replies.len()..JOBS {
        rec.check("serve job", Some("no reply".to_string()));
    }
}

/// Share of `--seconds` spent on library rounds; the rest goes to daemon
/// rounds.
const LIBRARY_SHARE: f64 = 0.25;

/// The end-to-end pass: library rounds, then daemon rounds, until
/// `seconds` have been measured. All library rounds come first, in the
/// state every other workload measures in: a process that has run the
/// daemon's threads executes the same chain measurably slower.
///
/// `e2e_ms` is the *mean* round trip of a daemon round: the job stream is
/// half cache hits and half misses, so its median sits on the edge between
/// the two modes and moves with the mix, not the code.
pub fn e2e_pass(setup: &Setup, seconds: f64, out_dir: &Path, rec: &mut Recorder) {
    let start = Instant::now();
    let mut rounds = 0;
    while time_left(start, seconds * LIBRARY_SHARE, rounds) {
        pipeline::e2e_round(&setup.pool, &setup.refs, rec).record(rec);
        rounds += 1;
    }
    // One round is 1500 round trips, a sample large enough to stand alone.
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        match daemon_round(setup, out_dir, &mut Spans::off()) {
            Ok(round) => {
                tally_replies(&round, rec);
                let latencies: Vec<f64> = round.replies.iter().map(|r| r.latency_ms).collect();
                rec.sample("e2e_ms", stats::mean(&latencies));
            }
            Err(e) => rec.check("serve round", Some(e)),
        }
        rounds += 1;
    }
}

/// The traced pass: the pool through [`pipeline::layer_pass`], then one
/// daemon round with a span around every round trip.
pub fn layer_pass(
    setup: &Setup,
    out_dir: &Path,
    rec: &mut Recorder,
    spans: &mut Spans,
) -> Result<(), String> {
    pipeline::layer_pass(&setup.pool, &setup.refs, rec, spans)?;

    tilefuse::trace::set_enabled(true);
    let round = daemon_round(setup, out_dir, spans);
    tilefuse::trace::set_enabled(false);
    let round = round?;
    tally_replies(&round, rec);

    let of = |pred: &dyn Fn(&Reply) -> bool| -> Vec<f64> {
        round
            .replies
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.latency_ms)
            .collect()
    };
    let all = of(&|_| true);
    let hits = of(&|r| r.hit);
    let counter = |k: &str| round.stats.get(k).and_then(Value::as_num).unwrap_or(0.0);
    for (name, v) in [
        ("server.ping_ms", round.ping_ms),
        ("server.p50_ms", stats::median(&all)),
        ("server.p95_ms", stats::percentile(&all, 95.0)),
        ("server.jobs_per_s", ratio(all.len() as f64, round.wall_s)),
        ("server.hit_p50_ms", stats::median(&hits)),
        ("server.miss_p50_ms", stats::median(&of(&|r| !r.hit))),
        (
            "server.cache_hit_ratio",
            ratio(
                counter("cache_hits"),
                counter("cache_hits") + counter("cache_misses"),
            ),
        ),
        ("server.retries", counter("retries")),
        ("server.shed", counter("shed")),
        ("server.cancelled", counter("cancelled")),
        (
            "server.rung_gt1_share",
            ratio(
                round.replies.iter().filter(|r| r.rung > 1).count() as f64,
                all.len() as f64,
            ),
        ),
    ] {
        rec.sample(name, v);
    }
    Ok(())
}
