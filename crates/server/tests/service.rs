//! End-to-end service tests: a real daemon on a temp unix socket, spoken
//! to over the wire protocol. These cover the contract the chaos soak
//! later stresses at scale — typed responses for every path, cache hits
//! across size variants, panic quarantine with fast reject, admission
//! shedding, and clean shutdown.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tilefuse_server::{read_frame, write_frame, Daemon, DaemonConfig};
use tilefuse_trace::json::{self, Value};

struct TestDaemon {
    daemon: Option<Daemon>,
    socket: PathBuf,
    dir: PathBuf,
}

impl TestDaemon {
    fn start(tag: &str, workers: usize, queue_cap: usize) -> TestDaemon {
        let dir =
            std::env::temp_dir().join(format!("tilefused-itest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("sock");
        let config = DaemonConfig {
            socket: socket.clone(),
            workers,
            queue_cap,
            quarantine_dir: dir.join("quarantine"),
            cache_capacity: 64,
            default_deadline_ms: 30_000,
        };
        let daemon = Daemon::start(config).unwrap();
        TestDaemon {
            daemon: Some(daemon),
            socket,
            dir,
        }
    }

    fn connect(&self) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("cannot connect to {}: {e}", self.socket.display()),
            }
        }
    }

    fn request(&self, stream: &mut UnixStream, req: &str) -> Value {
        write_frame(stream, &json::parse(req).unwrap()).unwrap();
        read_frame(stream)
            .unwrap()
            .expect("one response per request")
    }

    fn shutdown(mut self) {
        let mut s = self.connect();
        let resp = self.request(&mut s, r#"{"op":"shutdown","id":999}"#);
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        drop(s);
        self.daemon.take().unwrap().wait().unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.shutdown();
            let _ = d.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spec_json(size: i64) -> String {
    format!(
        r#"{{"size":{size},"tile":4,"smart_startup":false,"parallel_cap":null,
            "param_delta":0,"stages":[
              {{"kind":"point","src":0,"liveout":false}},
              {{"kind":"stencil_x","r":1,"src":1,"liveout":true}}]}}"#
    )
}

#[test]
fn ping_optimize_cache_and_stats_over_the_wire() {
    let d = TestDaemon::start("basic", 2, 16);
    let mut s = d.connect();

    let pong = d.request(&mut s, r#"{"op":"ping","id":1}"#);
    assert_eq!(pong.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(pong.get("id").unwrap().as_num(), Some(1.0));

    // First optimize: a cache miss that computes and stores a plan.
    let r1 = d.request(
        &mut s,
        &format!(r#"{{"op":"optimize","id":2,"spec":{}}}"#, spec_json(8)),
    );
    assert_eq!(r1.get("status").unwrap().as_str(), Some("ok"), "{r1:?}");
    assert_eq!(
        r1.get("supervision")
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str(),
        Some("miss")
    );
    let digest1 = r1.get("digest").unwrap().as_str().unwrap().to_string();

    // Same pipeline, same size, fresh request: structural hash collides,
    // plan served from cache, digest identical (bit-exact re-execution).
    let r2 = d.request(
        &mut s,
        &format!(r#"{{"op":"optimize","id":3,"spec":{}}}"#, spec_json(8)),
    );
    assert_eq!(r2.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        r2.get("supervision")
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str(),
        Some("hit")
    );
    assert_eq!(r2.get("digest").unwrap().as_str().unwrap(), digest1);

    // A *size variant* of the same pipeline also hits (parametric plans).
    let r3 = d.request(
        &mut s,
        &format!(r#"{{"op":"optimize","id":4,"spec":{}}}"#, spec_json(24)),
    );
    assert_eq!(r3.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        r3.get("supervision")
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str(),
        Some("hit")
    );

    let stats = d.request(&mut s, r#"{"op":"stats","id":5}"#);
    let stats = stats.get("stats").unwrap();
    assert_eq!(stats.get("ok").unwrap().as_num(), Some(3.0));
    assert_eq!(stats.get("cache_hits").unwrap().as_num(), Some(2.0));
    assert_eq!(stats.get("cache_misses").unwrap().as_num(), Some(1.0));

    d.shutdown();
}

/// The plan key excludes the budget, so a plan a tight budget degraded
/// must not be cached: the next unbudgeted request for the same pipeline
/// would be served the untiled floor as a hit.
#[test]
fn budget_degraded_plan_does_not_poison_the_cache() {
    let d = TestDaemon::start("poison", 1, 16);
    let mut s = d.connect();
    let cache_of = |r: &Value| {
        let c = r.get("supervision").unwrap().get("cache").unwrap();
        c.as_str().unwrap().to_string()
    };

    let tight = d.request(
        &mut s,
        &format!(
            r#"{{"op":"optimize","id":1,"budget":{{"max_omega_ops":0}},"spec":{}}}"#,
            spec_json(8)
        ),
    );
    assert_eq!(
        tight.get("status").unwrap().as_str(),
        Some("ok"),
        "{tight:?}"
    );
    assert_eq!(tight.get("rung").unwrap().as_num(), Some(4.0), "{tight:?}");
    assert_eq!(cache_of(&tight), "miss");

    let plain = format!(r#"{{"op":"optimize","id":2,"spec":{}}}"#, spec_json(8));
    let first = d.request(&mut s, &plain);
    assert_eq!(first.get("rung").unwrap().as_num(), Some(1.0), "{first:?}");
    assert_eq!(cache_of(&first), "miss", "degraded plan was cached");
    let second = d.request(&mut s, &plain);
    assert_eq!(second.get("rung").unwrap().as_num(), Some(1.0));
    assert_eq!(cache_of(&second), "hit");
    assert_eq!(second.get("digest"), first.get("digest"));
    assert_eq!(
        tight.get("digest"),
        first.get("digest"),
        "every rung is exact"
    );

    d.shutdown();
}

#[test]
fn panic_is_quarantined_and_fast_rejected_across_connections() {
    let d = TestDaemon::start("quarantine", 1, 16);
    let mut s = d.connect();
    let r = d.request(
        &mut s,
        &format!(
            r#"{{"op":"optimize","id":10,"fault":{{"kind":"panic"}},"spec":{}}}"#,
            spec_json(8)
        ),
    );
    assert_eq!(
        r.get("status").unwrap().as_str(),
        Some("quarantined"),
        "{r:?}"
    );
    let hash = r.get("hash").unwrap().as_str().unwrap().to_string();
    let sup = r.get("supervision").unwrap();
    assert_eq!(sup.get("quarantined").unwrap().as_bool(), Some(true));
    assert_eq!(sup.get("attempts").unwrap().as_arr().unwrap().len(), 2);

    // The worker was recycled: the daemon still answers (fresh thread).
    let mut s2 = d.connect();
    let pong = d.request(&mut s2, r#"{"op":"ping","id":11}"#);
    assert_eq!(pong.get("status").unwrap().as_str(), Some("ok"));

    // The identical request — even without the fault — is fast-rejected
    // with the same structural hash.
    let r2 = d.request(
        &mut s2,
        &format!(r#"{{"op":"optimize","id":12,"spec":{}}}"#, spec_json(8)),
    );
    assert_eq!(r2.get("status").unwrap().as_str(), Some("quarantined"));
    assert_eq!(r2.get("hash").unwrap().as_str().unwrap(), hash);

    // A structurally different pipeline still optimizes fine.
    let other = r#"{"size":8,"tile":4,"smart_startup":false,"parallel_cap":null,
                    "param_delta":0,"stages":[{"kind":"point","src":0,"liveout":true}]}"#;
    let r3 = d.request(
        &mut s2,
        &format!(r#"{{"op":"optimize","id":13,"spec":{other}}}"#),
    );
    assert_eq!(r3.get("status").unwrap().as_str(), Some("ok"));

    d.shutdown();
}

#[test]
fn deadline_cancels_a_stalled_job_mid_attempt() {
    let d = TestDaemon::start("stall", 1, 16);
    let mut s = d.connect();
    // The injected stall (10 s) dwarfs the 400 ms deadline: the attempt's
    // token must revoke the grant mid-stall and the supervisor must still
    // give a typed answer well before the stall would have ended.
    let t0 = Instant::now();
    let r = d.request(
        &mut s,
        &format!(
            r#"{{"op":"optimize","id":20,"deadline_ms":400,
                 "fault":{{"kind":"stall","ms":10000}},"spec":{}}}"#,
            spec_json(8)
        ),
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "not held by the stall"
    );
    assert_eq!(r.get("status").unwrap().as_str(), Some("error"), "{r:?}");
    let supervision = r.get("supervision").unwrap();
    let attempts = supervision.get("attempts").unwrap().as_arr().unwrap();
    assert_eq!(
        attempts[0].get("outcome").unwrap().as_str(),
        Some("exhausted")
    );
    assert_eq!(
        attempts[0].get("limit").unwrap().as_str(),
        Some("cancelled")
    );
    // The deadline has passed, so no second attempt runs, and none may
    // be counted.
    let retries = supervision.get("retries").unwrap().as_num().unwrap();
    assert_eq!(retries as usize + 1, attempts.len(), "{supervision:?}");
    d.shutdown();
}

/// A spec whose buffers the daemon cannot afford is refused at parse
/// time with a typed error, before anything is allocated for it.
#[test]
fn unaffordable_specs_get_a_typed_error_and_the_daemon_lives_on() {
    let d = TestDaemon::start("affordable", 1, 16);
    let mut s = d.connect();
    let huge = spec_json(1_000_000);
    let no_tile = spec_json(8).replace(r#""tile":4"#, r#""tile":0"#);
    for (id, spec) in [(70, huge), (71, no_tile)] {
        let r = d.request(
            &mut s,
            &format!(r#"{{"op":"optimize","id":{id},"spec":{spec}}}"#),
        );
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"), "{r:?}");
        assert_eq!(r.get("id").unwrap().as_num(), Some(f64::from(id)));
        let detail = r.get("detail").unwrap().as_str().unwrap();
        assert!(detail.contains("unaffordable spec"), "{detail}");
    }
    let pong = d.request(&mut s, r#"{"op":"ping","id":72}"#);
    assert_eq!(pong.get("status").unwrap().as_str(), Some("ok"));
    d.shutdown();
}

#[test]
fn stats_inflight_counts_the_job_on_a_worker() {
    let d = TestDaemon::start("inflight", 1, 16);
    let socket = d.socket.clone();
    let inflight = |s: &mut UnixStream| {
        let r = d.request(s, r#"{"op":"stats","id":60}"#);
        r.get("stats").unwrap().get("inflight").unwrap().as_num()
    };

    // Hold the only worker with a stall well inside its deadline.
    let holder = std::thread::spawn(move || {
        let mut s = UnixStream::connect(&socket).unwrap();
        let req = format!(
            r#"{{"op":"optimize","id":61,"deadline_ms":10000,
                 "fault":{{"kind":"stall","ms":3000}},"spec":{}}}"#,
            spec_json(8)
        );
        write_frame(&mut s, &json::parse(&req).unwrap()).unwrap();
        read_frame(&mut s).unwrap().unwrap()
    });

    let mut s = d.connect();
    let seen = Instant::now() + Duration::from_millis(2500);
    while inflight(&mut s) != Some(1.0) {
        assert!(Instant::now() < seen, "the held job never reached a worker");
        std::thread::sleep(Duration::from_millis(5));
    }
    let r = holder.join().unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    assert_eq!(inflight(&mut s), Some(0.0));
    d.shutdown();
}

#[test]
fn full_queue_sheds_with_a_typed_overloaded_response() {
    // One worker, queue of one, and a stalled job occupying the worker:
    // concurrent requests must be shed, not block forever.
    let d = TestDaemon::start("overload", 1, 1);
    let socket = d.socket.clone();

    // Occupy the worker with a long stall (own deadline so it finishes).
    let blocker = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut s = UnixStream::connect(&socket).unwrap();
            let req = format!(
                r#"{{"op":"optimize","id":30,"deadline_ms":3000,
                     "fault":{{"kind":"stall","ms":2000}},"spec":{}}}"#,
                spec_json(8)
            );
            write_frame(&mut s, &json::parse(&req).unwrap()).unwrap();
            read_frame(&mut s).unwrap().unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(300)); // let it reach the worker

    // Flood: with the worker stalled and cap 1, at least one of these
    // must come back `overloaded`.
    let mut statuses = Vec::new();
    let mut handles = Vec::new();
    for i in 0..4 {
        let socket = socket.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = UnixStream::connect(&socket).unwrap();
            let req = format!(
                r#"{{"op":"optimize","id":{},"deadline_ms":200,"spec":{}}}"#,
                40 + i,
                spec_json(8)
            );
            write_frame(&mut s, &json::parse(&req).unwrap()).unwrap();
            let resp = read_frame(&mut s).unwrap().unwrap();
            resp.get("status").unwrap().as_str().unwrap().to_string()
        }));
    }
    for h in handles {
        statuses.push(h.join().unwrap());
    }
    assert!(
        statuses.iter().any(|s| s == "overloaded"),
        "expected at least one shed among {statuses:?}"
    );
    assert!(
        statuses
            .iter()
            .all(|s| s == "overloaded" || s == "ok" || s == "error"),
        "all responses typed: {statuses:?}"
    );
    let _ = blocker.join().unwrap();
    d.shutdown();
}

#[test]
fn shutdown_drains_and_exits_cleanly() {
    let d = TestDaemon::start("shutdown", 2, 16);
    let mut s = d.connect();
    let r = d.request(
        &mut s,
        &format!(r#"{{"op":"optimize","id":50,"spec":{}}}"#, spec_json(8)),
    );
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"));
    // shutdown() asserts the ok response and that wait() returns Ok.
    d.shutdown();
}
