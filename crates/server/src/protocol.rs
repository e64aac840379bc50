//! The `tilefused` wire protocol: length-prefixed JSON frames, request
//! parsing, and response/report serialization.
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON. Requests carry an `op` (`optimize`, `stats`, `ping`,
//! `shutdown`), a client-chosen `id` echoed back in the response, and —
//! for `optimize` — a program spec in the `tilefuse_fuzzgen` wire form
//! plus optional `deadline_ms`, `budget`, and `fault` fields. Responses
//! carry the echoed `id` and a `status` of `ok`, `error`, `overloaded`,
//! or `quarantined`; exactly one response is written per request, which
//! is what the chaos soak's "every request answered with a typed
//! response" assertion checks.

use crate::error::ServerError;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use tilefuse_core::{DegradationReport, FaultInjection};
use tilefuse_fuzzgen::{ProgramSpec, StageKind};
use tilefuse_trace::json::{self, Value};
use tilefuse_trace::Budget;

/// Frames above this size are rejected (protects the daemon from a
/// corrupt or hostile length prefix).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed JSON frame.
///
/// # Errors
/// Returns the underlying I/O error.
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let body = v.render();
    let len = u32::try_from(body.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
/// Returns [`ServerError::Protocol`] for oversized or non-JSON frames and
/// [`ServerError::Io`] for transport failures (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Value>, ServerError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ServerError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text =
        String::from_utf8(body).map_err(|_| ServerError::Protocol("frame is not UTF-8".into()))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| ServerError::Protocol(e.to_string()))
}

/// One optimize job as received on the wire.
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The pipeline to optimize.
    pub spec: ProgramSpec,
    /// End-to-end deadline (queue wait + every attempt), in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-attempt resource budget for the optimizer.
    pub budget: Option<Budget>,
    /// Chaos-soak fault injection for this job.
    pub fault: FaultInjection,
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run an optimize job.
    Optimize(Box<OptimizeRequest>),
    /// Return the daemon's counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Graceful shutdown: drain the queue, then exit.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// Largest extent a job may ask for: the problem size
/// (`size + param_delta`), the tile, a stage's access offset, and every
/// buffer's rows and columns. A buffer then holds at most 512 KiB of
/// `f64`s. `random_spec` draws problem sizes up to 16 and tiles up to 6.
const MAX_EXTENT: i64 = 256;
/// Most stages a job may have (`random_spec` draws at most 7).
const MAX_STAGES: usize = 32;

/// Rejects a spec the daemon cannot afford to build and execute. It runs
/// before anything is allocated for the spec: a failed allocation aborts
/// the process, and no `catch_unwind` can contain that.
fn check_affordable(spec: &ProgramSpec) -> Result<(), ServerError> {
    let reject = |what: String| Err(ServerError::Protocol(format!("unaffordable spec: {what}")));
    if spec.stages.len() > MAX_STAGES {
        return reject(format!(
            "{} stages (at most {MAX_STAGES})",
            spec.stages.len()
        ));
    }
    let in_range = |lo: i64, x: i64| (lo..=MAX_EXTENT).contains(&x);
    if !in_range(1, spec.size) || !in_range(0, spec.param_delta) || !in_range(1, spec.tile) {
        return reject(format!(
            "size {}, param_delta {}, tile {} (size and tile in 1..={MAX_EXTENT}, \
             param_delta in 0..={MAX_EXTENT})",
            spec.size, spec.param_delta, spec.tile
        ));
    }
    for (i, st) in spec.stages.iter().enumerate() {
        let offsets = match st.kind {
            StageKind::StencilX(r) | StageKind::StencilY(r) => [r, 0],
            StageKind::Shift { dh, dw } => [dh, dw],
            _ => [0, 0],
        };
        if offsets.iter().any(|o| !in_range(-MAX_EXTENT, *o)) {
            return reject(format!(
                "stage {i} offset {offsets:?} (|offset| ≤ {MAX_EXTENT})"
            ));
        }
    }
    // With the stage count and offsets bounded, the extents cannot
    // overflow. An ill-formed spec is left for `build_program` to report.
    // The input image is the first extent, so this also bounds the
    // problem size.
    let Ok(exts) = tilefuse_fuzzgen::spec_extents(spec) else {
        return Ok(());
    };
    let extent = spec.size + spec.param_delta;
    for e in exts.iter().flat_map(|e| [e.h, e.w]) {
        if extent + e.off.max(0) > MAX_EXTENT {
            return reject(format!(
                "a buffer of {} rows (at most {MAX_EXTENT})",
                extent + e.off
            ));
        }
    }
    Ok(())
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_num).map(|n| n as u64)
}

/// Parses a request frame.
///
/// # Errors
/// Returns [`ServerError::Protocol`] with a message naming the offending
/// field; the daemon reports it in an `error` response so a buggy client
/// learns what it sent.
pub fn parse_request(v: &Value) -> Result<Request, ServerError> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ServerError::Protocol("missing 'op'".into()))?;
    let id =
        get_u64(v, "id").ok_or_else(|| ServerError::Protocol("missing numeric 'id'".into()))?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "optimize" => {
            let spec_v = v
                .get("spec")
                .ok_or_else(|| ServerError::Protocol("optimize without 'spec'".into()))?;
            let spec = tilefuse_fuzzgen::spec_from_value(spec_v)
                .map_err(|e| ServerError::Protocol(format!("bad spec: {e}")))?;
            check_affordable(&spec)?;
            let budget = match v.get("budget") {
                None | Some(Value::Null) => None,
                Some(b) => Some(Budget {
                    deadline_ms: get_u64(b, "deadline_ms"),
                    max_omega_ops: get_u64(b, "max_omega_ops"),
                }),
            };
            let fault = parse_fault(v.get("fault"))?;
            Ok(Request::Optimize(Box::new(OptimizeRequest {
                id,
                spec,
                deadline_ms: get_u64(v, "deadline_ms"),
                budget,
                fault,
            })))
        }
        other => Err(ServerError::Protocol(format!("unknown op '{other}'"))),
    }
}

/// Parses the optional `fault` field (`null`/absent, `{"kind":"panic"}`,
/// or `{"kind":"stall","ms":N}`).
///
/// # Errors
/// Returns [`ServerError::Protocol`] for unknown kinds.
pub fn parse_fault(v: Option<&Value>) -> Result<FaultInjection, ServerError> {
    match v {
        None | Some(Value::Null) => Ok(FaultInjection::None),
        Some(f) => match f.get("kind").and_then(Value::as_str) {
            Some("panic") => Ok(FaultInjection::WorkerPanic),
            Some("stall") => Ok(FaultInjection::WorkerStall {
                ms: get_u64(f, "ms").unwrap_or(50),
            }),
            _ => Err(ServerError::Protocol(
                "fault must be {\"kind\":\"panic\"} or {\"kind\":\"stall\",\"ms\":N}".into(),
            )),
        },
    }
}

/// Renders a fault back to its wire form (for quarantine artifacts).
#[must_use]
pub fn fault_to_value(fault: FaultInjection) -> Value {
    let mut o = BTreeMap::new();
    match fault {
        FaultInjection::WorkerPanic => {
            o.insert("kind".into(), Value::Str("panic".into()));
        }
        FaultInjection::WorkerStall { ms } => {
            o.insert("kind".into(), Value::Str("stall".into()));
            o.insert("ms".into(), Value::Num(ms as f64));
        }
        _ => return Value::Null,
    }
    Value::Obj(o)
}

/// How one attempt of a supervised job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt produced a plan at the given ladder rung.
    Ok {
        /// Degradation-ladder rung of the produced plan.
        rung: u8,
    },
    /// The attempt was stopped at its job deadline (limit `"cancelled"`)
    /// or blew its budget in a non-degradable way — `limit` is the
    /// governor limit name.
    Exhausted {
        /// Governor limit (`"cancelled"`, `"deadline"`, ...).
        limit: String,
        /// Innermost governed phase when it tripped.
        phase: String,
    },
    /// The worker panicked; the panic was caught at the optimize boundary.
    Panicked {
        /// Innermost governed phase when the panic unwound.
        phase: String,
        /// Panic payload message.
        message: String,
    },
    /// A genuine (non-budget, non-panic) optimizer error.
    Failed {
        /// The error's display string.
        error: String,
    },
}

/// One attempt of a supervised job.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt ordinal (0 = first).
    pub attempt: u32,
    /// The ladder rung this attempt entered at: 1 (the full pipeline), or
    /// 4 (the untiled floor) for the retry after a panic.
    pub min_rung: u8,
    /// Wall-clock the attempt took, in milliseconds.
    pub elapsed_ms: f64,
    /// How it ended.
    pub outcome: AttemptOutcome,
}

/// Where the job's plan came from, cache-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Plan served from the cache (zero Omega ops).
    Hit,
    /// Plan computed and inserted.
    Miss,
    /// Cache bypassed (fault-injected request).
    Bypass,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// The supervisor's per-job account: every attempt, the retry count, and
/// how the plan cache was involved. Travels alongside the optimizer's own
/// [`DegradationReport`] in `ok` responses and in quarantine artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionReport {
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Number of retries (attempts beyond the first).
    pub retries: u32,
    /// Whether the job ended in quarantine.
    pub quarantined: bool,
    /// Plan-cache involvement.
    pub cache: CacheOutcome,
    /// End-to-end wall-clock from dequeue to response, in milliseconds.
    pub elapsed_ms: f64,
}

impl SupervisionReport {
    /// An empty report (cache bypass, no attempts yet).
    #[must_use]
    pub fn new() -> Self {
        SupervisionReport {
            attempts: Vec::new(),
            retries: 0,
            quarantined: false,
            cache: CacheOutcome::Bypass,
            elapsed_ms: 0.0,
        }
    }

    /// Serializes to the wire form.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let attempts = self
            .attempts
            .iter()
            .map(|a| {
                let mut o = BTreeMap::new();
                o.insert("attempt".into(), Value::Num(f64::from(a.attempt)));
                o.insert("min_rung".into(), Value::Num(f64::from(a.min_rung)));
                o.insert("elapsed_ms".into(), Value::Num(a.elapsed_ms));
                let (outcome, fields): (&str, Vec<(&str, &str)>) = match &a.outcome {
                    AttemptOutcome::Ok { rung } => {
                        o.insert("rung".into(), Value::Num(f64::from(*rung)));
                        ("ok", vec![])
                    }
                    AttemptOutcome::Exhausted { limit, phase } => {
                        ("exhausted", vec![("limit", &**limit), ("phase", &**phase)])
                    }
                    AttemptOutcome::Panicked { phase, message } => (
                        "panicked",
                        vec![("phase", &**phase), ("message", &**message)],
                    ),
                    AttemptOutcome::Failed { error } => ("failed", vec![("error", &**error)]),
                };
                o.insert("outcome".into(), Value::Str(outcome.into()));
                for (k, v) in fields {
                    o.insert(k.into(), Value::Str(v.into()));
                }
                Value::Obj(o)
            })
            .collect();
        let mut o = BTreeMap::new();
        o.insert("attempts".into(), Value::Arr(attempts));
        o.insert("retries".into(), Value::Num(f64::from(self.retries)));
        o.insert("quarantined".into(), Value::Bool(self.quarantined));
        o.insert("cache".into(), Value::Str(self.cache.as_str().into()));
        o.insert("elapsed_ms".into(), Value::Num(self.elapsed_ms));
        Value::Obj(o)
    }

    /// Parses the wire form back.
    ///
    /// # Errors
    /// Returns a message for missing or mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let str_field = |a: &Value, k: &str| -> Result<String, String> {
            a.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("attempt missing '{k}'"))
        };
        let mut attempts = Vec::new();
        for a in v
            .get("attempts")
            .and_then(Value::as_arr)
            .ok_or("missing 'attempts'")?
        {
            let outcome = match a.get("outcome").and_then(Value::as_str) {
                Some("ok") => AttemptOutcome::Ok {
                    rung: a
                        .get("rung")
                        .and_then(Value::as_num)
                        .ok_or("ok without rung")? as u8,
                },
                Some("exhausted") => AttemptOutcome::Exhausted {
                    limit: str_field(a, "limit")?,
                    phase: str_field(a, "phase")?,
                },
                Some("panicked") => AttemptOutcome::Panicked {
                    phase: str_field(a, "phase")?,
                    message: str_field(a, "message")?,
                },
                Some("failed") => AttemptOutcome::Failed {
                    error: str_field(a, "error")?,
                },
                _ => return Err("attempt with unknown outcome".into()),
            };
            attempts.push(AttemptRecord {
                attempt: a.get("attempt").and_then(Value::as_num).unwrap_or(0.0) as u32,
                min_rung: a.get("min_rung").and_then(Value::as_num).unwrap_or(1.0) as u8,
                elapsed_ms: a.get("elapsed_ms").and_then(Value::as_num).unwrap_or(0.0),
                outcome,
            });
        }
        let cache = match v.get("cache").and_then(Value::as_str) {
            Some("hit") => CacheOutcome::Hit,
            Some("miss") => CacheOutcome::Miss,
            Some("bypass") => CacheOutcome::Bypass,
            _ => return Err("missing 'cache'".into()),
        };
        Ok(SupervisionReport {
            attempts,
            retries: v.get("retries").and_then(Value::as_num).unwrap_or(0.0) as u32,
            quarantined: v
                .get("quarantined")
                .and_then(Value::as_bool)
                .ok_or("missing 'quarantined'")?,
            cache,
            elapsed_ms: v.get("elapsed_ms").and_then(Value::as_num).unwrap_or(0.0),
        })
    }
}

impl Default for SupervisionReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a [`DegradationReport`] to the wire form carried in `ok`
/// responses (`parse(render(v))` reproduces `v` — the round-trip test
/// lives in `tests/error_paths.rs`).
#[must_use]
pub fn degradation_to_value(d: &DegradationReport) -> Value {
    let trips = d
        .trips
        .iter()
        .map(|t| {
            let mut o = BTreeMap::new();
            o.insert("phase".into(), Value::Str(t.phase.into()));
            o.insert("limit".into(), Value::Str(t.limit.into()));
            o.insert("detail".into(), Value::Str(t.detail.clone()));
            Value::Obj(o)
        })
        .collect();
    let mut o = BTreeMap::new();
    o.insert("rung".into(), Value::Num(f64::from(d.rung)));
    o.insert("trips".into(), Value::Arr(trips));
    o.insert(
        "silent_feasible".into(),
        Value::Num(d.silent_feasible as f64),
    );
    o.insert("omega_ops".into(), Value::Num(d.omega_ops as f64));
    o.insert("elapsed_ms".into(), Value::Num(d.elapsed_ms));
    o.insert("peak_disjuncts".into(), Value::Num(d.peak_disjuncts as f64));
    o.insert(
        "fusion_budget_exhausted".into(),
        Value::Bool(d.fusion_budget_exhausted),
    );
    o.insert("fusion_steps".into(), Value::Num(d.fusion_steps as f64));
    Value::Obj(o)
}

/// A parsed degradation report, with owned strings where the in-process
/// [`DegradationReport`] uses `&'static str` (a wire peer cannot
/// reconstruct statics). Field-for-field otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Ladder rung that produced the plan.
    pub rung: u8,
    /// `(phase, limit, detail)` of every absorbed trip.
    pub trips: Vec<(String, String, String)>,
    /// See [`DegradationReport::silent_feasible`].
    pub silent_feasible: u64,
    /// See [`DegradationReport::omega_ops`].
    pub omega_ops: u64,
    /// See [`DegradationReport::elapsed_ms`].
    pub elapsed_ms: f64,
    /// See [`DegradationReport::peak_disjuncts`].
    pub peak_disjuncts: usize,
    /// See [`DegradationReport::fusion_budget_exhausted`].
    pub fusion_budget_exhausted: bool,
    /// See [`DegradationReport::fusion_steps`].
    pub fusion_steps: u64,
}

impl DegradationSummary {
    /// Parses the wire form written by [`degradation_to_value`].
    ///
    /// # Errors
    /// Returns a message for missing or mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("missing '{k}'"))
        };
        let mut trips = Vec::new();
        for t in v
            .get("trips")
            .and_then(Value::as_arr)
            .ok_or("missing 'trips'")?
        {
            let s = |k: &str| -> Result<String, String> {
                t.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("trip missing '{k}'"))
            };
            trips.push((s("phase")?, s("limit")?, s("detail")?));
        }
        Ok(DegradationSummary {
            rung: num("rung")? as u8,
            trips,
            silent_feasible: num("silent_feasible")? as u64,
            omega_ops: num("omega_ops")? as u64,
            elapsed_ms: num("elapsed_ms")?,
            peak_disjuncts: num("peak_disjuncts")? as usize,
            fusion_budget_exhausted: v
                .get("fusion_budget_exhausted")
                .and_then(Value::as_bool)
                .ok_or("missing 'fusion_budget_exhausted'")?,
            fusion_steps: num("fusion_steps")? as u64,
        })
    }
}

/// Checks a wire summary against the in-process report it was built from.
#[must_use]
pub fn summary_matches(s: &DegradationSummary, d: &DegradationReport) -> bool {
    s.rung == d.rung
        && s.silent_feasible == d.silent_feasible
        && s.omega_ops == d.omega_ops
        && s.peak_disjuncts == d.peak_disjuncts
        && s.fusion_budget_exhausted == d.fusion_budget_exhausted
        && s.fusion_steps == d.fusion_steps
        && s.trips.len() == d.trips.len()
        && s.trips
            .iter()
            .zip(&d.trips)
            .all(|(a, b)| a.0 == b.phase && a.1 == b.limit && a.2 == b.detail)
}

/// Builds an `ok` response for an optimize job.
#[must_use]
pub fn ok_response(
    id: u64,
    digest: u64,
    degradation: &DegradationReport,
    supervision: &SupervisionReport,
) -> Value {
    let mut o = BTreeMap::new();
    o.insert("id".into(), Value::Num(id as f64));
    o.insert("status".into(), Value::Str("ok".into()));
    o.insert("digest".into(), Value::Str(format!("{digest:016x}")));
    o.insert("rung".into(), Value::Num(f64::from(degradation.rung)));
    o.insert("degradation".into(), degradation_to_value(degradation));
    o.insert("supervision".into(), supervision.to_value());
    Value::Obj(o)
}

/// Builds a bare `ok` response (ping/shutdown) or one with a payload
/// merged in (stats).
#[must_use]
pub fn simple_ok(id: u64, extra: Option<(&str, Value)>) -> Value {
    let mut o = BTreeMap::new();
    o.insert("id".into(), Value::Num(id as f64));
    o.insert("status".into(), Value::Str("ok".into()));
    if let Some((k, v)) = extra {
        o.insert(k.into(), v);
    }
    Value::Obj(o)
}

/// Builds the typed response for a [`ServerError`] (`overloaded` and
/// `quarantined` get their own statuses; the rest map to `error`).
#[must_use]
pub fn error_response(id: u64, e: &ServerError) -> Value {
    let mut o = BTreeMap::new();
    o.insert("id".into(), Value::Num(id as f64));
    match e {
        ServerError::Overloaded { .. } => {
            o.insert("status".into(), Value::Str("overloaded".into()));
        }
        ServerError::Quarantined { hash } => {
            o.insert("status".into(), Value::Str("quarantined".into()));
            o.insert("hash".into(), Value::Str(format!("{hash:016x}")));
        }
        ServerError::Protocol(_) | ServerError::Io(_) => {
            o.insert("status".into(), Value::Str("error".into()));
        }
    }
    o.insert("detail".into(), Value::Str(e.to_string()));
    Value::Obj(o)
}

/// Builds a plain `error` response from a message.
#[must_use]
pub fn failure_response(id: u64, message: &str, supervision: Option<&SupervisionReport>) -> Value {
    let mut o = BTreeMap::new();
    o.insert("id".into(), Value::Num(id as f64));
    o.insert("status".into(), Value::Str("error".into()));
    o.insert("detail".into(), Value::Str(message.into()));
    if let Some(s) = supervision {
        o.insert("supervision".into(), s.to_value());
    }
    Value::Obj(o)
}

/// Builds the `quarantined` response for a freshly quarantined job.
#[must_use]
pub fn quarantined_response(
    id: u64,
    hash: u64,
    detail: &str,
    supervision: &SupervisionReport,
) -> Value {
    let mut o = BTreeMap::new();
    o.insert("id".into(), Value::Num(id as f64));
    o.insert("status".into(), Value::Str("quarantined".into()));
    o.insert("hash".into(), Value::Str(format!("{hash:016x}")));
    o.insert("detail".into(), Value::Str(detail.into()));
    o.insert("supervision".into(), supervision.to_value());
    Value::Obj(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = json::parse(r#"{"op":"ping","id":7}"#).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let mut r = &buf[..];
        let back = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(back, v);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let e = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(e, ServerError::Protocol(_)));
    }

    #[test]
    fn request_parsing_accepts_all_ops_and_rejects_bad_fields() {
        let ping = json::parse(r#"{"op":"ping","id":1}"#).unwrap();
        assert!(matches!(parse_request(&ping), Ok(Request::Ping { id: 1 })));
        let bad = json::parse(r#"{"op":"warp","id":1}"#).unwrap();
        assert!(parse_request(&bad).is_err());
        let no_id = json::parse(r#"{"op":"ping"}"#).unwrap();
        assert!(parse_request(&no_id).is_err());
        let opt = json::parse(
            r#"{"op":"optimize","id":3,"deadline_ms":500,
                "budget":{"max_omega_ops":1000},
                "fault":{"kind":"stall","ms":20},
                "spec":{"size":8,"tile":2,"smart_startup":false,
                        "parallel_cap":null,"param_delta":0,
                        "stages":[{"kind":"point","src":0,"liveout":true}]}}"#,
        )
        .unwrap();
        match parse_request(&opt).unwrap() {
            Request::Optimize(r) => {
                assert_eq!(r.id, 3);
                assert_eq!(r.deadline_ms, Some(500));
                assert_eq!(r.budget.as_ref().unwrap().max_omega_ops, Some(1000));
                assert_eq!(r.fault, FaultInjection::WorkerStall { ms: 20 });
                assert_eq!(r.spec.stages.len(), 1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    /// Old clients and on-disk quarantine artifacts may still carry the
    /// retired interner and precision caps; the keys are ignored, not
    /// rejected.
    #[test]
    fn retired_budget_keys_are_ignored() {
        let frame = |budget: &str| {
            let text = format!(
                r#"{{"op":"optimize","id":4,"budget":{budget},
                    "spec":{{"size":8,"tile":2,"smart_startup":false,
                             "parallel_cap":null,"param_delta":0,
                             "stages":[{{"kind":"point","src":0,"liveout":true}}]}}}}"#
            );
            match parse_request(&json::parse(&text).unwrap()).unwrap() {
                Request::Optimize(r) => r.budget,
                other => panic!("wrong parse: {other:?}"),
            }
        };
        let old = frame(
            r#"{"max_omega_ops":1000,"max_disjuncts":6,"max_branches_per_call":1,
                "max_interned_rows":256}"#,
        );
        let new = frame(r#"{"max_omega_ops":1000}"#);
        assert_eq!(old, new);
        assert_eq!(
            old,
            Some(Budget {
                deadline_ms: None,
                max_omega_ops: Some(1000),
            })
        );
    }

    #[test]
    fn affordability_admits_every_generated_spec_and_bounds_every_buffer() {
        let parse = |spec: &ProgramSpec| {
            let text = format!(
                r#"{{"op":"optimize","id":5,"spec":{}}}"#,
                tilefuse_fuzzgen::spec_to_json(spec)
            );
            parse_request(&json::parse(&text).unwrap())
        };
        for seed in 0..500 {
            let spec = tilefuse_fuzzgen::random_spec(&mut tilefuse_fuzzgen::Rng::new(seed));
            assert!(parse(&spec).is_ok(), "seed {seed}: {spec:?}");
        }
        let mut spec = tilefuse_fuzzgen::random_spec(&mut tilefuse_fuzzgen::Rng::new(1));
        (spec.size, spec.param_delta) = (MAX_EXTENT, 0);
        assert!(parse(&spec).is_ok());
        spec.param_delta = 1;
        assert!(matches!(parse(&spec), Err(ServerError::Protocol(_))));
        spec.param_delta = 0;
        // Each shift by -1 grows the buffers by one row: the bound is on
        // what is allocated, not only on `size`.
        spec.stages = vec![
            tilefuse_fuzzgen::StageSpec {
                kind: StageKind::Shift { dh: -1, dw: 0 },
                src: 0,
                liveout: true,
            };
            1
        ];
        assert!(matches!(parse(&spec), Err(ServerError::Protocol(_))));
        spec.size = 8;
        assert!(parse(&spec).is_ok());
        spec.param_delta = -1;
        assert!(matches!(parse(&spec), Err(ServerError::Protocol(_))));
    }

    #[test]
    fn supervision_report_round_trips() {
        let report = SupervisionReport {
            attempts: vec![
                AttemptRecord {
                    attempt: 0,
                    min_rung: 1,
                    elapsed_ms: 12.5,
                    outcome: AttemptOutcome::Panicked {
                        phase: "algo1/extension".into(),
                        message: "index out of bounds".into(),
                    },
                },
                AttemptRecord {
                    attempt: 1,
                    min_rung: 4,
                    elapsed_ms: 3.25,
                    outcome: AttemptOutcome::Ok { rung: 4 },
                },
            ],
            retries: 1,
            quarantined: false,
            cache: CacheOutcome::Miss,
            elapsed_ms: 30.0,
        };
        let v = report.to_value();
        let text = v.render();
        let back = SupervisionReport::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn responses_are_typed() {
        let e = ServerError::Overloaded {
            reason: "queue full".into(),
        };
        let v = error_response(9, &e);
        assert_eq!(v.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("id").unwrap().as_num(), Some(9.0));
        let q = error_response(9, &ServerError::Quarantined { hash: 0xabc });
        assert_eq!(q.get("status").unwrap().as_str(), Some("quarantined"));
        assert_eq!(q.get("hash").unwrap().as_str(), Some("0000000000000abc"));
    }
}
