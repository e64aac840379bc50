//! The `run` subcommand: one workload in this process, or every workload
//! in child processes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tilefuse::trace::json::{self, Value};

use crate::bench::{declared, nums, obj, Declared, MetricDef, Recorder, Tier, EXACT_UNIT};
use crate::spans::Spans;
use crate::{polymage, serve, stats, upwind};

/// Prefix of the line on which a single-workload run hands its samples to
/// the parent process; the line after it is the driver's result line.
const SAMPLES_PREFIX: &str = "samples ";

/// Parsed `run` arguments.
#[derive(Debug)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    runs: u32,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: traced pass
    /// only; `None`: both (all-workload mode) or end-to-end (one workload).
    trace: Option<bool>,
    out: PathBuf,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: None,
            runs: 1,
            trace: None,
            out: PathBuf::from("perf/out"),
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            if flag == "--trace" {
                // `--trace` alone asks for the traced pass; the driver
                // passes `--trace 0` or `--trace 1`.
                a.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
            match flag.as_str() {
                "--workload" => a.workload = Some(value.clone()),
                "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("between 0 and 600"));
                    }
                    a.seconds = Some(s);
                }
                "--runs" => {
                    a.runs = value.parse().map_err(|_| bad("a whole number"))?;
                    if a.runs == 0 {
                        return Err(bad("at least 1"));
                    }
                }
                "--out" => a.out = PathBuf::from(value),
                _ => return Err(format!("unknown option '{flag}'")),
            }
        }
        Ok(a)
    }
}

pub fn main(args: &Args) -> ExitCode {
    let decl = declared();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let seconds = args.seconds.unwrap_or(decl.run_seconds);
    match &args.workload {
        Some(name) if !decl.workloads.contains(name) => {
            eprintln!(
                "error: unknown workload '{name}' (known: {})",
                decl.workloads.join(", ")
            );
            ExitCode::from(2)
        }
        Some(name) => {
            let tier = if args.trace == Some(true) {
                Tier::PerLayer
            } else {
                Tier::EndToEnd
            };
            one_workload(&decl, name, tier, args.seed, seconds, &args.out)
        }
        None => all_workloads(&decl, args, seconds),
    }
}

// ---- one workload, in this process ----------------------------------------

/// Runs `f` as the workload's set-up and records how long it took. The
/// end-to-end pass sets up several times — the median is the metric — and
/// keeps the last result; the traced pass sets up once.
fn set_up<T>(
    rec: &mut Recorder,
    tier: Tier,
    mut f: impl FnMut(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    let mut last;
    let mut reps = 0;
    loop {
        let start = Instant::now();
        last = f(rec)?;
        let took = start.elapsed().as_secs_f64();
        if tier == Tier::PerLayer {
            return Ok(last);
        }
        rec.sample("setup_s", took);
        rec.check("set-up", None);
        reps += 1;
        // Five repetitions of a cheap set-up, three of a dear one.
        if reps >= 5 || (reps >= 3 && took >= 0.3) {
            return Ok(last);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn measure(
    name: &str,
    tier: Tier,
    seed: u64,
    seconds: f64,
    out: &Path,
    rec: &mut Recorder,
    spans: &mut Spans,
) -> Result<(), String> {
    match name {
        "upwind_512" => {
            let mut setup = set_up(rec, tier, upwind::setup)?;
            match tier {
                Tier::EndToEnd => upwind::e2e_pass(&setup, seconds, rec),
                Tier::PerLayer => upwind::layer_pass(&mut setup, rec, spans)?,
            }
        }
        "serve_mix" => {
            let setup = set_up(rec, tier, |_| serve::setup(seed))?;
            match tier {
                Tier::EndToEnd => serve::e2e_pass(&setup, seconds, out, rec),
                Tier::PerLayer => serve::layer_pass(&setup, out, rec, spans)?,
            }
        }
        _ => {
            let mut setup = set_up(rec, tier, |rec| polymage::setup(name, rec))?;
            match tier {
                Tier::EndToEnd => polymage::e2e_pass(&setup, seconds, rec),
                Tier::PerLayer => polymage::layer_pass(&mut setup, rec, spans)?,
            }
        }
    }
    Ok(())
}

fn metric_row(d: &MetricDef, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("  {:<34} {:>8}  (layer bypassed: reads 0)", d.name, d.unit);
    }
    let (q1, med, q3) = stats::quartiles(samples);
    format!(
        "  {:<34} {:>8}  median {:>14.4}  q1 {:>14.4}  q3 {:>14.4}  n {:>4}",
        d.name,
        d.unit,
        med,
        q1,
        q3,
        samples.len()
    )
}

/// Writes the harness's spans and the program's own spans of the traced
/// pass as one Chrome-trace file: the tracer's document with our events
/// spliced in at the head of its `traceEvents` array. (Spliced as text:
/// `tilefuse_trace::json::parse` re-validates the rest of the document at
/// every string character, which takes half a minute on a 2 MB trace.)
fn write_trace(out: &Path, workload: &str, spans: &Spans) -> Result<PathBuf, String> {
    const ARRAY_OPEN: &str = "\"traceEvents\": [";
    let mut doc = tilefuse::trace::chrome_trace_json(&tilefuse::presburger::stats::SLOT_NAMES);
    let at = doc
        .find(ARRAY_OPEN)
        .ok_or("tracer output has no traceEvents")?
        + ARRAY_OPEN.len();
    let program_has_events = !doc[at..].trim_start().starts_with(']');
    let mut ours: Vec<String> = spans
        .chrome_events(workload)
        .iter()
        .map(|e| format!("\n    {}", e.render()))
        .collect();
    if program_has_events && !ours.is_empty() {
        ours.push(String::new());
    }
    doc.insert_str(at, &ours.join(","));
    let path = out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn one_workload(
    decl: &Declared,
    name: &str,
    tier: Tier,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> ExitCode {
    // Pin the program tracer's epoch next to ours, so that both sets of
    // spans share a time axis in the trace file.
    tilefuse::trace::set_enabled(true);
    tilefuse::trace::set_enabled(false);
    tilefuse::trace::reset();
    let mut spans = Spans::new(tier == Tier::PerLayer, Instant::now(), 0);
    let mut rec = Recorder::default();

    if let Err(e) = measure(name, tier, seed, seconds, out, &mut rec, &mut spans) {
        rec.check(name, Some(e));
    }
    if tier == Tier::EndToEnd {
        match peak_rss_mb() {
            Some(mb) => rec.sample("peak_rss_mb", mb),
            None => rec.check("peak_rss_mb", Some("cannot read VmHWM".to_string())),
        }
    }
    let metrics = decl.metrics(tier);
    rec.close(metrics, tier);

    println!("{name} ({}, seed {seed})", tier.key());
    for d in metrics {
        println!("{}", metric_row(d, rec.samples(&d.name)));
    }
    println!("  attempted {}  failed {}", rec.attempted, rec.failed);
    for f in &rec.failures {
        println!("  FAILED {f}");
    }
    if tier == Tier::PerLayer {
        match write_trace(out, name, &spans) {
            Ok(path) => println!("  trace {}", path.display()),
            Err(e) => eprintln!("warning: trace not written: {e}"),
        }
    }

    let samples = obj(metrics
        .iter()
        .map(|d| (d.name.as_str(), nums(rec.samples(&d.name)))));
    println!("{SAMPLES_PREFIX}{}", samples.render());

    let reported = obj(metrics.iter().map(|d| {
        let m = obj([
            ("value", Value::Num(rec.value(&d.name))),
            ("unit", Value::Str(d.unit.clone())),
        ]);
        (d.name.as_str(), m)
    }));
    let line = obj([
        ("correct", Value::Bool(rec.failed == 0)),
        ("attempted", Value::Num(rec.attempted.max(1) as f64)),
        ("failed", Value::Num(rec.failed as f64)),
        ("metrics", reported),
    ]);
    println!("{}", line.render());

    if rec.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- every workload, one child process per workload and pass --------------

/// What all runs of one workload measured: per metric the samples of every
/// run pooled (for the printed quartiles) and the one value each run
/// reported (what the driver sees, and what `compare` judges).
#[derive(Default)]
struct Pooled {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

fn child(
    name: &str,
    tier: Tier,
    args: &Args,
    seconds: f64,
    pooled: &mut Pooled,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if tier == Tier::PerLayer { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .ok_or_else(|| format!("child printed no result line (exit {})", output.status))?;
    pooled.attempted += result
        .get("attempted")
        .and_then(Value::as_num)
        .unwrap_or(1.0) as u64;
    pooled.failed += result.get("failed").and_then(Value::as_num).unwrap_or(1.0) as u64;
    if let Some(metrics) = result.get("metrics").and_then(Value::as_obj) {
        for (metric, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_num) {
                pooled.values.entry(metric.clone()).or_default().push(v);
            }
        }
    }
    for l in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("FAILED"))
    {
        eprintln!("  {name}: {}", l.trim());
    }
    let samples = lines
        .next()
        .and_then(|l| l.strip_prefix(SAMPLES_PREFIX))
        .and_then(|l| json::parse(l).ok())
        .ok_or("child printed no samples line")?;
    for (metric, values) in samples.as_obj().ok_or("samples line is not an object")? {
        pooled.samples.entry(metric.clone()).or_default().extend(
            values
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_num),
        );
    }
    if !output.status.success() && pooled.failed == 0 {
        pooled.failed += 1;
    }
    Ok(())
}

fn metric_json(d: &MetricDef, samples: &[f64], values: &[f64]) -> Value {
    let (q1, med, q3) = stats::quartiles(samples);
    obj([
        ("unit", Value::Str(d.unit.clone())),
        ("median", Value::Num(med)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("n", Value::Num(samples.len() as f64)),
        ("samples", nums(samples)),
        ("runs", nums(values)),
    ])
}

fn all_workloads(decl: &Declared, args: &Args, seconds: f64) -> ExitCode {
    let tiers: &[Tier] = match args.trace {
        None => &[Tier::EndToEnd, Tier::PerLayer],
        Some(false) => &[Tier::EndToEnd],
        Some(true) => &[Tier::PerLayer],
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut failed_any = false;
    let mut workloads = BTreeMap::new();
    for name in &decl.workloads {
        let mut pooled = Pooled::default();
        for run in 1..=args.runs {
            for &tier in tiers {
                let start = Instant::now();
                eprint!("{name} {} run {run}/{} ... ", tier.key(), args.runs);
                match child(name, tier, args, seconds, &mut pooled) {
                    Ok(()) => eprintln!("{:.1} s", start.elapsed().as_secs_f64()),
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        pooled.failed += 1;
                        pooled.attempted += 1;
                    }
                }
            }
        }

        println!(
            "{name}: attempted {}  failed {}  failed_share {}",
            pooled.attempted,
            pooled.failed,
            pooled.failed as f64 / pooled.attempted.max(1) as f64
        );
        let mut entry = BTreeMap::new();
        for &tier in tiers {
            let mut section = BTreeMap::new();
            for d in decl.metrics(tier) {
                let samples = pooled.samples.get(&d.name).map_or(&[][..], Vec::as_slice);
                println!("{}", metric_row(d, samples));
                if d.unit == EXACT_UNIT && samples.windows(2).any(|w| w[0] != w[1]) {
                    println!("  FAILED {}: exact count differs between runs", d.name);
                    pooled.failed += 1;
                }
                let values = pooled.values.get(&d.name).map_or(&[][..], Vec::as_slice);
                section.insert(d.name.clone(), metric_json(d, samples, values));
            }
            entry.insert(tier.key().to_string(), Value::Obj(section));
        }
        entry.insert("attempted".to_string(), Value::Num(pooled.attempted as f64));
        entry.insert("failed".to_string(), Value::Num(pooled.failed as f64));
        failed_any |= pooled.failed > 0;
        workloads.insert(name.clone(), Value::Obj(entry));
    }

    let root = obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(f64::from(args.runs))),
        ("available_parallelism", Value::Num(threads as f64)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = args.out.join("result.json");
    if let Err(e) = std::fs::write(&path, root.render()) {
        eprintln!("error: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if failed_any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
