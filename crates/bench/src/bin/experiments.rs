//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p tilefuse-bench --bin experiments            # print all
//! cargo run --release -p tilefuse-bench --bin experiments table1    # one artifact
//! cargo run --release -p tilefuse-bench --bin experiments all --trace out.json
//! ```
//! Artifacts: table1, table1-compile, fig8, fig9, table2, fig10,
//! table3, table3-compile, ablation, all.
//!
//! Independent artifacts are generated concurrently on a bounded worker
//! pool (`TILEFUSE_JOBS` workers, default: the machine's parallelism);
//! output is printed in the fixed artifact order regardless of which
//! worker finished first. A machine-readable summary — per-artifact and
//! total wall-clock plus presburger cache-hit counters — is written to
//! `BENCH_experiments.json` in the current directory.
//!
//! With `--trace FILE` the structured tracer is enabled for the run: a
//! Chrome-trace JSON (load it at `chrome://tracing` or in Perfetto) is
//! written to FILE and a plain-text phase table — per-span call counts,
//! total/self time, and per-span presburger cache hit/miss counters — is
//! printed to stderr after the artifacts.
//!
//! `--deadline-ms N` installs a resource budget for every `optimize`
//! call in the run (see DESIGN.md §10): the optimizer degrades through
//! its ladder instead of blowing the limit, and the JSON summary gains a
//! `"degradation"` section recording the rung and trip counts per
//! workload.
//!
//! `--backend vm` additionally *executes* every PolyMage workload on both
//! execution backends — the reference interpreter and the register-based
//! bytecode VM — at a small real image size, prints the measured
//! comparison, verifies the VM bit-exact against the interpreter, and
//! records the timings in a `"backends"` section of the JSON summary.
//! Any bit mismatch fails the run. (`--backend interp`, the default,
//! skips the comparison.)

use std::time::Instant;

use tilefuse_bench::backends::{backend_table, compare_backends, BackendRow, BACKEND_IMG};
use tilefuse_bench::par::{effective_jobs, par_map};
use tilefuse_bench::tables::{self, ResultTable};
use tilefuse_bench::versions::{self, summaries, BoxError, TargetKind, Version};
use tilefuse_memsim::{cpu_time, CpuModel};
use tilefuse_presburger::stats;
use tilefuse_workloads::polymage::harris;

type Generator = fn() -> Result<Vec<ResultTable>, BoxError>;

const ARTIFACTS: &[(&str, Generator)] = &[
    ("table1", || tables::table1_exec().map(|t| vec![t])),
    ("table1-compile", || {
        tables::table1_compile(2000).map(|t| vec![t])
    }),
    ("fig8", tables::fig8),
    ("fig9", || tables::fig9().map(|t| vec![t])),
    ("table2", tables::table2),
    ("fig10", || tables::fig10().map(|t| vec![t])),
    ("table3", || tables::table3().map(|t| vec![t])),
    ("table3-compile", || {
        tables::table3_compile().map(|t| vec![t])
    }),
    ("ablation", ablation),
];

/// What each design choice buys on Harris: no fusion (minfuse), fusion
/// with the loose PolyMage-style overlap, and the paper's tight per-stage
/// footprints — isolating the contribution of exact upwards-exposed-data
/// footprints.
fn ablation() -> Result<Vec<ResultTable>, BoxError> {
    let w = harris(128, 128)?;
    let model = CpuModel::xeon_e5_2683_v4();
    let mut rows = Vec::new();
    for v in [Version::MinFuse, Version::PolyMage, Version::Ours] {
        let t = cpu_time(&model, &summaries(&w, v, TargetKind::Cpu)?)?;
        rows.push((v.label().to_string(), vec![format!("{:.3}", t.total * 1e3)]));
    }
    Ok(vec![ResultTable {
        title: "Ablation — Harris, modeled CPU time (ms, 32 threads)".into(),
        columns: vec!["time".into()],
        rows,
    }])
}

/// `experiments all` must keep the `is_empty` memo effective: the 26%
/// hit-rate pathology (Rule 2 intersecting *projected* extension ranges,
/// which splinter into per-tile disjuncts and Omega-test the full cross
/// product as ~1M distinct systems) must not come back.
const MIN_IS_EMPTY_HIT_RATE: f64 = 0.60;

struct Outcome {
    name: &'static str,
    seconds: f64,
    result: Result<Vec<ResultTable>, BoxError>,
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [ARTIFACT] [--trace FILE] [--deadline-ms N] \
         [--backend interp|vm]"
    );
    eprintln!("artifacts:");
    for (name, _) in ARTIFACTS {
        eprintln!("  {name}");
    }
    eprintln!("  all");
    std::process::exit(2);
}

fn main() {
    let mut which = None;
    let mut trace_path: Option<String> = None;
    let mut backend_vm = false;
    let mut budget = tilefuse_trace::Budget::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            match args.next() {
                Some(p) => trace_path = Some(p),
                None => usage(),
            }
        } else if a == "--deadline-ms" {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget.deadline_ms = Some(ms),
                None => usage(),
            }
        } else if a == "--backend" {
            match args.next().as_deref() {
                Some("vm") => backend_vm = true,
                Some("interp") => backend_vm = false,
                _ => usage(),
            }
        } else if which.is_none() {
            which = Some(a);
        } else {
            usage();
        }
    }
    if !budget.is_unlimited() {
        eprintln!("resource budget: {budget:?}");
        versions::set_budget(budget);
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let selected: Vec<(&'static str, Generator)> = ARTIFACTS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .copied()
        .collect();
    if selected.is_empty() {
        eprintln!("unknown artifact {which:?}");
        usage();
    }
    if trace_path.is_some() {
        tilefuse_trace::set_enabled(true);
    }
    let jobs = effective_jobs(None);
    let t0 = Instant::now();
    let outcomes = par_map(selected, jobs, |(name, gen)| {
        let start = Instant::now();
        let result = gen();
        Outcome {
            name,
            seconds: start.elapsed().as_secs_f64(),
            result,
        }
    });
    let total = t0.elapsed().as_secs_f64();

    let mut failures = 0;
    for o in &outcomes {
        match &o.result {
            Ok(ts) => {
                for t in ts {
                    println!("{}", t.to_markdown());
                }
            }
            Err(e) => {
                eprintln!("{} failed: {e}", o.name);
                failures += 1;
            }
        }
    }
    // The measured interp-vs-VM comparison runs after (not inside) the
    // worker pool: its rows are wall-clock timings.
    let mut backend_rows: Vec<BackendRow> = Vec::new();
    if backend_vm {
        match compare_backends(BACKEND_IMG) {
            Ok(rows) => {
                println!("{}", backend_table(&rows).to_markdown());
                for r in &rows {
                    if !r.bit_exact {
                        eprintln!("BACKEND MISMATCH: {} is not bit-exact on the VM", r.name);
                        failures += 1;
                    }
                    if r.fallback_violation() {
                        eprintln!(
                            "BACKEND FALLBACK: {} fell back to the scheduled tree ({}) \
                             and is not in the fallback allowlist",
                            r.name,
                            r.fallback_reason.as_deref().unwrap_or("unknown reason")
                        );
                        failures += 1;
                    }
                }
                backend_rows = rows;
            }
            Err(e) => {
                eprintln!("backend comparison failed: {e}");
                failures += 1;
            }
        }
    }

    let cache = stats::snapshot();
    eprintln!(
        "generated {} artifact(s) in {total:.3}s on {jobs} worker(s)",
        outcomes.len()
    );
    eprintln!("presburger cache stats: {cache}");

    if let Some(path) = &trace_path {
        // SLOT_NAMES includes the silent_feasible counter slot, so the
        // phase table attributes branch-cap feasibility fallbacks to the
        // innermost span that incurred them.
        let slot_names = &stats::SLOT_NAMES[..];
        eprintln!();
        eprintln!(
            "{}",
            tilefuse_trace::phase_table(&tilefuse_trace::snapshot(), slot_names)
        );
        match std::fs::write(path, tilefuse_trace::chrome_trace_json(slot_names)) {
            Ok(()) => eprintln!("wrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                failures += 1;
            }
        }
    }

    let json = render_json(&which, jobs, total, &outcomes, &cache, &backend_rows);
    match std::fs::write("BENCH_experiments.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_experiments.json"),
        Err(e) => eprintln!("could not write BENCH_experiments.json: {e}"),
    }
    if which == "all" {
        let rate = hit_rate(&cache.is_empty);
        if rate < MIN_IS_EMPTY_HIT_RATE {
            eprintln!(
                "REGRESSION: is_empty cache hit rate {:.1}% below the {:.0}% floor \
                 (see presburger::bset::is_empty and the Rule 2 joint-relation \
                 disjointness test in core::optimize)",
                rate * 100.0,
                MIN_IS_EMPTY_HIT_RATE * 100.0
            );
            failures += 1;
        } else {
            eprintln!(
                "is_empty cache hit rate {:.1}% (floor {:.0}%)",
                rate * 100.0,
                MIN_IS_EMPTY_HIT_RATE * 100.0
            );
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn hit_rate(op: &stats::OpStats) -> f64 {
    let total = op.hits + op.misses;
    if total == 0 {
        1.0
    } else {
        op.hits as f64 / total as f64
    }
}

fn render_json(
    which: &str,
    jobs: usize,
    total: f64,
    outcomes: &[Outcome],
    cache: &stats::CacheStats,
    backend_rows: &[BackendRow],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"selection\": \"{which}\",\n"));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    s.push_str("  \"artifacts\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 == outcomes.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"seconds\": {:.3}, \"ok\": {} }}{comma}\n",
            o.name,
            o.seconds,
            o.result.is_ok()
        ));
    }
    s.push_str("  ],\n");
    if !backend_rows.is_empty() {
        s.push_str("  \"backends\": {\n");
        s.push_str("    \"backend\": \"vm\",\n");
        s.push_str(&format!(
            "    \"img\": {BACKEND_IMG},\n    \"workloads\": [\n"
        ));
        for (i, r) in backend_rows.iter().enumerate() {
            let comma = if i + 1 == backend_rows.len() { "" } else { "," };
            let reason = match &r.fallback_reason {
                Some(why) => format!(", \"fallback_reason\": \"{}\"", json_escape(why)),
                None => String::new(),
            };
            s.push_str(&format!(
                "      {{ \"name\": \"{}\", \"tree\": \"{}\"{reason}, \"lower_ms\": {:.3}, \
                 \"interp_ms\": {:.3}, \"vm_ms\": {:.3}, \"speedup\": {:.3}, \
                 \"bit_exact\": {} }}{comma}\n",
                r.name,
                r.tree,
                r.lower_ms,
                r.interp_ms,
                r.vm_ms,
                r.speedup(),
                r.bit_exact
            ));
        }
        s.push_str("    ]\n  },\n");
    }
    s.push_str("  \"presburger_cache\": {\n");
    let ops = [
        ("is_empty", &cache.is_empty),
        ("project", &cache.project),
        ("intersect", &cache.intersect),
        ("apply", &cache.apply),
        ("reverse", &cache.reverse),
    ];
    for (name, op) in &ops {
        s.push_str(&format!(
            "    \"{name}\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n",
            op.hits,
            op.misses,
            hit_rate(op)
        ));
    }
    s.push_str(&format!(
        "    \"silent_feasible\": {}\n",
        cache.silent_feasible
    ));
    s.push_str("  },\n");
    s.push_str("  \"degradation\": {\n");
    let degr = versions::degradations();
    for (i, (name, d)) in degr.iter().enumerate() {
        let comma = if i + 1 == degr.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{name}\": {{ \"rung\": {}, \"trips\": {}, \"silent_feasible\": {}, \
             \"omega_ops\": {}, \"fusion_budget_exhausted\": {} }}{comma}\n",
            d.rung, d.trips, d.silent_feasible, d.omega_ops, d.fusion_budget_exhausted
        ));
    }
    s.push_str("  }\n}\n");
    s
}
