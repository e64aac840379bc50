//! The `compare` subcommand: two `result.json` files, one row per workload
//! and end-to-end metric, judged against the bounds of `BENCHMARK.json`.

use std::process::ExitCode;
use tilefuse::trace::json::{self, Value};

use crate::bench::{declared, Better, MetricDef, Tier, EXACT_UNIT};
use crate::stats;

/// How B stands against its base A on one metric of one workload.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn judge(d: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = d.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = B is worse, as a share of the base median.
    let worse_by = match d.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_beats_every_a = match d.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if stats::spread(a).max(stats::spread(b)) > bound {
        if b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values the runs of `file` reported for a metric, one per run — what
/// the driver compares. (The pooled in-run samples spread wider than the
/// run medians do.)
fn run_values(file: &Value, workload: &str, tier: Tier, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(tier.key()))
        .and_then(|t| t.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Value::as_arr)
        .map(|s| s.iter().filter_map(Value::as_num).collect())
        .unwrap_or_default()
}

fn failed_share(file: &Value, workload: &str) -> f64 {
    let field = |k: &str| {
        file.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(k))
            .and_then(Value::as_num)
            .unwrap_or(0.0)
    };
    field("failed") / field("attempted").max(1.0)
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let decl = declared();
    let mut bad = false;
    println!("base A = {path_a}\n     B = {path_b}");
    println!(
        "{:<18} {:<22} {:>6} {:>36} {:>36} {:>9}  verdict",
        "workload", "metric", "unit", "A median [q1, q3] runs", "B median [q1, q3] runs", "B/A"
    );
    for w in &decl.workloads {
        for d in &decl.end_to_end {
            let (sa, sb) = (
                run_values(&a, w, Tier::EndToEnd, &d.name),
                run_values(&b, w, Tier::EndToEnd, &d.name),
            );
            if sa.is_empty() || sb.is_empty() {
                println!(
                    "{w:<18} {:<22} missing in {}",
                    d.name,
                    if sa.is_empty() { "A" } else { "B" }
                );
                bad = true;
                continue;
            }
            let cell = |s: &[f64]| {
                let (q1, med, q3) = stats::quartiles(s);
                format!("{med:.4} [{q1:.4}, {q3:.4}] {}", s.len())
            };
            let verdict = judge(d, &sa, &sb);
            println!(
                "{w:<18} {:<22} {:>6} {:>36} {:>36} {:>9.4}  {}",
                d.name,
                d.unit,
                cell(&sa),
                cell(&sb),
                stats::median(&sb) / stats::median(&sa),
                verdict.label()
            );
            bad |= verdict == Verdict::Worse;
        }
        let (fa, fb) = (failed_share(&a, w), failed_share(&b, w));
        println!(
            "{w:<18} {:<22} {:>6} {fa:>36} {fb:>36} {:>9}  {}",
            "failed_share",
            "share",
            "",
            if fb > fa { "worse" } else { "within-bound" }
        );
        bad |= fb > fa;

        // Exact counts have no noise: any difference is a real change of
        // the program, reported but not judged.
        for d in decl.per_layer.iter().filter(|d| d.unit == EXACT_UNIT) {
            let (sa, sb) = (
                run_values(&a, w, Tier::PerLayer, &d.name),
                run_values(&b, w, Tier::PerLayer, &d.name),
            );
            if let (Some(x), Some(y)) = (sa.first(), sb.first()) {
                if x != y {
                    println!(
                        "{w:<18} {:<22} {:>6} {x:>36} {y:>36} {:>9}  differs",
                        d.name, d.unit, ""
                    );
                }
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
