//! The benchmark's declaration (`BENCHMARK.json`) and the recorder every
//! workload reports its samples to.
//!
//! `BENCHMARK.json` is the single list of workloads, metric names, units
//! and regression bounds: it is compiled into the binary, a run may only
//! report metrics it declares, and `compare` reads its bounds.

use std::collections::BTreeMap;
use tilefuse::trace::json::{self, Value};

use crate::stats;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Unit of the metrics that must repeat exactly within a run and between
/// runs of one commit (instruction counts, instance counts, DAG sizes).
pub const EXACT_UNIT: &str = "count";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The two kinds of run: end-to-end metrics with tracing off, per-layer
/// metrics from a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    PerLayer,
}

impl Tier {
    pub fn key(self) -> &'static str {
        match self {
            Tier::EndToEnd => "end_to_end",
            Tier::PerLayer => "per_layer",
        }
    }
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Declared {
    pub fn metrics(&self, tier: Tier) -> &[MetricDef] {
        match tier {
            Tier::EndToEnd => &self.end_to_end,
            Tier::PerLayer => &self.per_layer,
        }
    }
}

fn metric_defs(root: &Value, key: &str) -> Vec<MetricDef> {
    let field = |m: &Value, k: &str| -> String {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without '{k}'"))
            .to_string()
    };
    root.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing '{key}'"))
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name"),
            unit: field(m, "unit"),
            better: match field(m, "better").as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better = '{other}'"),
            },
            bound: m.get("bound").and_then(Value::as_num),
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`.
///
/// # Panics
/// Panics on a malformed file: that is a defect of this package, caught by
/// the first run.
pub fn declared() -> Declared {
    let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Declared {
        workloads: root
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("BENCHMARK.json: workload name")
                    .to_string()
            })
            .collect(),
        run_seconds: root
            .get("run_seconds")
            .and_then(Value::as_num)
            .expect("BENCHMARK.json: run_seconds"),
        end_to_end: metric_defs(&root, "end_to_end"),
        per_layer: metric_defs(&root, "per_layer"),
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect())
}

/// Samples and the operation tally of one run of one workload.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: BTreeMap<String, Vec<f64>>,
    /// Operations attempted: set-ups, measured repetitions, bit
    /// comparisons, daemon round trips.
    pub attempted: u64,
    /// Operations that errored, produced a result that is not bit-exact,
    /// or — for an exact count — did not repeat.
    pub failed: u64,
    /// One line per failure, printed at the end of the run.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Counts one attempted operation; a `Some(reason)` counts it failed.
    pub fn check(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            self.failures.push(format!("{what}: {reason}"));
        }
    }

    /// Counts one attempted operation, failed with `reason` unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, reason: &str) {
        self.check(what, (!ok).then(|| reason.to_string()));
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Checks the recorded names against the tier's declaration and every
    /// exact count for repetition. An undeclared name, or an end-to-end
    /// metric without samples, is a defect of the harness and fails the
    /// run; a per-layer metric without samples belongs to a layer this
    /// workload bypasses and reads 0.
    pub fn close(&mut self, declared: &[MetricDef], tier: Tier) {
        let undeclared: Vec<String> = self
            .samples
            .keys()
            .filter(|k| !declared.iter().any(|d| &d.name == *k))
            .cloned()
            .collect();
        for name in undeclared {
            self.check(
                "harness",
                Some(format!("metric '{name}' is not in BENCHMARK.json")),
            );
        }
        for d in declared {
            let samples = self.samples.entry(d.name.clone()).or_default();
            let Some(first) = samples.first() else {
                if tier == Tier::EndToEnd {
                    self.check("harness", Some(format!("no sample of '{}'", d.name)));
                }
                continue;
            };
            if d.unit == EXACT_UNIT {
                let reason = samples
                    .iter()
                    .any(|s| s.to_bits() != first.to_bits())
                    .then(|| format!("exact count does not repeat: {samples:?}"));
                self.check(&d.name, reason);
            }
        }
    }

    /// The value a run reports for a metric: the median of its samples.
    pub fn value(&self, name: &str) -> f64 {
        stats::median(self.samples(name))
    }
}
