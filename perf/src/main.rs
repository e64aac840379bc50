//! `tilefuse-perf`: the repository's one benchmark. See `README.md`.
//!
//! ```text
//! tilefuse-perf run [--seed N] [--seconds S] [--runs N] [--trace [0|1]] [--out DIR]
//! tilefuse-perf run --workload NAME --seed N --seconds S --trace 0|1
//! tilefuse-perf compare A.json B.json
//! ```
//!
//! Without `--workload`, `run` starts one child process per workload and
//! pass (so `peak_rss_mb` is per workload), prints every metric and writes
//! `result.json`. With it, `run` measures that workload in this process
//! and ends its output with the one-line result the driver reads.

mod bench;
mod compare;
mod native;
mod pipeline;
mod polymage;
mod run;
mod serve;
mod spans;
mod stats;
mod upwind;

use std::process::ExitCode;
use std::time::Instant;

/// Rounds every end-to-end pass measures at least, whatever `--seconds`.
const MIN_ROUNDS: u32 = 3;

/// Whether an end-to-end pass that began at `start` should measure another
/// round.
fn time_left(start: Instant, seconds: f64, rounds: u32) -> bool {
    rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tilefuse-perf run [--workload NAME] [--seed N] [--seconds S] [--runs N] \
         [--trace [0|1]] [--out DIR]\n       tilefuse-perf compare A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match run::Args::parse(&args[1..]) {
            Ok(a) => run::main(&a),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        _ => usage(),
    }
}
