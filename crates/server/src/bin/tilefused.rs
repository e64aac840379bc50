//! `tilefused` — the persistent optimization daemon.
//!
//! ```text
//! tilefused --socket /tmp/tilefused.sock --workers 2 --queue-cap 64 \
//!           --quarantine-dir /tmp/tilefused.quarantine
//! ```
//!
//! Listens on a unix socket for length-prefixed JSON requests (see
//! `tilefuse_server::protocol`), runs optimize jobs on a supervised
//! worker pool, and exits cleanly on a `shutdown` request. Exit status 0
//! means every request was answered and the queue drained.

use std::path::PathBuf;
use std::process::ExitCode;
use tilefuse_server::{Daemon, DaemonConfig};

struct Args {
    config: DaemonConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: tilefused [--socket PATH] [--workers N] [--queue-cap N]\n\
         \x20                [--quarantine-dir PATH] [--cache-cap N]\n\
         \x20                [--default-deadline-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut config = DaemonConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("tilefused: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--socket" => config.socket = PathBuf::from(value("--socket")),
            "--quarantine-dir" => {
                config.quarantine_dir = PathBuf::from(value("--quarantine-dir"));
            }
            "--workers" => config.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-cap" => config.queue_cap = parse_num(&value("--queue-cap"), "--queue-cap"),
            "--cache-cap" => {
                config.cache_capacity = parse_num(&value("--cache-cap"), "--cache-cap");
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms =
                    parse_num::<u64>(&value("--default-deadline-ms"), "--default-deadline-ms");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tilefused: unknown flag '{other}'");
                usage();
            }
        }
    }
    Args { config }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("tilefused: bad value '{s}' for {flag}");
        usage()
    })
}

fn main() -> ExitCode {
    // Worker panics are caught at the optimize boundary and quarantined;
    // the default hook's full backtrace per panic would swamp the log
    // under chaos-soak injection, so log one line instead.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("tilefused: caught panic: {info}");
    }));
    let args = parse_args();
    let socket = args.config.socket.clone();
    eprintln!(
        "tilefused: listening on {} ({} workers, queue cap {})",
        socket.display(),
        args.config.workers,
        args.config.queue_cap
    );
    match Daemon::start(args.config).and_then(Daemon::wait) {
        Ok(()) => {
            eprintln!("tilefused: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tilefused: fatal: {e}");
            ExitCode::FAILURE
        }
    }
}
