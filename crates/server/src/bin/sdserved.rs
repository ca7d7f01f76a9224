//! `sdserved` — the strong-dependency query daemon.
//!
//! ```text
//! sdserved [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!          [--cache-cap N] [--registry-cap N] [--max-timeout-ms N]
//!          [--slow-ms N] [--slowlog-cap N] [--no-metrics]
//!          [--access-log PATH|-] [--telemetry]
//! ```
//!
//! Runs until a client sends `shutdown`, then exits once the queries
//! already admitted have finished. Each connection runs its own
//! queries: `--workers` caps how many run at once (default 4) and
//! `--queue-depth` how many may wait for a slot (default 64); a query
//! beyond both is refused with `overloaded`. `--access-log -` writes the
//! JSON-lines access log to stderr; `--telemetry` streams query
//! telemetry events (compiles, Sat(φ) partition hits/misses, per-query
//! reports)
//! to stderr as JSON lines. Requests slower than `--slow-ms`
//! (default 100) are captured in the in-memory slow-query ring
//! (`slowlog` method; `--slowlog-cap` entries) and appended to the
//! access log stream when one is configured. `--no-metrics` disables
//! all metric recording.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sd_core::JsonLinesSink;
use sd_server::{Config, ServeHandle};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdserved [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--cache-cap N] [--registry-cap N] [--max-timeout-ms N] \
         [--slow-ms N] [--slowlog-cap N] [--no-metrics] \
         [--access-log PATH|-] [--telemetry]\n\
         --workers N       queries that may run at once (default 4)\n\
         --queue-depth N   queries that may wait for a slot (default 64)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        addr: "127.0.0.1:4177".into(),
        ..Config::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--addr" => match take(&mut i) {
                Some(v) => cfg.addr = v,
                None => return usage(),
            },
            "--workers" | "--queue-depth" | "--cache-cap" | "--registry-cap"
            | "--max-timeout-ms" | "--slow-ms" | "--slowlog-cap" => {
                let Some(v) = take(&mut i) else {
                    return usage();
                };
                let Ok(n) = v.parse::<u64>() else {
                    eprintln!("sdserved: {flag} wants an unsigned integer, got `{v}`");
                    return ExitCode::from(2);
                };
                match flag {
                    "--workers" => cfg.workers = n as usize,
                    "--queue-depth" => cfg.queue_depth = n as usize,
                    "--cache-cap" => cfg.cache_cap = n as usize,
                    "--registry-cap" => cfg.registry_cap = n as usize,
                    "--slow-ms" => cfg.slow_ms = n,
                    "--slowlog-cap" => cfg.slowlog_cap = n as usize,
                    _ => cfg.max_timeout = Duration::from_millis(n),
                }
            }
            "--no-metrics" => {
                cfg.metrics = false;
            }
            "--access-log" => {
                let Some(path) = take(&mut i) else {
                    return usage();
                };
                let out: Box<dyn Write + Send> = if path == "-" {
                    Box::new(std::io::stderr())
                } else {
                    match std::fs::File::create(&path) {
                        Ok(f) => Box::new(f),
                        Err(e) => {
                            eprintln!("sdserved: cannot open access log {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                };
                cfg.access_log = Some(out);
            }
            "--telemetry" => {
                cfg.sink = Some(Arc::new(JsonLinesSink::new(std::io::stderr())));
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sdserved: unknown flag `{other}`");
                return usage();
            }
        }
        i += 1;
    }
    let handle = match ServeHandle::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sdserved: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("sdserved listening on {}", handle.local_addr());
    handle.wait();
    println!("sdserved: drained and stopped");
    ExitCode::SUCCESS
}
