//! `sdbench` — the end-to-end and per-layer benchmark for `sdserved`.
//!
//! ```text
//! sdbench --server PATH --workload warm-hits|cold-search|cli-sessions
//!         --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives a real `sdserved` child process over loopback TCP with one
//! closed-loop client per core (at most two). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! separate traced run (see `trace.rs`). Every answer is checked. The
//! last stdout line is the JSON result; `README.md` documents the rest.

mod check;
mod daemon;
mod drive;
mod rng;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sd_server::{Client, Json, Phase};

use crate::daemon::Daemon;
use crate::drive::{drive, Drive};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{replay, Tracer};
use crate::workload::{Plan, Workload, PASSES};

/// Set-ups per pass: `setup_s` is the median over all of them, and the
/// last one's server is measured.
const SETUPS_PER_PASS: u64 = 3;
/// `/proc/stat` counts in USER_HZ ticks.
const TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has stolen from the (virtual) machine so far, in
/// ticks (0 where the kernel does not report it). Printed per pass, so
/// a slow pass can be told apart from a slow program.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let workload = get("workload")?;
    let args = Args {
        server: PathBuf::from(get("server")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
        },
    };
    Ok(args)
}

/// The revision of the checkout, if it is a git work tree of its own.
fn git_rev() -> String {
    let here = std::env::current_dir().ok();
    let out = Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .env(
            "GIT_CEILING_DIRECTORIES",
            here.as_ref()
                .and_then(|d| d.parent())
                .unwrap_or(Path::new("/")),
        )
        .stderr(Stdio::null())
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).to_string();
            text.lines().nth(1).unwrap_or("unknown").to_string()
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut j = sd_core::JsonBuf::new();
    j.str_elem(s);
    j.finish()
}

/// One set-up: start the server, register the workload's systems and
/// fill the result cache where the workload calls for it. Returns the
/// server, the warm-up answers by query index, and the seconds taken.
fn setup(plan: &Plan, server: &Path) -> Result<(Daemon, Vec<Option<String>>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(server, &plan.server_flags())?;
    let mut c = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for &i in &plan.preload {
        let key = c
            .register(plan.systems[i].clone())
            .map_err(|e| format!("register: {e}"))?;
        if key != plan.systems[i].content_key() {
            return Err(format!("registry key {key} differs from the content key"));
        }
    }
    let mut answers = vec![None; plan.queries.len()];
    for &i in &plan.warm {
        let resp = c
            .query(plan.queries[i].clone())
            .map_err(|e| format!("warm-up query: {e}"))?;
        answers[i] = resp.answer_raw;
    }
    drop(c);
    Ok((daemon, answers, t.elapsed().as_secs_f64()))
}

/// Measured values by metric name, with units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn report_failures(attempted: u64, ok: u64, failures: &BTreeMap<&'static str, u64>) {
    let kinds: Vec<String> = failures
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    println!(
        "# requests {{\"attempted\": {attempted}, \"ok\": {ok}, \"failed\": {}, \"failed_by_kind\": {{{}}}}}",
        attempted - ok,
        kinds.join(", ")
    );
}

/// One-shot reference answers for the queries in `wanted`, computed on
/// up to two threads outside every timed interval.
fn reference_answers(plan: &Plan, wanted: &[usize]) -> Result<Vec<Option<String>>, String> {
    let systems = plan
        .systems
        .iter()
        .map(|d| Ok((d.content_key(), check::build_system(d)?)))
        .collect::<Result<HashMap<u64, sd_core::System>, String>>()?;
    let chunk = wanted.len().div_ceil(plan.clients.len()).max(1);
    let parts: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = wanted
            .chunks(chunk)
            .map(|part| {
                let systems = &systems;
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let req = &plan.queries[i];
                            Ok((i, check::reference_answer(&systems[&req.system], req)?))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .collect()
    });
    let mut out = vec![None; plan.queries.len()];
    for part in parts {
        for (i, answer) in part? {
            out[i] = Some(answer);
        }
    }
    Ok(out)
}

/// Queries some client of `run` answered differently from `canon`.
fn wrong_answers(run: &Drive, canon: &[Option<String>]) -> HashSet<usize> {
    run.logs
        .iter()
        .flat_map(|l| l.first.iter().enumerate())
        .filter(|(i, a)| a.is_some() && *a != &canon[*i])
        .map(|(i, _)| i)
        .collect()
}

fn end_to_end(args: &Args, plan: &Plan, nproc: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut warm_answers: Option<Vec<Option<String>>> = None;
    let mut setup_mismatch = false;
    let mut passes = Vec::new();
    for _ in 0..PASSES {
        let mut kept = None;
        for _ in 0..SETUPS_PER_PASS {
            if let Some((old, _)) = kept.take() {
                Daemon::stop(old)?;
            }
            let (daemon, expected, secs) = setup(plan, &args.server)?;
            setup_s.push(secs);
            match &warm_answers {
                Some(first) => setup_mismatch |= *first != expected,
                None => warm_answers = Some(expected.clone()),
            }
            kept = Some((daemon, expected));
        }
        let (daemon, expected) = kept.expect("at least one set-up per pass");
        let until = plan.pass_time.map(|t| Instant::now() + t);
        let stolen = steal_ticks();
        let run = drive(plan, daemon.addr, &expected, until, false);
        let steal = (steal_ticks() - stolen) as f64
            / TICKS_PER_S
            / (run.elapsed.as_secs_f64() * nproc as f64);
        let rss = daemon.peak_rss_mb()?;
        daemon.stop()?;
        passes.push((run, rss, steal));
    }
    // The answer every reply must equal: a one-shot reference run for
    // cold-search, elsewhere the first answer the run received.
    let first_served = |i: usize| {
        passes
            .iter()
            .flat_map(|(run, _, _)| &run.logs)
            .find_map(|l| l.first[i].clone())
    };
    let canon = match plan.workload {
        Workload::ColdSearch => {
            let served: Vec<usize> = (0..plan.queries.len())
                .filter(|&i| first_served(i).is_some())
                .collect();
            reference_answers(plan, &served)?
        }
        _ => (0..plan.queries.len()).map(first_served).collect(),
    };
    let (mut attempted, mut ok, mut off_path) = (0, 0, 0);
    let mut failures: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut qps, mut p50, mut p99, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (k, (run, peak, steal)) in passes.iter_mut().enumerate() {
        run.fail_wrong(&wrong_answers(run, &canon));
        let lat = run.latencies_ms();
        let pass_qps = run.ok() as f64 / run.elapsed.as_secs_f64();
        let (pass_p50, pass_p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
        qps.push(pass_qps);
        p50.push(pass_p50);
        p99.push(pass_p99);
        rss.push(*peak);
        println!(
            "# pass {k}: {} requests ({} beyond p99), {pass_qps:.1} q/s, p50 {pass_p50:.4} ms, p99 {pass_p99:.4} ms, \
             peak rss {peak:.1} MiB, steal {:.1}%",
            lat.len(),
            lat.len() - (0.99 * lat.len() as f64).ceil() as usize,
            *steal * 100.0,
        );
        attempted += run.attempted();
        ok += run.ok();
        off_path += run.logs.iter().map(|l| l.off_path).sum::<u64>();
        for (kind, n) in run.failures() {
            *failures.entry(kind).or_default() += n;
        }
    }
    report_failures(attempted, ok, &failures);
    let mismatches = failures.get("mismatch").copied().unwrap_or(0);
    println!(
        "# checks {{\"compared_against\": \"{}\", \"mismatches\": {mismatches}, \"setup_answers_agree\": {}, \"cache_path_violations\": {off_path}}}",
        if plan.workload == Workload::ColdSearch { "one-shot Query::run_on reference" } else { "first answer of the run" },
        !setup_mismatch
    );
    println!("# error_rate {}", ratio(attempted - ok, attempted));
    let mut m = Metrics::default();
    m.put("throughput_qps", median(&qps), "1/s");
    m.put("latency_p50_ms", median(&p50), "ms");
    m.put("latency_p99_ms", median(&p99), "ms");
    m.put("ok_ratio", ratio(ok, attempted), "ratio");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mb", median(&rss), "MiB");
    Ok(Outcome {
        correct: mismatches == 0 && !setup_mismatch,
        attempted,
        failed: attempted - ok,
        metrics: m,
    })
}

/// Request counts, server-side durations and phase sums for the query
/// and register methods, from one `metrics` scrape.
#[derive(Default)]
struct Scrape {
    requests: u64,
    ok_count: u64,
    ok_sum_ns: u64,
    phase_ns: [u64; Phase::ALL.len()],
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    let m = Client::connect(addr)
        .map_err(|e| e.to_string())?
        .metrics()
        .map_err(|e| e.to_string())?;
    let mut s = Scrape::default();
    let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    for method in ["register", "depends", "sinks", "sinks_matrix"] {
        if let Some(outcomes) = m
            .get("requests")
            .and_then(|r| r.get(method))
            .and_then(Json::as_obj)
        {
            s.requests += outcomes.iter().map(|(_, n)| num(Some(n))).sum::<u64>();
        }
        for temp in ["cold", "warm"] {
            let d = m
                .get("durations")
                .and_then(|d| d.get(method))
                .and_then(|d| d.get(temp));
            s.ok_count += num(d.and_then(|d| d.get("count")));
            s.ok_sum_ns += num(d.and_then(|d| d.get("sum_ns")));
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            s.phase_ns[i] += num(m
                .get("phase_ns")
                .and_then(|x| x.get(method))
                .and_then(|x| x.get(p.as_str())));
        }
    }
    Ok(s)
}

fn traced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let (daemon, expected, _) = setup(plan, &args.server)?;
    let before = scrape(daemon.addr)?;
    let until = plan.pass_time.map(|t| Instant::now() + t);
    let mut run = drive(plan, daemon.addr, &expected, until, true);
    let after = scrape(daemon.addr)?;
    daemon.stop()?;

    // Untraced first, then traced: the same requests, fresh layers.
    let plain = replay(plan, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let rep = replay(plan, &mut tracer)?;
    let deterministic = plain.counts == rep.counts;
    println!(
        "# determinism {{\"same_seed_counts_equal\": {deterministic}, \"counts\": \"{:?}\"}}",
        rep.counts
    );
    let other_seed = Plan::generate(
        plan.workload,
        args.seed.wrapping_add(1),
        args.seconds,
        plan.clients.len(),
    );
    let seed_moves = other_seed.fingerprint() != plan.fingerprint();
    println!("# seed sensitivity {{\"next_seed_changes_sequence\": {seed_moves}}}");
    // Served answers must match the in-process replay byte for byte.
    let wrong = wrong_answers(&run, &rep.answers);
    run.fail_wrong(&wrong);
    report_failures(run.attempted(), run.ok(), &run.failures());
    println!(
        "# checks {{\"served_vs_replay_mismatches\": {}}}",
        wrong.len()
    );

    let spans_path = write_spans(args, &tracer, &run)?;
    println!("# spans written to {}", spans_path.display());

    let dur = tracer.durations();
    let us = |name: &str, q: f64| -> f64 {
        let mut v: Vec<f64> = dur.get(name).map_or(Vec::new(), |v| {
            v.iter().map(|&ns| ns as f64 / 1e3).collect()
        });
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    };
    let total_ms = |name: &str| {
        dur.get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e6)
    };
    let client_lat_us: Vec<f64> = run
        .logs
        .iter()
        .flat_map(|l| &l.lat_ns)
        .map(|&(ns, _)| ns as f64 / 1e3)
        .collect();
    let mut connect_ms: Vec<f64> = run
        .logs
        .iter()
        .flat_map(|l| &l.connect_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    connect_ms.sort_by(f64::total_cmp);
    let e2e_mean_us = mean(&client_lat_us);
    let server_mean_us = ratio(
        after.ok_sum_ns - before.ok_sum_ns,
        after.ok_count - before.ok_count,
    ) / 1e3;
    let window_requests = after.requests - before.requests;
    // The replay's per-request layer time (a request span's children),
    // over the run's own requests.
    let layer_us: Vec<f64> = tracer
        .spans
        .iter()
        .zip(tracer.self_ns())
        .filter(|(s, _)| s.name == "request" && s.req >= rep.first_run_req)
        .map(|(s, own)| (s.end - s.start - own) as f64 / 1e3)
        .collect();
    let layer_mean_us = mean(&layer_us);
    let mut probe: Vec<f64> = rep.get_probe_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    probe.sort_by(f64::total_cmp);

    let mut m = Metrics::default();
    m.put("server.connect_ms.p50", percentile(&connect_ms, 0.5), "ms");
    m.put(
        "server.residual_us.mean",
        e2e_mean_us - server_mean_us,
        "us",
    );
    let phase_names = [
        "server.phase.parse_us",
        "server.phase.cache_us",
        "server.phase.compile_us",
        "server.phase.search_us",
        "server.phase.serialize_us",
        "server.phase.write_us",
    ];
    for (i, name) in phase_names.into_iter().enumerate() {
        let ns = after.phase_ns[i] - before.phase_ns[i];
        m.put(name, ratio(ns, window_requests) / 1e3, "us");
    }
    m.put(
        "proto.parse_frame_us.p50",
        us("proto.parse_frame", 0.5),
        "us",
    );
    m.put("proto.encode_us.p50", us("proto.encode", 0.5), "us");
    m.put(
        "client.parse_response_us.p50",
        us("client.parse_response", 0.5),
        "us",
    );
    m.put("lang.lower_phi_us.p50", us("lang.lower_phi", 0.5), "us");
    m.put("core.fingerprint_us.p50", us("core.fingerprint", 0.5), "us");
    m.put("cache.get_us.p50", us("cache.get", 0.5), "us");
    let c = &rep.counts;
    m.put(
        "cache.hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    m.put("cache.hits", c.cache_hits as f64, "count");
    m.put("cache.misses", c.cache_misses as f64, "count");
    m.put("cache.evictions", rep.evictions as f64, "count");
    m.put(
        "registry.register_fresh_ms.p50",
        us("registry.register_fresh", 0.5) / 1e3,
        "ms",
    );
    m.put(
        "registry.fresh_count",
        c.fresh_registrations as f64,
        "count",
    );
    m.put("registry.get_us.p99", percentile(&probe, 0.99), "us");
    m.put("lang.compile_ms.p50", us("lang.compile", 0.5) / 1e3, "ms");
    m.put("oracle.sat_ms.total", total_ms("oracle.sat"), "ms");
    m.put(
        "oracle.partition_hit_ratio",
        ratio(
            rep.partition_hits,
            rep.partition_hits + rep.partition_misses,
        ),
        "ratio",
    );
    m.put("search.run_ms.p50", us("search.run", 0.5) / 1e3, "ms");
    m.put("search.run_ms.p99", us("search.run", 0.99) / 1e3, "ms");
    m.put(
        "search.ns_per_expansion",
        ratio(rep.search_ns, c.pair_expansions),
        "ns",
    );
    m.put("search.visited_pairs", c.visited_pairs as f64, "count");
    m.put("search.pair_expansions", c.pair_expansions as f64, "count");
    m.put("search.levels", rep.levels as f64, "count");
    m.put(
        "search.memo_hit_ratio",
        ratio(rep.rows_reused, rep.rows_reused + rep.rows_materialized),
        "ratio",
    );
    m.put("metrics.observe_us.p50", us("metrics.observe", 0.5), "us");
    m.put(
        "trace.overhead_pct",
        (rep.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    m.put(
        "trace.unaccounted_share",
        1.0 - layer_mean_us / e2e_mean_us,
        "ratio",
    );
    Ok(Outcome {
        correct: deterministic && seed_moves && wrong.is_empty(),
        attempted: run.attempted(),
        failed: run.attempted() - run.ok(),
        metrics: m,
    })
}

/// Writes the replay's spans (with self times) and the traced drive's
/// client spans as JSON lines under the build directory.
fn write_spans(args: &Args, tracer: &Tracer, run: &Drive) -> Result<PathBuf, String> {
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("sdbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = String::new();
    for (i, (s, self_ns)) in tracer.spans.iter().zip(tracer.self_ns()).enumerate() {
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"source\":\"replay\",\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
            s.req, s.name, s.start, s.end
        );
    }
    for (c, log) in run.logs.iter().enumerate() {
        for (name, start, end) in &log.spans {
            let _ = writeln!(
                out,
                "{{\"source\":\"drive\",\"client\":{c},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            );
        }
    }
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(2);
    let plan = Plan::generate(args.workload, args.seed, args.seconds, clients);
    let command: Vec<String> = std::env::args().map(|a| json_str(&a)).collect();
    println!(
        "# header {{\"command\": [{}], \"workload\": \"{}\", \"seed\": {}, \"git_rev\": {}, \"nproc\": {nproc}, \
         \"clients\": {clients}, \"run_length\": \"{} per pass\", \"passes\": {}, \"setups\": {}, \"trace\": {}, \
         \"server_flags\": \"{}\"}}",
        command.join(", "),
        args.workload.name(),
        args.seed,
        json_str(&git_rev()),
        match plan.pass_time {
            Some(t) => format!("{:.1} s", t.as_secs_f64()),
            None => format!("{} requests", plan.requests_per_pass()),
        },
        if args.trace { 1 } else { PASSES },
        if args.trace { 1 } else { PASSES * SETUPS_PER_PASS },
        args.trace,
        plan.server_flags().join(" "),
    );
    let result = if args.trace {
        traced(&args, &plan)
    } else {
        end_to_end(&args, &plan, nproc)
    };
    match result {
        Ok(o) => {
            for (name, value, unit) in &o.metrics.0 {
                println!("# {:<32} {value:>14.4} {unit}", name);
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.correct,
                o.attempted,
                o.failed,
                o.metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sdbench: {e}");
            ExitCode::FAILURE
        }
    }
}
