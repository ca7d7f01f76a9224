//! Server observability: metric families, per-request phase tracing,
//! and the slow-query ring.
//!
//! Everything here is fed from one place: the request loop times each
//! request's six phases through a [`RequestTrace`] (parse →
//! cache-lookup → registry/compile → search → serialize → write) and
//! hands the finished trace to [`ServerMetrics::observe_request`], which
//! updates the per-method / per-outcome counters, the cold/warm latency
//! histograms, the per-phase time accumulators, and the counters rolled
//! up from the request's [`QueryReport`] (search costs, engine, the
//! `Sat(φ)` partition hit or miss) — and captures a [`SlowEntry`] when
//! the request ran past the configured threshold. The report is the one
//! record of a query's Oracle work, so each fact is counted once; a
//! search that fails (timeout, budget) reports nothing and counts only
//! as a request. A successful registration compiles exactly once, so its
//! compiles are `sd_request_duration_ns_count{method="register",
//! cold="true"}` and their time is inside the `register` `compile`
//! phase. Oracle telemetry events go straight to the `--telemetry` sink.
//!
//! All hot-path state is lock-free ([`sd_core::metrics`]): sharded
//! counters and fixed-bucket log-scale histograms, no floats, no locks
//! on the request path. Quantiles (p50/p90/p95/p99) and gauges
//! (uptime, in-flight, queue depth, query slots) are derived at
//! scrape time by the `metrics` protocol method, which renders either
//! structured JSON or a Prometheus text exposition. The slow-query ring
//! is behind a `Mutex`, but is touched only by requests already slower
//! than the threshold.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

use sd_core::{Counter, Histogram, HistogramSnapshot, JsonBuf, QueryReport};

use crate::cache::CacheStats;
use crate::proto::{put_id, ErrorKind};

/// Protocol methods, as metric label values. `Unknown` covers frames
/// that never parsed far enough to have a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// `ping`.
    Ping,
    /// `register`.
    Register,
    /// `depends`.
    Depends,
    /// `sinks`.
    Sinks,
    /// `sinks_matrix`.
    SinksMatrix,
    /// `metrics`.
    Metrics,
    /// `slowlog`.
    SlowLog,
    /// `shutdown`.
    Shutdown,
    /// Unparsable frame (no method).
    #[default]
    Unknown,
}

/// Number of [`Method`] variants.
pub const METHODS: usize = 9;

impl Method {
    /// Every method, in index order.
    pub const ALL: [Method; METHODS] = [
        Method::Ping,
        Method::Register,
        Method::Depends,
        Method::Sinks,
        Method::SinksMatrix,
        Method::Metrics,
        Method::SlowLog,
        Method::Shutdown,
        Method::Unknown,
    ];

    /// The label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Ping => "ping",
            Method::Register => "register",
            Method::Depends => "depends",
            Method::Sinks => "sinks",
            Method::SinksMatrix => "sinks_matrix",
            Method::Metrics => "metrics",
            Method::SlowLog => "slowlog",
            Method::Shutdown => "shutdown",
            Method::Unknown => "unknown",
        }
    }

    /// The metric method for a query kind.
    pub fn from_kind(kind: crate::proto::QueryKind) -> Method {
        match kind {
            crate::proto::QueryKind::Depends => Method::Depends,
            crate::proto::QueryKind::Sinks => Method::Sinks,
            crate::proto::QueryKind::SinksMatrix => Method::SinksMatrix,
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Number of request outcomes: `ok` plus every [`ErrorKind`].
const OUTCOMES: usize = ErrorKind::ALL.len() + 1;

/// Outcome index: 0 is `ok`, then [`ErrorKind::ALL`] order.
fn outcome_idx(outcome: Option<ErrorKind>) -> usize {
    outcome.map_or(0, |k| k as usize + 1)
}

/// The label for an outcome: `"ok"` or the error kind's wire name.
pub fn outcome_str(outcome: Option<ErrorKind>) -> &'static str {
    outcome.map_or("ok", ErrorKind::as_str)
}

/// The six request phases a [`RequestTrace`] times, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frame parsing (JSON → `Frame`).
    Parse,
    /// Result-cache lookup (fingerprint + LRU probe).
    Cache,
    /// Registry build / φ lowering / name resolution.
    Compile,
    /// The pair search itself (`Query::run`).
    Search,
    /// Answer + envelope serialisation.
    Serialize,
    /// Writing the response line to the socket.
    Write,
}

/// Number of phases.
pub const PHASES: usize = 6;

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Parse,
        Phase::Cache,
        Phase::Compile,
        Phase::Search,
        Phase::Serialize,
        Phase::Write,
    ];

    /// The label value (`"parse"`, `"cache"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Cache => "cache",
            Phase::Compile => "compile",
            Phase::Search => "search",
            Phase::Serialize => "serialize",
            Phase::Write => "write",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-request phase timings. Created when the request line arrives,
/// filled in on the connection's thread, and finalised after the
/// response write. Phases not exercised by a
/// request (e.g. `search` for `ping`) stay 0 — the breakdown is always
/// complete, never partial.
#[derive(Debug)]
pub struct RequestTrace {
    started: Instant,
    phase_ns: [u64; PHASES],
}

impl Default for RequestTrace {
    fn default() -> RequestTrace {
        RequestTrace::start()
    }
}

impl RequestTrace {
    /// Starts the request clock.
    pub fn start() -> RequestTrace {
        RequestTrace {
            started: Instant::now(),
            phase_ns: [0; PHASES],
        }
    }

    /// Runs `f`, attributing its wall time to `phase` (accumulating —
    /// a phase may be entered more than once).
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(phase, t.elapsed().as_nanos() as u64);
        out
    }

    /// Adds externally measured nanoseconds to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.phase_ns[phase.idx()] += ns;
    }

    /// Nanoseconds attributed to `phase` so far.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.idx()]
    }

    /// Total wall nanoseconds since the request line arrived.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// One captured slow request: identity, outcome, the full phase
/// breakdown, and the query's cost report when a search ran.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotone capture sequence number.
    pub seq: u64,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Request method.
    pub method: Method,
    /// Request correlation id, when present.
    pub id: Option<u64>,
    /// Target system registry key (content digest), for query methods.
    pub system: Option<u64>,
    /// Canonical query fingerprint, when fingerprintable.
    pub fingerprint: Option<u64>,
    /// `None` = ok; otherwise the error kind.
    pub outcome: Option<ErrorKind>,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Total request wall nanoseconds.
    pub total_ns: u64,
    /// Per-phase nanoseconds, indexed like [`Phase::ALL`].
    pub phase_ns: [u64; PHASES],
    /// The search cost report, when a search ran.
    pub report: Option<QueryReport>,
}

impl SlowEntry {
    /// One self-contained JSON object (no trailing newline): the
    /// `slowlog` wire entries and the access-log `slow_query` lines
    /// share this encoding.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .str_field("event", "slow_query")
            .u64_field("seq", self.seq)
            .u64_field("unix_ms", self.unix_ms)
            .str_field("method", self.method.as_str());
        put_id(&mut j, self.id);
        match self.system {
            Some(k) => j.u64_field("system", k),
            None => j.null_field("system"),
        };
        match self.fingerprint {
            Some(fp) => j.u64_field("fingerprint", fp),
            None => j.null_field("fingerprint"),
        };
        j.str_field("outcome", outcome_str(self.outcome))
            .bool_field("cached", self.cached)
            .u64_field("total_ns", self.total_ns);
        j.begin_obj_field("phases");
        for p in Phase::ALL {
            j.u64_field(p.as_str(), self.phase_ns[p.idx()]);
        }
        j.end_obj();
        match &self.report {
            Some(r) => {
                j.begin_obj_field("report");
                r.json_fields(&mut j);
                j.end_obj();
            }
            None => {
                j.null_field("report");
            }
        }
        j.end_obj();
        j.finish()
    }
}

/// The slow-query ring: the last `cap` entries, plus a total-captured
/// counter that keeps counting when the ring wraps.
struct SlowLog {
    ring: Mutex<std::collections::VecDeque<SlowEntry>>,
    cap: usize,
    seq: AtomicU64,
    captured: Counter,
}

impl SlowLog {
    fn new(cap: usize) -> SlowLog {
        SlowLog {
            ring: Mutex::new(std::collections::VecDeque::with_capacity(cap.min(1024))),
            cap,
            seq: AtomicU64::new(0),
            captured: Counter::new(),
        }
    }

    fn push(&self, mut entry: SlowEntry) -> SlowEntry {
        entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.captured.inc();
        if self.cap > 0 {
            let mut ring = self.ring.lock().expect("slowlog lock");
            if ring.len() >= self.cap {
                ring.pop_front();
            }
            ring.push_back(entry.clone());
        }
        entry
    }

    /// The most recent `limit` entries, oldest first.
    fn tail(&self, limit: usize) -> Vec<SlowEntry> {
        let ring = self.ring.lock().expect("slowlog lock");
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }
}

/// Everything [`ServerMetrics::observe_request`] needs to know about a
/// finished request beyond its timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestObs<'a> {
    /// Request method (defaults to [`Method::Unknown`]).
    pub method: Method,
    /// Correlation id.
    pub id: Option<u64>,
    /// `None` = ok.
    pub outcome: Option<ErrorKind>,
    /// Result-cache hit?
    pub cached: bool,
    /// Cold path? (`true` for searches and fresh compiles; `false` for
    /// cache replays and re-registrations.) Labels the histogram.
    pub cold: bool,
    /// Target system key for query/register methods.
    pub system: Option<u64>,
    /// Canonical query fingerprint.
    pub fingerprint: Option<u64>,
    /// The search cost report, when a search ran.
    pub report: Option<&'a QueryReport>,
}

/// Engine label values for `sd_engine_runs_total`.
const ENGINES: [&str; 5] = [
    "interpreted",
    "compiled-dense",
    "compiled-sparse",
    "none",
    "other",
];

fn engine_idx(engine: &str) -> usize {
    ENGINES.iter().position(|e| *e == engine).unwrap_or(4)
}

/// The server's metric families. One instance per server, shared by
/// every connection thread; all recording is lock-free. When
/// constructed disabled (`--no-metrics`) every recording call returns
/// immediately.
pub struct ServerMetrics {
    enabled: bool,
    started: Instant,
    slow_ns: u64,
    /// requests_total[method][outcome].
    requests: Vec<Vec<Counter>>,
    /// duration histograms\[method\]\[0 = cold, 1 = warm\] (ok requests
    /// only).
    durations: Vec<[Histogram; 2]>,
    /// phase_ns_total[method][phase].
    phases: Vec<Vec<Counter>>,
    /// Rolled-up QueryReport costs, per method.
    pair_expansions: Vec<Counter>,
    visited_pairs: Vec<Counter>,
    bfs_levels: Vec<Counter>,
    rows_reused: Vec<Counter>,
    rows_materialized: Vec<Counter>,
    /// Searches per engine kind.
    engine_runs: Vec<Counter>,
    /// Sat(φ) lookups served from / missing the Oracle intern cache.
    partition_hits: Counter,
    partition_misses: Counter,
    /// Access-log lines dropped rather than blocking the request path.
    access_dropped: Counter,
    slow: SlowLog,
}

impl ServerMetrics {
    /// A metrics registry. `slow_ms` is the slow-query threshold,
    /// `slowlog_cap` the ring size; `enabled = false` turns every
    /// recording call into a no-op (scrapes then report zeros).
    pub fn new(enabled: bool, slow_ms: u64, slowlog_cap: usize) -> ServerMetrics {
        let counters = |n: usize| (0..n).map(|_| Counter::new()).collect::<Vec<_>>();
        ServerMetrics {
            enabled,
            started: Instant::now(),
            slow_ns: slow_ms.saturating_mul(1_000_000),
            requests: (0..METHODS).map(|_| counters(OUTCOMES)).collect(),
            durations: (0..METHODS)
                .map(|_| [Histogram::new(), Histogram::new()])
                .collect(),
            phases: (0..METHODS).map(|_| counters(PHASES)).collect(),
            pair_expansions: counters(METHODS),
            visited_pairs: counters(METHODS),
            bfs_levels: counters(METHODS),
            rows_reused: counters(METHODS),
            rows_materialized: counters(METHODS),
            engine_runs: counters(ENGINES.len()),
            partition_hits: Counter::new(),
            partition_misses: Counter::new(),
            access_dropped: Counter::new(),
            slow: SlowLog::new(slowlog_cap),
        }
    }

    /// Records one access-log line dropped (writer contended or
    /// errored).
    pub fn access_log_dropped(&self, n: u64) {
        self.access_dropped.add(n);
    }

    /// Folds a finished request into every family. Returns the
    /// serialised slow-query line when the request crossed the
    /// threshold (the caller appends it to the access log stream).
    pub fn observe_request(&self, obs: &RequestObs, trace: &RequestTrace) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let m = obs.method.idx();
        let total_ns = trace.total_ns();
        self.requests[m][outcome_idx(obs.outcome)].inc();
        if obs.outcome.is_none() {
            self.durations[m][usize::from(!obs.cold)].record(total_ns);
        }
        for p in Phase::ALL {
            let ns = trace.phase_ns(p);
            if ns != 0 {
                self.phases[m][p.idx()].add(ns);
            }
        }
        if let Some(r) = obs.report {
            self.pair_expansions[m].add(r.pair_expansions);
            self.visited_pairs[m].add(r.visited_pairs);
            self.bfs_levels[m].add(u64::from(r.levels));
            self.rows_reused[m].add(r.rows_reused);
            self.rows_materialized[m].add(r.rows_materialized);
            self.engine_runs[engine_idx(r.engine)].inc();
            // A "none" report answered without a Sat(φ) lookup.
            if r.engine != "none" {
                let part = if r.partition_cached {
                    &self.partition_hits
                } else {
                    &self.partition_misses
                };
                part.inc();
            }
        }
        if total_ns >= self.slow_ns {
            let unix_ms = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64);
            let entry = self.slow.push(SlowEntry {
                seq: 0,
                unix_ms,
                method: obs.method,
                id: obs.id,
                system: obs.system,
                fingerprint: obs.fingerprint,
                outcome: obs.outcome,
                cached: obs.cached,
                total_ns,
                phase_ns: std::array::from_fn(|i| trace.phase_ns(Phase::ALL[i])),
                report: obs.report.copied(),
            });
            return Some(entry.to_json());
        }
        None
    }

    /// The most recent `limit` slow entries, oldest first.
    pub fn slowlog_tail(&self, limit: usize) -> Vec<SlowEntry> {
        self.slow.tail(limit)
    }

    /// Duration snapshot for `(method, cold)`.
    pub fn duration_snapshot(&self, method: Method, cold: bool) -> HistogramSnapshot {
        self.durations[method.idx()][usize::from(!cold)].snapshot()
    }

    /// requests_total for `(method, outcome)`.
    pub fn requests_total(&self, method: Method, outcome: Option<ErrorKind>) -> u64 {
        self.requests[method.idx()][outcome_idx(outcome)].get()
    }

    /// Calls `f` with every sample of `fam`, label indices outermost
    /// first. Labelled samples that are zero (or empty histograms) are
    /// skipped; unlabelled families always report.
    fn samples(&self, fam: &Family, g: &ScrapeGauges, mut f: impl FnMut(&[usize], Value)) {
        let mut idx = vec![0; fam.dims.len()];
        loop {
            let v = (fam.read)(self, g, &idx);
            let empty = match &v {
                Value::Num(n) => *n == 0,
                Value::Hist(s) => s.count == 0,
            };
            if idx.is_empty() || !empty {
                f(&idx, v);
            }
            // Advance the index tuple like an odometer, last label fastest.
            let Some(d) = (0..idx.len())
                .rev()
                .find(|&d| idx[d] + 1 < fam.dims[d].len())
            else {
                return;
            };
            idx[d] += 1;
            idx[d + 1..].fill(0);
        }
    }

    /// Writes every family into an open JSON object. A sample sits at
    /// its family's JSON path extended by its label keys; a histogram
    /// sample is an object of `count`, `sum_ns` and `buckets`
    /// (`[upper, n]` pairs). The registered systems are listed at
    /// `registry.list`. Keys are in sorted order.
    pub fn json(&self, g: &ScrapeGauges, j: &mut JsonBuf) {
        let mut leaves: Vec<(Vec<&'static str>, String)> = Vec::new();
        for fam in FAMILIES {
            self.samples(fam, g, |idx, v| {
                let mut path: Vec<&'static str> = fam.json.split('.').collect();
                path.extend(fam.dims.iter().zip(idx).map(|(d, &i)| d.key(i)));
                match v {
                    Value::Num(n) => leaves.push((path, n.to_string())),
                    Value::Hist(s) => {
                        let buckets: Vec<String> = s
                            .buckets
                            .iter()
                            .map(|(u, n)| format!("[{u},{n}]"))
                            .collect();
                        for (key, raw) in [
                            ("count", s.count.to_string()),
                            ("sum_ns", s.sum.to_string()),
                            ("buckets", format!("[{}]", buckets.join(","))),
                        ] {
                            leaves.push(([&path[..], &[key]].concat(), raw));
                        }
                    }
                }
            });
        }
        let mut list = JsonBuf::new();
        list.begin_arr_elem();
        for (key, desc) in &g.systems {
            list.begin_obj()
                .u64_field("system", *key)
                .str_field("desc", desc)
                .end_obj();
        }
        list.end_arr();
        leaves.push((vec!["registry", "list"], list.finish()));
        leaves.sort();
        // Stream the sorted leaves, closing and opening objects where the
        // path prefix changes.
        let mut open: Vec<&str> = Vec::new();
        for (path, raw) in &leaves {
            let (leaf, dirs) = path.split_last().expect("non-empty JSON path");
            let keep = open.iter().zip(dirs).take_while(|(a, b)| a == b).count();
            for _ in keep..open.len() {
                j.end_obj();
            }
            open.truncate(keep);
            for dir in &dirs[keep..] {
                j.begin_obj_field(dir);
                open.push(dir);
            }
            j.raw_field(leaf, raw);
        }
        for _ in open {
            j.end_obj();
        }
    }

    /// Renders every family as a Prometheus text exposition. Histograms
    /// expose cumulative `le` buckets over their non-empty buckets plus
    /// `+Inf`, then `_sum` and `_count`.
    pub fn prometheus(&self, g: &ScrapeGauges) -> String {
        let mut out = String::with_capacity(8192);
        for fam in FAMILIES {
            let (name, kind) = (fam.name, fam.kind.as_str());
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", fam.help);
            self.samples(fam, g, |idx, v| {
                let labels: Vec<String> = fam
                    .dims
                    .iter()
                    .zip(idx)
                    .map(|(d, &i)| format!("{}=\"{}\"", d.name(), d.prom(i)))
                    .collect();
                let braced = |extra: Option<String>| {
                    let all: Vec<String> = labels.iter().cloned().chain(extra).collect();
                    if all.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", all.join(","))
                    }
                };
                match v {
                    Value::Num(n) => {
                        let _ = writeln!(out, "{name}{} {n}", braced(None));
                    }
                    Value::Hist(s) => {
                        let mut cum = 0;
                        let bounds = s.buckets.iter().map(|(u, n)| (u.to_string(), *n));
                        for (le, n) in bounds.chain([("+Inf".to_string(), 0)]) {
                            cum += n;
                            let labels = braced(Some(format!("le=\"{le}\"")));
                            let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", braced(None), s.sum);
                        let _ = writeln!(out, "{name}_count{} {}", braced(None), s.count);
                    }
                }
            });
        }
        out
    }
}

/// Scrape-time values owned by the server loop rather than the metrics
/// registry.
#[derive(Debug, Clone, Default)]
pub struct ScrapeGauges {
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Currently open connections.
    pub connections_open: u64,
    /// Queries executing right now.
    pub inflight: u64,
    /// Queries waiting for a run slot.
    pub queue_depth: u64,
    /// Queries that may run at once.
    pub workers: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Registry capacity.
    pub registry_cap: u64,
    /// `(key, description)` of every registered system.
    pub systems: Vec<(u64, String)>,
}

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A label dimension. Each value has a JSON key and a Prometheus label
/// value; they differ only where Prometheus convention asks for it
/// (`cold="true"`, `quantile="0.5"`).
#[derive(Debug, Clone, Copy)]
enum Dim {
    Method,
    Outcome,
    Temp,
    Phase,
    Engine,
    Quantile,
}

/// Derived latency quantiles: JSON key, Prometheus label value, percent.
const QUANTILES: [(&str, &str, u64); 4] = [
    ("p50_ns", "0.5", 50),
    ("p90_ns", "0.9", 90),
    ("p95_ns", "0.95", 95),
    ("p99_ns", "0.99", 99),
];

impl Dim {
    /// The Prometheus label name.
    fn name(self) -> &'static str {
        match self {
            Dim::Method => "method",
            Dim::Outcome => "outcome",
            Dim::Temp => "cold",
            Dim::Phase => "phase",
            Dim::Engine => "engine",
            Dim::Quantile => "quantile",
        }
    }

    /// Number of values.
    fn len(self) -> usize {
        match self {
            Dim::Method => METHODS,
            Dim::Outcome => OUTCOMES,
            Dim::Temp => 2,
            Dim::Phase => PHASES,
            Dim::Engine => ENGINES.len(),
            Dim::Quantile => QUANTILES.len(),
        }
    }

    /// The JSON key of value `i`.
    fn key(self, i: usize) -> &'static str {
        match self {
            Dim::Method => Method::ALL[i].as_str(),
            Dim::Outcome => outcome_str(i.checked_sub(1).map(|k| ErrorKind::ALL[k])),
            Dim::Temp => ["cold", "warm"][i],
            Dim::Phase => Phase::ALL[i].as_str(),
            Dim::Engine => ENGINES[i],
            Dim::Quantile => QUANTILES[i].0,
        }
    }

    /// The Prometheus label value of value `i`.
    fn prom(self, i: usize) -> &'static str {
        match self {
            Dim::Temp => ["true", "false"][i],
            Dim::Quantile => QUANTILES[i].1,
            d => d.key(i),
        }
    }
}

/// One sample's value.
enum Value {
    Num(u64),
    Hist(HistogramSnapshot),
}

/// Reads the sample at one tuple of label indices.
type Read = fn(&ServerMetrics, &ScrapeGauges, &[usize]) -> Value;

/// One metric family, described once for both scrape formats.
struct Family {
    kind: Kind,
    /// Prometheus family name.
    name: &'static str,
    /// Dotted JSON path; samples nest below it by their label keys.
    json: &'static str,
    /// Label dimensions, outermost first.
    dims: &'static [Dim],
    read: Read,
    /// Prometheus help text.
    help: &'static str,
}

/// Every metric family, in exposition order.
#[rustfmt::skip]
const FAMILIES: &[Family] = &[
    Family { kind: Kind::Counter, name: "sd_requests_total", json: "requests", dims: &[Dim::Method, Dim::Outcome],
        help: "Requests handled, by method and outcome.",
        read: |m, _, i| Value::Num(m.requests[i[0]][i[1]].get()) },
    Family { kind: Kind::Histogram, name: "sd_request_duration_ns", json: "durations", dims: &[Dim::Method, Dim::Temp],
        help: "Request wall time, successful requests only.",
        read: |m, _, i| Value::Hist(m.durations[i[0]][i[1]].snapshot()) },
    Family { kind: Kind::Gauge, name: "sd_request_duration_quantile_ns", json: "durations", dims: &[Dim::Method, Dim::Temp, Dim::Quantile],
        help: "Derived latency quantiles (p50/p90/p95/p99).",
        read: |m, _, i| Value::Num(m.durations[i[0]][i[1]].snapshot().quantile(QUANTILES[i[2]].2, 100)) },
    Family { kind: Kind::Counter, name: "sd_request_phase_ns_total", json: "phase_ns", dims: &[Dim::Method, Dim::Phase],
        help: "Cumulative per-phase request time.",
        read: |m, _, i| Value::Num(m.phases[i[0]][i[1]].get()) },
    Family { kind: Kind::Counter, name: "sd_pair_expansions_total", json: "costs.pair_expansions", dims: &[Dim::Method],
        help: "Pair expansions attempted by served searches.",
        read: |m, _, i| Value::Num(m.pair_expansions[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_visited_pairs_total", json: "costs.visited_pairs", dims: &[Dim::Method],
        help: "Distinct canonical state pairs discovered by served searches.",
        read: |m, _, i| Value::Num(m.visited_pairs[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_bfs_levels_total", json: "costs.bfs_levels", dims: &[Dim::Method],
        help: "BFS levels expanded by served searches.",
        read: |m, _, i| Value::Num(m.bfs_levels[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_memo_rows_reused_total", json: "costs.rows_reused", dims: &[Dim::Method],
        help: "Sparse successor rows served from the memo by served searches.",
        read: |m, _, i| Value::Num(m.rows_reused[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_memo_rows_materialized_total", json: "costs.rows_materialized", dims: &[Dim::Method],
        help: "Sparse successor rows interpreted by served searches.",
        read: |m, _, i| Value::Num(m.rows_materialized[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_engine_runs_total", json: "engines", dims: &[Dim::Engine],
        help: "Searches run, by engine kind.",
        read: |m, _, i| Value::Num(m.engine_runs[i[0]].get()) },
    Family { kind: Kind::Counter, name: "sd_partition_hits_total", json: "oracle.partition_hits", dims: &[],
        help: "Served searches whose Sat(phi) enumeration came from the Oracle intern cache.",
        read: |m, _, _| Value::Num(m.partition_hits.get()) },
    Family { kind: Kind::Counter, name: "sd_partition_misses_total", json: "oracle.partition_misses", dims: &[],
        help: "Served searches that enumerated Sat(phi) fresh.",
        read: |m, _, _| Value::Num(m.partition_misses.get()) },
    Family { kind: Kind::Counter, name: "sd_cache_hits_total", json: "cache.hits", dims: &[],
        help: "Result-cache hits.",
        read: |_, g, _| Value::Num(g.cache.hits) },
    Family { kind: Kind::Counter, name: "sd_cache_misses_total", json: "cache.misses", dims: &[],
        help: "Result-cache misses.",
        read: |_, g, _| Value::Num(g.cache.misses) },
    Family { kind: Kind::Counter, name: "sd_cache_insertions_total", json: "cache.insertions", dims: &[],
        help: "Result-cache insertions.",
        read: |_, g, _| Value::Num(g.cache.insertions) },
    Family { kind: Kind::Counter, name: "sd_cache_evictions_total", json: "cache.evictions", dims: &[],
        help: "Result-cache evictions.",
        read: |_, g, _| Value::Num(g.cache.evictions) },
    Family { kind: Kind::Gauge, name: "sd_cache_entries", json: "cache.entries", dims: &[],
        help: "Result-cache entries.",
        read: |_, g, _| Value::Num(g.cache.entries) },
    Family { kind: Kind::Gauge, name: "sd_cache_capacity", json: "cache.capacity", dims: &[],
        help: "Result-cache capacity.",
        read: |_, g, _| Value::Num(g.cache.capacity) },
    Family { kind: Kind::Gauge, name: "sd_registry_systems", json: "registry.systems", dims: &[],
        help: "Registered systems.",
        read: |_, g, _| Value::Num(g.systems.len() as u64) },
    Family { kind: Kind::Gauge, name: "sd_registry_capacity", json: "registry.capacity", dims: &[],
        help: "Registry capacity.",
        read: |_, g, _| Value::Num(g.registry_cap) },
    Family { kind: Kind::Counter, name: "sd_connections_total", json: "gauges.connections_total", dims: &[],
        help: "TCP connections accepted.",
        read: |_, g, _| Value::Num(g.connections_total) },
    Family { kind: Kind::Gauge, name: "sd_connections_open", json: "gauges.connections_open", dims: &[],
        help: "Currently open connections.",
        read: |_, g, _| Value::Num(g.connections_open) },
    Family { kind: Kind::Gauge, name: "sd_inflight_queries", json: "gauges.inflight", dims: &[],
        help: "Queries running right now.",
        read: |_, g, _| Value::Num(g.inflight) },
    Family { kind: Kind::Gauge, name: "sd_queue_depth", json: "gauges.queue_depth", dims: &[],
        help: "Queries waiting for a run slot.",
        read: |_, g, _| Value::Num(g.queue_depth) },
    Family { kind: Kind::Gauge, name: "sd_workers", json: "gauges.workers", dims: &[],
        help: "Queries that may run at once.",
        read: |_, g, _| Value::Num(g.workers) },
    Family { kind: Kind::Counter, name: "sd_access_log_dropped_total", json: "access_log_dropped", dims: &[],
        help: "Access-log lines dropped instead of blocking requests.",
        read: |m, _, _| Value::Num(m.access_dropped.get()) },
    Family { kind: Kind::Counter, name: "sd_slow_queries_total", json: "slowlog.captured", dims: &[],
        help: "Requests slower than the slow-query threshold.",
        read: |m, _, _| Value::Num(m.slow.captured.get()) },
    Family { kind: Kind::Gauge, name: "sd_slowlog_capacity", json: "slowlog.capacity", dims: &[],
        help: "Slow-query ring capacity.",
        read: |m, _, _| Value::Num(m.slow.cap as u64) },
    Family { kind: Kind::Gauge, name: "sd_slowlog_threshold_ms", json: "slowlog.threshold_ms", dims: &[],
        help: "Slow-query threshold in milliseconds.",
        read: |m, _, _| Value::Num(m.slow_ns / 1_000_000) },
    Family { kind: Kind::Gauge, name: "sd_uptime_seconds", json: "uptime_s", dims: &[],
        help: "Seconds since start.",
        read: |m, _, _| Value::Num(m.started.elapsed().as_secs()) },
    Family { kind: Kind::Gauge, name: "sd_metrics_enabled", json: "enabled", dims: &[],
        help: "1 when metric recording is live.",
        read: |m, _, _| Value::Num(u64::from(m.enabled)) },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_rolls_up_counters_histograms_and_phases() {
        let m = ServerMetrics::new(true, 1_000_000, 8); // slow_ms huge: nothing slow
        let mut trace = RequestTrace::start();
        trace.add(Phase::Parse, 100);
        trace.add(Phase::Search, 5_000);
        let report = QueryReport {
            engine: "compiled-dense",
            wall_ns: 5_000,
            visited_pairs: 10,
            pair_expansions: 40,
            levels: 3,
            partition_cached: false,
            fresh_compile: false,
            rows_reused: 0,
            rows_materialized: 0,
        };
        let cached = QueryReport {
            partition_cached: true,
            ..report
        };
        let none = QueryReport {
            engine: "none",
            pair_expansions: 0,
            ..report
        };
        for (report, cold) in [(&report, true), (&cached, false), (&none, false)] {
            let obs = RequestObs {
                method: Method::Depends,
                cold,
                report: Some(report),
                ..RequestObs::default()
            };
            assert!(m.observe_request(&obs, &trace).is_none());
        }
        assert_eq!(m.requests_total(Method::Depends, None), 3);
        assert_eq!(m.duration_snapshot(Method::Depends, true).count, 1);
        assert_eq!(m.duration_snapshot(Method::Depends, false).count, 2);
        assert_eq!(m.pair_expansions[Method::Depends.idx()].get(), 80);
        assert_eq!(m.engine_runs[1].get(), 2);
        // One lookup hit and one missed; the "none" report made none.
        assert_eq!(m.partition_hits.get(), 1);
        assert_eq!(m.partition_misses.get(), 1);
    }

    #[test]
    fn slow_threshold_zero_captures_everything_with_full_phases() {
        let m = ServerMetrics::new(true, 0, 4);
        let trace = RequestTrace::start();
        let obs = RequestObs {
            method: Method::Ping,
            id: Some(7),
            ..RequestObs::default()
        };
        let line = m.observe_request(&obs, &trace).expect("slow line");
        assert!(line.contains(r#""event":"slow_query""#), "{line}");
        for p in Phase::ALL {
            assert!(line.contains(&format!(r#""{}":"#, p.as_str())), "{line}");
        }
        let tail = m.slowlog_tail(10);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].id, Some(7));
    }

    #[test]
    fn slowlog_ring_keeps_the_most_recent() {
        let m = ServerMetrics::new(true, 0, 2);
        for i in 0..5 {
            let obs = RequestObs {
                method: Method::Ping,
                id: Some(i),
                ..RequestObs::default()
            };
            m.observe_request(&obs, &RequestTrace::start());
        }
        let tail = m.slowlog_tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].id, Some(3));
        assert_eq!(tail[1].id, Some(4));
        assert_eq!(tail[1].seq, 4);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = ServerMetrics::new(false, 0, 4);
        let obs = RequestObs::default();
        assert!(m.observe_request(&obs, &RequestTrace::start()).is_none());
        assert_eq!(m.requests_total(Method::Unknown, None), 0);
        assert!(m.slowlog_tail(10).is_empty());
    }

    #[test]
    fn prom_exposition_has_families_and_cumulative_buckets() {
        let m = ServerMetrics::new(true, 1_000_000, 8);
        let mut trace = RequestTrace::start();
        trace.add(Phase::Write, 10);
        for _ in 0..3 {
            let obs = RequestObs {
                method: Method::Sinks,
                cold: false,
                ..RequestObs::default()
            };
            m.observe_request(&obs, &trace);
        }
        let g = ScrapeGauges {
            connections_total: 2,
            workers: 4,
            ..ScrapeGauges::default()
        };
        let prom = m.prometheus(&g);
        assert!(prom.contains("# TYPE sd_requests_total counter"), "{prom}");
        assert!(
            prom.contains(r#"sd_requests_total{method="sinks",outcome="ok"} 3"#),
            "{prom}"
        );
        assert!(prom.contains(r#"cold="false",le="+Inf"} 3"#), "{prom}");
        assert!(prom.contains("sd_request_duration_quantile_ns{"), "{prom}");
        assert!(prom.contains("sd_workers 4"), "{prom}");
        // Every line is either a comment or `name{labels} value`.
        for line in prom.lines() {
            assert!(line.starts_with('#') || line.starts_with("sd_"), "{line}");
        }
    }

    /// The `as usize` indices agree with the `ALL` tables that label
    /// values are read from.
    #[test]
    fn enum_indices_follow_their_all_tables() {
        assert!(Method::ALL.iter().enumerate().all(|(i, m)| m.idx() == i));
        assert!(Phase::ALL.iter().enumerate().all(|(i, p)| p.idx() == i));
        for (i, k) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(outcome_idx(Some(k)), i + 1);
            assert_eq!(ErrorKind::from_wire(k.as_str()), Some(k));
        }
    }

    /// One Prometheus sample line: name, labels, value.
    fn prom_sample(line: &str) -> (&str, Vec<(&str, &str)>, u64) {
        let (head, value) = line.rsplit_once(' ').expect("sample value");
        let (name, labels) = match head.split_once('{') {
            None => (head, Vec::new()),
            Some((name, rest)) => {
                let labels = rest.trim_end_matches('}').split(',');
                let labels = labels.map(|kv| kv.split_once('=').expect("label pair"));
                (
                    name,
                    labels.map(|(k, v)| (k, v.trim_matches('"'))).collect(),
                )
            }
        };
        (name, labels, value.parse().expect("integer sample"))
    }

    fn json_leaves(v: &crate::wire::Json, path: String, out: &mut Vec<String>) {
        match v.as_obj() {
            Some(fields) => {
                for (k, v) in fields {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    json_leaves(v, p, out);
                }
            }
            None if v.as_arr().is_none() => out.push(path),
            None => {}
        }
    }

    /// After a fixed request mix, every Prometheus sample equals the
    /// JSON value at its family's path, and every JSON number has a
    /// Prometheus sample.
    #[test]
    fn json_and_prometheus_scrapes_agree() {
        let m = ServerMetrics::new(true, 1_000_000, 8);
        let report = QueryReport {
            engine: "compiled-sparse",
            wall_ns: 900,
            visited_pairs: 12,
            pair_expansions: 48,
            levels: 2,
            partition_cached: true,
            fresh_compile: false,
            rows_reused: 3,
            rows_materialized: 5,
        };
        let mut trace = RequestTrace::start();
        trace.add(Phase::Parse, 50);
        trace.add(Phase::Search, 700);
        for (method, outcome, cold, report) in [
            (Method::Register, None, true, None),
            (Method::Depends, None, true, Some(&report)),
            (Method::Depends, None, false, None),
            (Method::Depends, Some(ErrorKind::Timeout), true, None),
            (Method::SinksMatrix, None, true, Some(&report)),
            (Method::Unknown, Some(ErrorKind::Parse), false, None),
        ] {
            let obs = RequestObs {
                method,
                outcome,
                cold,
                report,
                ..RequestObs::default()
            };
            m.observe_request(&obs, &trace);
        }
        let g = ScrapeGauges {
            connections_total: 3,
            inflight: 1,
            workers: 4,
            cache: CacheStats {
                hits: 1,
                misses: 2,
                capacity: 64,
                ..CacheStats::default()
            },
            registry_cap: 8,
            systems: vec![(42, "example:copy(2)".into())],
            ..ScrapeGauges::default()
        };
        let mut j = JsonBuf::new();
        j.begin_obj();
        m.json(&g, &mut j);
        j.end_obj();
        let json = crate::wire::parse(&j.finish()).expect("JSON scrape parses");
        let mut covered = Vec::new();
        for line in m.prometheus(&g).lines().filter(|l| !l.starts_with('#')) {
            let (name, labels, value) = prom_sample(line);
            let (fam, suffix) = FAMILIES
                .iter()
                .find_map(|f| {
                    let hist = f.kind == Kind::Histogram;
                    match name.strip_prefix(f.name)? {
                        "" if !hist => Some((f, None)),
                        "_bucket" if hist => Some((f, Some("buckets"))),
                        "_sum" if hist => Some((f, Some("sum_ns"))),
                        "_count" if hist => Some((f, Some("count"))),
                        _ => None,
                    }
                })
                .unwrap_or_else(|| panic!("no family for `{line}`"));
            let label = |name: &str| labels.iter().find(|(k, _)| *k == name).map(|kv| kv.1);
            let mut path: Vec<&str> = fam.json.split('.').collect();
            for d in fam.dims {
                let v = label(d.name()).expect("every dimension labelled");
                path.push(d.key((0..d.len()).find(|&i| d.prom(i) == v).expect("known value")));
            }
            path.extend(suffix);
            let at = path.iter().try_fold(&json, |v, k| v.get(k));
            let at = at.unwrap_or_else(|| panic!("`{line}` has no JSON at {path:?}"));
            let want = match label("le") {
                None => at.as_u64().expect("JSON number"),
                Some(le) => {
                    let le = le.parse().unwrap_or(u64::MAX);
                    let buckets = at.as_arr().expect("bucket array").iter();
                    let pairs = buckets.map(|b| b.as_arr().expect("[upper, n]"));
                    pairs
                        .filter(|b| b[0].as_u64().unwrap() <= le)
                        .map(|b| b[1].as_u64().unwrap())
                        .sum()
                }
            };
            assert_eq!(value, want, "`{line}` vs JSON {path:?}");
            covered.push(path.join("."));
        }
        let mut leaves = Vec::new();
        json_leaves(&json, String::new(), &mut leaves);
        assert!(leaves.contains(&"durations.depends.cold.p95_ns".to_string()));
        assert!(leaves.contains(&"oracle.partition_hits".to_string()));
        for leaf in leaves {
            assert!(
                covered.contains(&leaf),
                "JSON `{leaf}` has no Prometheus sample"
            );
        }
        let list = json.get("registry").and_then(|r| r.get("list"));
        let first = list.and_then(|l| l.as_arr()).and_then(|l| l.first());
        assert_eq!(
            first.and_then(|s| s.get("system")).and_then(|k| k.as_u64()),
            Some(42)
        );
    }
}
