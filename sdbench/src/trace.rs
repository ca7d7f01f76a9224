//! The traced run's in-process replay. Each workload request passes
//! through the server's public layer functions in the order the server
//! calls them — `parse_frame` → `Registry::get`/`register` →
//! `lower_phi` + query build → `fingerprint` → `ResultCache::get` →
//! `Oracle::sat_codes` → `Query::run` → `encode_answer` /
//! `encode_query_ok` → `ResultCache::insert` — with a span around each
//! call. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sd_core::CompileBudget;
use sd_server::proto::{encode_answer, encode_frame, encode_query_ok, parse_frame, parse_response};
use sd_server::{
    Config, Frame, Method, Registry, Request, RequestObs, RequestTrace, ResultCache, ServerMetrics,
    SystemDesc,
};

use crate::check;
use crate::workload::{Plan, Step};

/// One timed call. `parent` indexes the enclosing span; `req` is the
/// replayed request's sequence number.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// An in-memory span recorder; when off, every call is a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
                req: self.req,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span, renaming it when `name` is given
    /// (what a call turned out to be is known only after it returns).
    pub fn end(&mut self, name: Option<&'static str>) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now();
            if let Some(name) = name {
                self.spans[i].name = name;
            }
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end(None);
        out
    }

    /// Each span's duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Span durations in ns, grouped by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.end - s.start);
        }
        by_name
    }
}

/// The exact counts a replay produces; with the same seed, two replays
/// must agree on every one.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub visited_pairs: u64,
    pub pair_expansions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fresh_registrations: u64,
}

/// Everything else a replay measured.
#[derive(Default)]
pub struct Replay {
    pub counts: Counts,
    pub levels: u64,
    pub evictions: u64,
    pub partition_hits: u64,
    pub partition_misses: u64,
    pub rows_reused: u64,
    pub rows_materialized: u64,
    /// Σ `QueryReport::wall_ns` over searches.
    pub search_ns: u64,
    /// The answer bytes for each query index.
    pub answers: Vec<Option<String>>,
    /// Sequence number of the first request after set-up.
    pub first_run_req: u64,
    /// `Registry::get` latencies, ns, sampled by a second thread while
    /// the replay registers systems (traced replays only).
    pub get_probe_ns: Vec<u64>,
    pub wall: Duration,
}

/// Replays `plan` once against fresh in-process layers. With a tracer
/// that is on, a second thread samples `Registry::get` meanwhile.
pub fn replay(plan: &Plan, tracer: &mut Tracer) -> Result<Replay, String> {
    let defaults = Config::default();
    let registry = Registry::new(plan.registry_cap, CompileBudget::default(), None);
    let cache = ResultCache::new(plan.cache_cap);
    let metrics = ServerMetrics::new(true, defaults.slow_ms, defaults.slowlog_cap);
    let stop = AtomicBool::new(false);
    let probe_key = plan.systems[0].content_key();
    let probe = tracer.on;
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut lat = Vec::new();
            while probe && !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                let _ = registry.get(probe_key);
                lat.push(t.elapsed().as_nanos() as u64);
                std::thread::sleep(Duration::from_micros(200));
            }
            lat
        });
        let out = replay_steps(plan, tracer, &registry, &cache, &metrics);
        stop.store(true, Ordering::Relaxed);
        let lat = sampler.join().expect("probe thread");
        out.map(|mut r| {
            let stats = cache.stats();
            r.counts.cache_hits = stats.hits;
            r.counts.cache_misses = stats.misses;
            r.evictions = stats.evictions;
            r.get_probe_ns = lat;
            r
        })
    })
}

fn replay_steps(
    plan: &Plan,
    t: &mut Tracer,
    registry: &Registry,
    cache: &ResultCache,
    metrics: &ServerMetrics,
) -> Result<Replay, String> {
    let mut r = Replay {
        answers: vec![None; plan.queries.len()],
        first_run_req: (plan.preload.len() + plan.warm.len()) as u64,
        ..Replay::default()
    };
    let start = Instant::now();
    let steps = plan
        .replay_order()
        .into_iter()
        .filter(|s| *s != Step::Connect);
    for (seq, step) in steps.enumerate() {
        let seq = seq as u64;
        t.req = seq;
        let req = plan.request(step).expect("connect steps are filtered out");
        if let Request::Register(SystemDesc::Program { source }) = &req {
            t.span("lang.compile", || {
                sd_lang::parse(source).and_then(|p| sd_lang::compile(&p))
            })
            .map_err(|e| format!("fresh program does not compile: {e}"))?;
        }
        let trace = RequestTrace::start();
        t.begin("request");
        let line = t.span("client.encode_frame", || {
            encode_frame(&Frame { id: Some(seq), req })
        });
        let frame = t
            .span("proto.parse_frame", || parse_frame(&line))
            .map_err(|e| e.to_string())?;
        let mut obs = RequestObs {
            id: frame.id,
            ..RequestObs::default()
        };
        let mut report = None;
        match frame.req {
            Request::Register(desc) => {
                t.begin("registry.register");
                let (entry, fresh) = registry.register(&desc).map_err(|e| e.to_string())?;
                t.end(fresh.then_some("registry.register_fresh"));
                r.counts.fresh_registrations += u64::from(fresh);
                obs.method = Method::Register;
                obs.cold = fresh;
                obs.system = Some(entry.key);
            }
            Request::Query(req) => {
                let Step::Query(i) = step else { unreachable!() };
                let entry = t
                    .span("registry.get", || registry.get(req.system))
                    .ok_or("query names an unregistered system")?;
                let sys = entry.system;
                let phi = t.span("lang.lower_phi", || check::lower(sys, &req))?;
                let query = t.span("engine.build_query", || {
                    check::build_query(sys, &req, phi.clone())
                })?;
                let fp = t
                    .span("core.fingerprint", || query.fingerprint())
                    .ok_or("unfingerprintable query")?;
                let key = (u128::from(entry.key) << 64) | u128::from(fp);
                let (answer, cached) = match t.span("cache.get", || cache.get(key)) {
                    Some(answer) => (answer, true),
                    None => {
                        if entry.oracle.phi_interned(&phi) {
                            r.partition_hits += 1;
                        } else {
                            r.partition_misses += 1;
                        }
                        t.span("oracle.sat", || entry.oracle.sat_codes(&phi))
                            .map_err(|e| e.to_string())?;
                        let out = t
                            .span("search.run", || query.run(&entry.oracle))
                            .map_err(|e| e.to_string())?;
                        let rep = out.report;
                        r.counts.visited_pairs += rep.visited_pairs;
                        r.counts.pair_expansions += rep.pair_expansions;
                        r.levels += u64::from(rep.levels);
                        r.rows_reused += rep.rows_reused;
                        r.rows_materialized += rep.rows_materialized;
                        r.search_ns += rep.wall_ns;
                        let answer: Arc<str> =
                            t.span("proto.encode_answer", || encode_answer(sys, &out).into());
                        t.span("cache.insert", || cache.insert(key, Arc::clone(&answer)));
                        report = Some(rep);
                        (answer, false)
                    }
                };
                let line = t.span("proto.encode", || {
                    encode_query_ok(frame.id, &answer, cached, report.as_ref())
                });
                let resp = t
                    .span("client.parse_response", || parse_response(&line))
                    .map_err(|e| e.to_string())?;
                let answer = resp.answer_raw.ok_or("response without answer")?;
                r.answers[i].get_or_insert(answer);
                obs.method = Method::from_kind(req.kind);
                obs.cached = cached;
                obs.cold = !cached;
                obs.system = Some(entry.key);
                obs.fingerprint = Some(fp);
            }
            other => return Err(format!("replay cannot send {other:?}")),
        }
        obs.report = report.as_ref();
        t.span("metrics.observe", || metrics.observe_request(&obs, &trace));
        t.end(None);
    }
    r.wall = start.elapsed();
    Ok(r)
}
