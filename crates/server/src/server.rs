//! The TCP daemon: a blocking accept loop, a thread per connection,
//! an admission gate bounding concurrent queries, graceful shutdown,
//! and the observability hooks around all of it.
//!
//! # Threading model
//!
//! - One **accept thread** blocks in `accept` and spawns a thread per
//!   connection (connections are cheap: they block on reads).
//! - Each **connection thread** reads bounded JSON lines and answers
//!   every method itself, queries included: nothing is handed to
//!   another thread. A query first passes the admission gate: at most
//!   [`Config::workers`] queries run at once, and at most
//!   [`Config::queue_depth`] wait for a slot. A query that finds the
//!   wait queue full is refused at once with `overloaded` — the client
//!   backs off, the server never buffers unbounded work.
//!
//! # Observability
//!
//! Every request carries a [`RequestTrace`] from the moment its line is
//! read: parsing, cache probes, registry/compile work, the search,
//! serialisation, and the response write are each timed as phases. The
//! finished trace plus the request's outcome feed
//! [`ServerMetrics::observe_request`], which maintains the counter and
//! histogram families the `metrics` method scrapes and captures
//! requests slower than `--slow-ms` into the `slowlog` ring. Each
//! query's Oracle work (search costs, the Sat(φ) partition hit or miss)
//! is counted from its `QueryReport` there; Oracle telemetry events go
//! only to the `--telemetry` sink, when one is configured.
//!
//! The access log never blocks a request on a slow or broken writer:
//! lines are serialised outside the lock, the lock is held only for the
//! `write_all`, and write failures drop the line and bump
//! `sd_access_log_dropped_total` instead of erroring the request.
//!
//! # Graceful shutdown
//!
//! `shutdown` (request or [`ServeHandle::shutdown`]) flips a flag, after
//! which new registrations and queries are refused with
//! `shutting_down`, and wakes the accept thread by connecting once to
//! the listener; the accept thread sees the flag and exits.
//! [`ServeHandle::wait`] then blocks until every query the gate already
//! admitted, running or waiting, has finished (the drain). In-flight
//! requests therefore complete normally while the server drains — the
//! robustness property the e2e tests pin. A `shutdown` request is
//! acknowledged before the accept thread is woken, so the reply is
//! written before `wait` can return and the process exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sd_core::{CompileBudget, JsonBuf, QueryReport, Sink};

use crate::cache::ResultCache;
use crate::engine;
use crate::metrics::{Method, Phase, RequestObs, RequestTrace, ScrapeGauges, ServerMetrics};
use crate::proto::{self, put_id, ErrorKind, QueryReq, Request, WireError, MAX_FRAME};
use crate::registry::{Registry, SystemEntry};

/// Server tuning knobs. [`Config::default`] is suitable for tests and
/// small deployments: loopback, four query slots, 64 waiting queries.
pub struct Config {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Queries that may run at once, each on its own connection thread
    /// (0 is taken as 1).
    pub workers: usize,
    /// Queries that may wait for a run slot; a query arriving when this
    /// many already wait is refused with `overloaded`.
    pub queue_depth: usize,
    /// Maximum registered systems (entries live for the process).
    pub registry_cap: usize,
    /// Result-cache capacity in answers (0 disables caching).
    pub cache_cap: usize,
    /// Maximum request-line length in bytes.
    pub max_frame: usize,
    /// Cap — and default — for per-request deadlines.
    pub max_timeout: Duration,
    /// Compile budget for registered systems.
    pub budget: CompileBudget,
    /// Telemetry sink observing compiles, searches and cache events.
    pub sink: Option<Arc<dyn Sink>>,
    /// JSON-lines access log (one line per request).
    pub access_log: Option<Box<dyn Write + Send>>,
    /// Requests slower than this land in the slow-query ring (and on
    /// the access log stream when one is configured). 0 captures
    /// everything.
    pub slow_ms: u64,
    /// Slow-query ring capacity (most recent N kept).
    pub slowlog_cap: usize,
    /// Whether metric recording is live. `false` turns every recording
    /// call into a no-op.
    pub metrics: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            registry_cap: 16,
            cache_cap: 1024,
            max_frame: MAX_FRAME,
            max_timeout: Duration::from_secs(30),
            budget: CompileBudget::default(),
            sink: None,
            access_log: None,
            slow_ms: 100,
            slowlog_cap: 128,
            metrics: true,
        }
    }
}

struct Shared {
    registry: Registry,
    cache: ResultCache,
    metrics: Arc<ServerMetrics>,
    access: Option<Mutex<Box<dyn Write + Send>>>,
    max_frame: usize,
    max_timeout: Duration,
    workers: usize,
    queue_depth: usize,
    /// Admission gate: `(running, waiting)` queries; notified as one ends.
    gate: (Mutex<(usize, usize)>, Condvar),
    /// Set once shutdown begins; new work is refused from then on.
    shutdown: AtomicBool,
    /// Cleared when the accept thread is told to exit.
    accepting: AtomicBool,
    /// Reaches the listener; connecting wakes the accept thread.
    wake_addr: SocketAddr,
    connections: AtomicU64,
    connections_open: AtomicU64,
}

/// A running query's gate slot, freed on drop so that a panicking query
/// cannot leave a drain waiting forever.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let (counts, freed) = &self.0.gate;
        // Every update under this lock leaves the counts valid.
        counts.lock().unwrap_or_else(PoisonError::into_inner).0 -= 1;
        // Waiting queries and a drain listen on the one condvar.
        freed.notify_all();
    }
}

/// Everything known about a finished request when it is folded into the
/// metric families and the access log.
struct Done {
    response: String,
    method: Method,
    outcome: Option<ErrorKind>,
    cached: bool,
    cold: bool,
    system: Option<u64>,
    fingerprint: Option<u64>,
    report: Option<QueryReport>,
}

impl Done {
    fn ok(method: Method, response: String) -> Done {
        Done {
            response,
            method,
            outcome: None,
            cached: false,
            cold: false,
            system: None,
            fingerprint: None,
            report: None,
        }
    }

    fn err(method: Method, id: Option<u64>, err: &WireError) -> Done {
        let mut d = Done::ok(method, proto::encode_error(id, err));
        d.outcome = Some(err.kind);
        d
    }
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs `work` on the calling thread once one of `workers` slots is
    /// free, queued behind at most `queue_depth` other waiting queries.
    /// Refuses with `overloaded` when the queue is full and with
    /// `shutting_down` once shutdown began. The flag is read under the
    /// gate lock, so nothing is admitted after a drain saw the gate empty.
    fn admit<T>(&self, work: impl FnOnce() -> Result<T, WireError>) -> Result<T, WireError> {
        let (counts, freed) = &self.gate;
        let mut c = counts.lock().expect("gate lock");
        if self.shutting_down() {
            let msg = "server is draining";
            return Err(WireError::new(ErrorKind::ShuttingDown, msg));
        }
        if c.0 >= self.workers && c.1 >= self.queue_depth {
            let msg = "admission queue full; retry later";
            return Err(WireError::new(ErrorKind::Overloaded, msg));
        }
        c.1 += 1;
        let waited = freed.wait_while(c, |c| c.0 >= self.workers);
        let mut c = waited.expect("gate lock");
        c.1 -= 1;
        c.0 += 1;
        drop(c);
        let _slot = Slot(self);
        work()
    }

    /// Blocks until no query is running or waiting.
    fn drain(&self) {
        let (counts, freed) = &self.gate;
        let c = counts.lock().expect("gate lock");
        drop(freed.wait_while(c, |c| c.0 + c.1 > 0).expect("gate lock"));
    }

    /// Refuses new work, then wakes the accept thread so it exits.
    /// Idempotent: only the first call connects.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if self.accepting.swap(false, Ordering::SeqCst) {
            // One connection returns the accept thread to its flag check.
            let _ = TcpStream::connect(self.wake_addr);
        }
    }

    fn scrape_gauges(&self) -> ScrapeGauges {
        let (running, waiting) = *self.gate.0.lock().expect("gate lock");
        ScrapeGauges {
            connections_total: self.connections.load(Ordering::SeqCst),
            connections_open: self.connections_open.load(Ordering::SeqCst),
            inflight: running as u64,
            queue_depth: waiting as u64,
            workers: self.workers as u64,
            cache: self.cache.stats(),
            registry_cap: self.registry.cap() as u64,
            systems: self.registry.list(),
        }
    }

    /// Folds the finished request into the metric families and appends
    /// its access-log line (plus the slow-query line, when it crossed
    /// the threshold). The log write happens on a line serialised
    /// *outside* the lock; a failed or poisoned writer drops the lines
    /// and counts them rather than blocking or erroring the request.
    fn observe_and_log(&self, id: Option<u64>, done: &Done, trace: &RequestTrace) {
        let obs = RequestObs {
            method: done.method,
            id,
            outcome: done.outcome,
            cached: done.cached,
            cold: done.cold,
            system: done.system,
            fingerprint: done.fingerprint,
            report: done.report.as_ref(),
        };
        let slow_line = self.metrics.observe_request(&obs, trace);
        let Some(access) = &self.access else { return };
        let mut j = JsonBuf::new();
        j.begin_obj().str_field("event", "request");
        put_id(&mut j, id);
        j.str_field("method", done.method.as_str());
        match done.outcome {
            None => {
                j.bool_field("ok", true).bool_field("cached", done.cached);
            }
            Some(kind) => {
                j.bool_field("ok", false).str_field("error", kind.as_str());
            }
        }
        j.u64_field("wall_ns", trace.total_ns());
        j.end_obj();
        let mut buf = j.finish();
        buf.push('\n');
        let mut lines = 1u64;
        if let Some(slow) = slow_line {
            buf.push_str(&slow);
            buf.push('\n');
            lines += 1;
        }
        let wrote = match access.lock() {
            Ok(mut out) => out.write_all(buf.as_bytes()).and_then(|()| out.flush()),
            Err(_) => Err(std::io::Error::other("access log lock poisoned")),
        };
        if wrote.is_err() {
            self.metrics.access_log_dropped(lines);
        }
    }
}

/// A handle to a running server: its bound address and the means to
/// stop it.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServeHandle {
    /// Binds, spawns the accept thread, and returns immediately.
    pub fn spawn(cfg: Config) -> std::io::Result<ServeHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let wake_addr = match addr.ip() {
            ip if !ip.is_unspecified() => addr,
            IpAddr::V4(_) => (Ipv4Addr::LOCALHOST, addr.port()).into(),
            IpAddr::V6(_) => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        };
        let metrics = Arc::new(ServerMetrics::new(
            cfg.metrics,
            cfg.slow_ms,
            cfg.slowlog_cap,
        ));
        let shared = Arc::new(Shared {
            registry: Registry::new(cfg.registry_cap, cfg.budget, cfg.sink),
            cache: ResultCache::new(cfg.cache_cap),
            metrics,
            access: cfg.access_log.map(Mutex::new),
            max_frame: cfg.max_frame,
            max_timeout: cfg.max_timeout,
            workers: cfg.workers.max(1),
            queue_depth: cfg.queue_depth,
            gate: (Mutex::new((0, 0)), Condvar::new()),
            shutdown: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            wake_addr,
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(ServeHandle {
            addr,
            shared,
            accept,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry, for in-process inspection in tests.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// The server's metric families, for in-process inspection in tests.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Begins graceful shutdown, wakes and joins the accept thread, and
    /// returns once every query already admitted (running or waiting
    /// for a slot) has finished. Connection threads exit as their
    /// clients disconnect; until then they answer new work with
    /// `shutting_down`.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.wait();
    }

    /// Blocks until the server shuts down (via a `shutdown` request)
    /// and every admitted query has finished.
    pub fn wait(self) {
        self.accept.join().expect("accept thread panicked");
        self.shared.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if !shared.accepting.load(Ordering::SeqCst) {
            // The wake-up connection, or a client too late to serve.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // One request-response per round trip: Nagle + delayed
                // ACK would add ~40ms to every reply.
                stream.set_nodelay(true).ok();
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.connections_open.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = serve_conn(stream, &shared);
                    shared.connections_open.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Back off so a persistent error (e.g. `EMFILE`) cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Reads one newline-terminated line of at most `max` bytes. Returns
/// `Ok(None)` on a clean EOF, `Ok(Err(err))` when the line was too
/// long (the rest of the line is consumed so the connection stays
/// usable) or not UTF-8. One trailing `\r` is stripped.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Result<Option<String>, WireError>> {
    let mut buf: Vec<u8> = Vec::new();
    // One byte over the limit tells a full-length line from a long one.
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Ok(None));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > max {
        reader.skip_until(b'\n')?;
        return Ok(Err(WireError::new(
            ErrorKind::TooLarge,
            format!("frame exceeds limit of {max} bytes"),
        )));
    }
    match String::from_utf8(buf) {
        Ok(mut s) => {
            if s.ends_with('\r') {
                s.pop();
            }
            Ok(Ok(Some(s)))
        }
        Err(_) => Ok(Err(WireError::new(
            ErrorKind::Parse,
            "request is not valid UTF-8",
        ))),
    }
}

/// Sends one response line in a single write. `writeln!` on the
/// unbuffered socket would write the body and the `\n` separately: two
/// syscalls, and two segments under `TCP_NODELAY`.
fn write_line(writer: &mut TcpStream, response: &mut String) -> std::io::Result<()> {
    response.push('\n');
    writer.write_all(response.as_bytes())
}

fn flag_response(id: Option<u64>, flag: &str) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true).bool_field(flag, true).end_obj();
    j.finish()
}

fn metrics_response(shared: &Shared, id: Option<u64>, prom: bool) -> String {
    let gauges = shared.scrape_gauges();
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true);
    if prom {
        j.str_field("format", "prometheus");
        j.str_field("text", &shared.metrics.prometheus(&gauges));
    } else {
        j.begin_obj_field("metrics");
        shared.metrics.json(&gauges, &mut j);
        j.end_obj();
    }
    j.end_obj();
    j.finish()
}

fn slowlog_response(shared: &Shared, id: Option<u64>, limit: Option<u64>) -> String {
    let limit = limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
    let entries = shared.metrics.slowlog_tail(limit);
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true);
    j.begin_arr_field("entries");
    for e in &entries {
        j.raw_elem(&e.to_json());
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn register_response(id: Option<u64>, entry: &SystemEntry, fresh: bool) -> String {
    let u = entry.system.universe();
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true)
        .u64_field("system", entry.key)
        .str_field("desc", &entry.desc)
        .bool_field("fresh", fresh);
    j.begin_arr_field("objects");
    for obj in u.objects() {
        j.str_elem(u.name(obj));
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn handle_register(
    shared: &Shared,
    id: Option<u64>,
    desc: &proto::SystemDesc,
    trace: &mut RequestTrace,
) -> Done {
    if shared.shutting_down() {
        let err = WireError::new(ErrorKind::ShuttingDown, "server is draining");
        return Done::err(Method::Register, id, &err);
    }
    // Registration *is* the compile phase: a fresh description parses
    // and compiles under the registry lock.
    match trace.time(Phase::Compile, || shared.registry.register(desc)) {
        Ok((entry, fresh)) => {
            let response = trace.time(Phase::Serialize, || register_response(id, &entry, fresh));
            let mut d = Done::ok(Method::Register, response);
            d.cold = fresh;
            d.system = Some(entry.key);
            d
        }
        Err(err) => Done::err(Method::Register, id, &err),
    }
}

fn handle_query(shared: &Shared, id: Option<u64>, req: QueryReq, trace: &mut RequestTrace) -> Done {
    let method = Method::from_kind(req.kind);
    let system = req.system;
    let Some(entry) = shared.registry.get(system) else {
        let err = WireError::new(
            ErrorKind::UnknownSystem,
            format!("system {system} is not registered"),
        );
        return Done::err(method, id, &err);
    };
    let result = shared
        .admit(|| engine::execute_query(&entry, &shared.cache, &req, shared.max_timeout, trace));
    let mut d = match result {
        Ok(out) => {
            let response = trace.time(Phase::Serialize, || {
                proto::encode_query_ok(id, &out.answer, out.cached, out.report.as_ref())
            });
            let mut d = Done::ok(method, response);
            d.cached = out.cached;
            d.cold = !out.cached;
            d.fingerprint = out.fingerprint;
            d.report = out.report;
            d
        }
        Err(err) => Done::err(method, id, &err),
    };
    d.system = Some(system);
    d
}

fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        // The trace clock starts once a line has arrived: time blocked
        // on the client is not request time.
        let (line, mut trace) = match read_bounded_line(&mut reader, shared.max_frame)? {
            Ok(None) => return Ok(()), // clean disconnect
            Ok(Some(line)) => (line, RequestTrace::start()),
            Err(err) => {
                let mut trace = RequestTrace::start();
                let mut done = Done::err(Method::Unknown, None, &err);
                let wres = trace.time(Phase::Write, || write_line(&mut writer, &mut done.response));
                shared.observe_and_log(None, &done, &trace);
                wres?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match trace.time(Phase::Parse, || proto::parse_frame(&line)) {
            Ok(frame) => frame,
            Err(err) => {
                let mut done = Done::err(Method::Unknown, None, &err);
                let wres = trace.time(Phase::Write, || write_line(&mut writer, &mut done.response));
                shared.observe_and_log(None, &done, &trace);
                wres?;
                continue;
            }
        };
        let id = frame.id;
        let mut done = match frame.req {
            Request::Ping => Done::ok(Method::Ping, flag_response(id, "pong")),
            Request::Metrics { prom } => Done::ok(
                Method::Metrics,
                trace.time(Phase::Serialize, || metrics_response(shared, id, prom)),
            ),
            Request::SlowLog { limit } => Done::ok(
                Method::SlowLog,
                trace.time(Phase::Serialize, || slowlog_response(shared, id, limit)),
            ),
            Request::Shutdown => {
                // Refuse new work before the acknowledgment; the accept
                // thread is woken only after it is written (below).
                shared.shutdown.store(true, Ordering::SeqCst);
                Done::ok(Method::Shutdown, flag_response(id, "shutting_down"))
            }
            Request::Register(desc) => handle_register(shared, id, &desc, &mut trace),
            Request::Query(q) => handle_query(shared, id, q, &mut trace),
        };
        let wres = trace.time(Phase::Write, || write_line(&mut writer, &mut done.response));
        // Observe after the write so the trace's write phase and total
        // cover the full request. A scrape therefore does not count
        // itself — the mix a test issues is exactly what it reads back.
        shared.observe_and_log(id, &done, &trace);
        if done.method == Method::Shutdown {
            shared.begin_shutdown();
        }
        wres?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn gauges(shared: &Shared) -> (u64, u64) {
        let g = shared.scrape_gauges();
        (g.inflight, g.queue_depth)
    }

    /// One slot and one queue place: a second query waits and a third is
    /// `overloaded`. Once shutdown begins, new queries get
    /// `shutting_down` while both admitted ones still complete, the
    /// drain returns only after they did, and the gauges read 0 again.
    /// Every step is forced by barriers, not timing.
    #[test]
    fn gate_queues_refuses_and_drains() {
        let cfg = Config {
            workers: 1,
            queue_depth: 1,
            ..Config::default()
        };
        let handle = ServeHandle::spawn(cfg).expect("bind loopback");
        let shared = &Arc::clone(&handle.shared);
        let finished = &AtomicUsize::new(0);
        // Each admitted query meets the test thread once when it starts
        // running and once more to be let go.
        let (started, release) = (&Barrier::new(2), &Barrier::new(2));
        std::thread::scope(|s| {
            let query = |n: usize| {
                s.spawn(move || {
                    shared.admit(|| {
                        started.wait();
                        release.wait();
                        finished.fetch_add(1, Ordering::SeqCst);
                        Ok(n)
                    })
                })
            };
            let first = query(1);
            started.wait();
            assert_eq!(gauges(shared), (1, 0));
            let second = query(2);
            while gauges(shared) != (1, 1) {
                std::thread::yield_now();
            }
            let refused = shared.admit(|| Ok(())).unwrap_err();
            assert_eq!(refused.kind, ErrorKind::Overloaded);

            shared.begin_shutdown();
            let refused = shared.admit(|| Ok(())).unwrap_err();
            assert_eq!(refused.kind, ErrorKind::ShuttingDown);
            let drained = s.spawn(move || {
                handle.wait();
                finished.load(Ordering::SeqCst)
            });
            release.wait();
            started.wait(); // the waiting query got the slot
            release.wait();
            assert_eq!(first.join().unwrap().unwrap(), 1);
            assert_eq!(second.join().unwrap().unwrap(), 2);
            assert_eq!(drained.join().unwrap(), 2, "drain returned early");
        });
        assert_eq!(gauges(shared), (0, 0));
    }
}
