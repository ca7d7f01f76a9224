//! Closed-loop load against a running server: each client sends its
//! next request only after the previous reply arrived.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sd_server::{Client, ClientError, ErrorKind};

use crate::workload::{Plan, Step, Workload};

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub attempted: u64,
    /// Round trip of each successful request, ns, with its query index
    /// (`None` for registrations).
    pub lat_ns: Vec<(u64, Option<usize>)>,
    /// Failed requests by kind (`overloaded`, `timeout`, `budget`,
    /// `invalid`, `io`, `mismatch`, …).
    pub failures: BTreeMap<&'static str, u64>,
    /// The first answer this client received for each query index.
    pub first: Vec<Option<String>>,
    /// Successful queries whose `cached` flag contradicts the workload
    /// (a miss in warm-hits, a hit in cold-search).
    pub off_path: u64,
    /// Connect → first reply, ns, per connection.
    pub connect_ns: Vec<u64>,
    /// Traced runs only: `(name, start ns, end ns)` client spans,
    /// relative to the drive's start.
    pub spans: Vec<(&'static str, u64, u64)>,
}

impl ClientLog {
    fn fail(&mut self, kind: &'static str) {
        *self.failures.entry(kind).or_default() += 1;
    }
}

/// The merged result of a drive.
pub struct Drive {
    pub logs: Vec<ClientLog>,
    pub elapsed: Duration,
}

impl Drive {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn ok(&self) -> u64 {
        self.logs.iter().map(|l| l.lat_ns.len() as u64).sum()
    }

    pub fn failures(&self) -> BTreeMap<&'static str, u64> {
        let mut all = BTreeMap::new();
        for (k, n) in self.logs.iter().flat_map(|l| &l.failures) {
            *all.entry(*k).or_default() += n;
        }
        all
    }

    /// Turns the successful replies to the queries in `wrong` into
    /// `mismatch` failures (answers found wrong after the run).
    pub fn fail_wrong(&mut self, wrong: &std::collections::HashSet<usize>) {
        for log in &mut self.logs {
            let before = log.lat_ns.len();
            log.lat_ns
                .retain(|(_, q)| !q.is_some_and(|q| wrong.contains(&q)));
            let n = (before - log.lat_ns.len()) as u64;
            if n > 0 {
                *log.failures.entry("mismatch").or_default() += n;
            }
        }
    }

    /// Round trips in ms, ascending, with every failed request counted
    /// as missing every limit: it takes the whole run's duration.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| &l.lat_ns)
            .map(|&(ns, _)| ns as f64 / 1e6)
            .collect();
        let failed = self.attempted() - self.ok();
        ms.extend((0..failed).map(|_| self.elapsed.as_secs_f64() * 1e3));
        ms.sort_by(f64::total_cmp);
        ms
    }
}

fn failure_kind(e: &ClientError) -> &'static str {
    match e.kind {
        ErrorKind::Internal if e.message.starts_with("transport") => "io",
        ErrorKind::Internal if e.message.contains("closed the connection") => "io",
        kind => kind.as_str(),
    }
}

/// Runs every client of `plan` against `addr`. `expected` seeds each
/// client's first answers (the set-up replies, for warm-hits). With
/// `until`, clients cycle through their steps until that instant;
/// otherwise each runs its list once.
pub fn drive(
    plan: &Plan,
    addr: SocketAddr,
    expected: &[Option<String>],
    until: Option<Instant>,
    trace: bool,
) -> Drive {
    let start = Instant::now();
    let logs: Vec<(ClientLog, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .clients
            .iter()
            .map(|steps| {
                s.spawn(move || run_client(plan, steps, addr, expected, until, trace, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = logs.iter().map(|(_, t)| *t).max().unwrap_or(start);
    Drive {
        logs: logs.into_iter().map(|(l, _)| l).collect(),
        elapsed: end - start,
    }
}

fn run_client(
    plan: &Plan,
    steps: &[Step],
    addr: SocketAddr,
    expected: &[Option<String>],
    until: Option<Instant>,
    trace: bool,
    epoch: Instant,
) -> (ClientLog, Instant) {
    let rel = |t: Instant| (t - epoch).as_nanos() as u64;
    let mut log = ClientLog {
        first: expected.to_vec(),
        ..ClientLog::default()
    };
    let mut client: Option<Client> = None;
    // Start of the current connection, until its first reply.
    let mut connecting: Option<Instant> = None;
    let repeat = steps.iter().filter(|s| **s != Step::Connect).cycle();
    let order: Box<dyn Iterator<Item = &Step>> = match until {
        Some(_) => Box::new(steps.iter().chain(repeat)),
        None => Box::new(steps.iter()),
    };
    for &step in order {
        if until.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        let Some(req) = plan.request(step) else {
            let t = Instant::now();
            client = Client::connect(addr).ok();
            connecting = Some(t);
            continue;
        };
        log.attempted += 1;
        let c = match client.as_mut() {
            Some(c) => c,
            // The connection broke earlier: open a new one for this
            // request (the failed request itself is never resent).
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    log.fail("io");
                    continue;
                }
            },
        };
        let t = Instant::now();
        let res = c.call_raw(req);
        let done = Instant::now();
        match res {
            Ok((resp, _)) if resp.ok => {
                let query = match step {
                    Step::Query(i) => Some(i),
                    _ => None,
                };
                if let Some(i) = query {
                    let answer = resp.answer_raw.unwrap_or_default();
                    match &log.first[i] {
                        Some(first) if *first != answer => {
                            log.fail("mismatch");
                            continue;
                        }
                        Some(_) => {}
                        None => log.first[i] = Some(answer),
                    }
                    match plan.workload {
                        Workload::WarmHits if !resp.cached => log.off_path += 1,
                        Workload::ColdSearch if resp.cached => log.off_path += 1,
                        _ => {}
                    }
                }
                log.lat_ns.push(((done - t).as_nanos() as u64, query));
                if trace {
                    log.spans.push(("client.request", rel(t), rel(done)));
                }
                if let Some(t0) = connecting.take() {
                    log.connect_ns.push((done - t0).as_nanos() as u64);
                    if trace {
                        log.spans.push(("client.connect", rel(t0), rel(done)));
                    }
                }
            }
            Ok((resp, _)) => {
                let kind = resp.error.map_or(ErrorKind::Internal, |e| e.kind);
                log.fail(kind.as_str());
            }
            Err(e) => {
                let kind = failure_kind(&e);
                log.fail(kind);
                if kind == "io" {
                    client = None;
                }
            }
        }
    }
    (log, Instant::now())
}
