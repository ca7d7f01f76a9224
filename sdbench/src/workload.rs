//! The three workloads, each generated from a seed. The server only
//! ever sees the generated requests; `README.md` says why each exists.

use std::collections::HashSet;
use std::hash::Hasher;
use std::time::Duration;

use sd_core::Fnv64;
use sd_server::proto::encode_frame;
use sd_server::{Config, Frame, QueryReq, Request, SystemDesc};

use crate::rng::{Rng, Zipf};

/// A `--trace 0` run measures this many passes, each on a fresh server
/// and each running the same plan.
pub const PASSES: u64 = 9;
/// Shuffled copies of the warm-hits pool in each client's request
/// stream, which is cycled until the pass time is up.
const WARM_ROUNDS: usize = 13;
/// cold-search sends this many distinct queries per pass and second of
/// `--seconds` (capped by the ~1,240 distinct queries there are): a
/// fixed count, because per-query cost is heavy-tailed.
const COLD_PER_SECOND: usize = 125;
/// cli-sessions runs this many sessions per pass and second of
/// `--seconds`.
const SESSIONS_PER_SECOND: usize = 17;
/// Queries per cli-sessions session, after its `register`.
const SESSION_QUERIES: usize = 5;
/// Skew of the cli-sessions query popularity.
const CLI_ZIPF: f64 = 1.5;
/// Every this-many-th session registers a fresh program.
const FRESH_EVERY: usize = 10;
/// cli-sessions: distinct queries per known system (6 systems, so the
/// pool is larger than the result cache below).
const CLI_POOL: usize = 250;
/// cli-sessions: φ family size per known system.
const CLI_PHIS: usize = 40;
/// cli-sessions result-cache capacity (`--cache-cap`).
const CLI_CACHE_CAP: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHits,
    ColdSearch,
    CliSessions,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-hits" => Some(Workload::WarmHits),
            "cold-search" => Some(Workload::ColdSearch),
            "cli-sessions" => Some(Workload::CliSessions),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "warm-hits",
            Workload::ColdSearch => "cold-search",
            Workload::CliSessions => "cli-sessions",
        }
    }
}

/// One step of a client's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Close the current connection, if any, and open a new one.
    Connect,
    /// Register `plan.systems[i]`.
    Register(usize),
    /// Send `plan.queries[i]`.
    Query(usize),
}

/// A generated workload: what to register, what to ask, and in which
/// order each client asks it.
pub struct Plan {
    pub workload: Workload,
    /// Every system the run registers.
    pub systems: Vec<SystemDesc>,
    /// Systems registered during set-up.
    pub preload: Vec<usize>,
    /// Queries sent once during set-up to fill the result cache.
    pub warm: Vec<usize>,
    /// Every distinct query of the run.
    pub queries: Vec<QueryReq>,
    /// One closed-loop step list per client.
    pub clients: Vec<Vec<Step>>,
    /// `Some(t)`: clients cycle through their steps for `t` per pass.
    /// `None`: each list runs once per pass (a fixed count).
    pub pass_time: Option<Duration>,
    pub cache_cap: usize,
    pub registry_cap: usize,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, seconds: u64, clients: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let seconds = seconds as usize;
        let pass_time = Duration::from_secs(seconds as u64) / PASSES as u32;
        match workload {
            Workload::WarmHits => warm_hits(&mut rng, clients, pass_time),
            Workload::ColdSearch => cold_search(&mut rng, clients, COLD_PER_SECOND * seconds),
            Workload::CliSessions => cli_sessions(&mut rng, clients, SESSIONS_PER_SECOND * seconds),
        }
    }

    /// The `sdserved` flags this workload needs beyond the defaults.
    pub fn server_flags(&self) -> Vec<String> {
        let defaults = Config::default();
        let mut flags = Vec::new();
        if self.cache_cap != defaults.cache_cap {
            flags.extend(["--cache-cap".to_string(), self.cache_cap.to_string()]);
        }
        if self.registry_cap != defaults.registry_cap {
            flags.extend(["--registry-cap".to_string(), self.registry_cap.to_string()]);
        }
        flags
    }

    /// The request a step sends, if any.
    pub fn request(&self, step: Step) -> Option<Request> {
        match step {
            Step::Connect => None,
            Step::Register(i) => Some(Request::Register(self.systems[i].clone())),
            Step::Query(i) => Some(Request::Query(self.queries[i].clone())),
        }
    }

    /// Total steps across clients, for one pass.
    pub fn requests_per_pass(&self) -> usize {
        self.clients
            .iter()
            .flatten()
            .filter(|s| **s != Step::Connect)
            .count()
    }

    /// Every step in the order the traced replay runs them: set-up,
    /// then one pass of the clients' lists, interleaved round-robin.
    pub fn replay_order(&self) -> Vec<Step> {
        let mut order: Vec<Step> = self.preload.iter().map(|&i| Step::Register(i)).collect();
        order.extend(self.warm.iter().map(|&i| Step::Query(i)));
        let longest = self.clients.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            order.extend(self.clients.iter().filter_map(|c| c.get(k).copied()));
        }
        order
    }

    /// A hash of every request in replay order: a different seed must
    /// change it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for step in self.replay_order() {
            match self.request(step) {
                None => h.write_u8(0),
                Some(req) => h.write(encode_frame(&Frame { id: None, req }).as_bytes()),
            }
        }
        h.digest()
    }
}

fn example(name: &str, params: &[i64]) -> SystemDesc {
    SystemDesc::Example {
        name: name.into(),
        params: params.to_vec(),
    }
}

/// Every non-empty subset of `objs` with at most `max` members.
fn subsets(objs: &[&str], max: usize) -> Vec<Vec<String>> {
    (1u32..1 << objs.len())
        .filter(|mask| mask.count_ones() as usize <= max)
        .map(|mask| {
            (0..objs.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| objs[i].to_string())
                .collect()
        })
        .collect()
}

fn with_phi(mut q: QueryReq, phi: &str) -> QueryReq {
    if !phi.is_empty() {
        q.phi = Some(phi.to_string());
    }
    q
}

/// Every `sinks(A)` and `depends(A, β)` query over `objs` under each
/// φ, for A of at most `max_a` objects.
fn relation_queries(key: u64, objs: &[&str], phis: &[&str], max_a: usize) -> Vec<QueryReq> {
    let mut out = Vec::new();
    for phi in phis {
        for a in subsets(objs, max_a) {
            out.push(with_phi(QueryReq::sinks(key, a.clone()), phi));
            for beta in objs {
                out.push(with_phi(QueryReq::depends(key, a.clone(), *beta), phi));
            }
        }
    }
    out
}

fn warm_hits(rng: &mut Rng, clients: usize, pass_time: Duration) -> Plan {
    let families: [(SystemDesc, &[&str], &[&str]); 2] = [
        (
            example("flag_copy", &[3]),
            &["alpha", "beta", "flag", "x"],
            &["", "flag", "x < 2"],
        ),
        (
            example("guarded_copy", &[3]),
            &["alpha", "beta", "m"],
            &["", "m", "!m"],
        ),
    ];
    let mut queries = Vec::new();
    for (desc, objs, phis) in &families {
        queries.extend(relation_queries(desc.content_key(), objs, phis, objs.len()));
    }
    // The whole pool (309 queries, well under the default cache), each
    // asked equally often: seeds change the order, never the mix.
    let clients = (0..clients)
        .map(|_| {
            let mut steps = vec![Step::Connect];
            for _ in 0..WARM_ROUNDS {
                let mut round: Vec<Step> = (0..queries.len()).map(Step::Query).collect();
                rng.shuffle(&mut round);
                steps.extend(round);
            }
            steps
        })
        .collect();
    let defaults = Config::default();
    Plan {
        workload: Workload::WarmHits,
        systems: families.into_iter().map(|(d, _, _)| d).collect(),
        preload: vec![0, 1],
        warm: (0..queries.len()).collect(),
        queries,
        clients,
        pass_time: Some(pass_time),
        cache_cap: defaults.cache_cap,
        registry_cap: defaults.registry_cap,
    }
}

fn cold_search(rng: &mut Rng, clients: usize, count: usize) -> Plan {
    let flag: &[&str] = &["alpha", "beta", "flag", "x"];
    let flag_phis: &[&str] = &["", "flag", "!flag", "x < 4", "alpha != x"];
    let families: [(SystemDesc, &[&str], &[&str]); 6] = [
        (
            example("nontransitive", &[12]),
            &["alpha", "beta", "m", "q"],
            &["", "q", "!q", "alpha < 6", "m != beta"],
        ),
        (
            example("mod_adder", &[4]),
            &["a1", "a2", "beta"],
            &["", "a1 < 8", "a2 == 0", "a1 != a2"],
        ),
        (example("flag_copy", &[8]), flag, flag_phis),
        (example("flag_copy", &[12]), flag, flag_phis),
        (example("flag_copy", &[10]), flag, flag_phis),
        // Record-valued objects: φ cannot name them, so only tt.
        (
            example("pointer_chain", &[3, 3]),
            &["o0", "o1", "o2"],
            &[""],
        ),
    ];
    // A of at most two objects: larger sets make the pair search (and
    // the server's memory) explode.
    let mut universe = Vec::new();
    for (desc, objs, phis) in &families {
        let key = desc.content_key();
        universe.extend(relation_queries(key, objs, phis, 2));
        // Matrices: one row per object, and each drop-one-row variant.
        let singles = subsets(objs, 1);
        for phi in *phis {
            universe.push(with_phi(QueryReq::matrix(key, singles.clone()), phi));
            for skip in 0..singles.len() {
                let mut rows = singles.clone();
                rows.remove(skip);
                universe.push(with_phi(QueryReq::matrix(key, rows), phi));
            }
        }
    }
    rng.shuffle(&mut universe);
    universe.truncate(count.min(universe.len()));
    let mut steps: Vec<Vec<Step>> = vec![vec![Step::Connect]; clients];
    for i in 0..universe.len() {
        steps[i % clients].push(Step::Query(i));
    }
    let defaults = Config::default();
    Plan {
        workload: Workload::ColdSearch,
        systems: families.into_iter().map(|(d, _, _)| d).collect(),
        preload: (0..6).collect(),
        warm: Vec::new(),
        queries: universe,
        clients: steps,
        pass_time: None,
        cache_cap: defaults.cache_cap,
        registry_cap: defaults.registry_cap,
    }
}

/// A φ-expressible variable: its name and integer range (`None` for a
/// boolean).
type Var = (String, Option<(i64, i64)>);

fn vars(spec: &[(&str, Option<(i64, i64)>)]) -> Vec<Var> {
    spec.iter().map(|(n, r)| (n.to_string(), *r)).collect()
}

/// Atomic constraints over `vars`, then conjunctions of two atoms on
/// distinct variables: a large φ family.
fn phi_family(vars: &[Var]) -> Vec<String> {
    let mut atoms: Vec<(usize, String)> = Vec::new();
    for (i, (name, range)) in vars.iter().enumerate() {
        match range {
            None => {
                atoms.push((i, name.clone()));
                atoms.push((i, format!("!{name}")));
            }
            Some((lo, hi)) => {
                for c in *lo..=*hi {
                    atoms.push((i, format!("{name} == {c}")));
                    if c > *lo {
                        atoms.push((i, format!("{name} < {c}")));
                    }
                }
            }
        }
    }
    let mut family: Vec<String> = atoms.iter().map(|(_, a)| a.clone()).collect();
    for (x, (vx, ax)) in atoms.iter().enumerate() {
        for (vy, ay) in &atoms[x + 1..] {
            if vx != vy {
                family.push(format!("{ax} && {ay}"));
            }
        }
    }
    family
}

/// A seeded sd-lang program over five small variables; it always
/// parses and compiles.
fn fresh_program(rng: &mut Rng) -> String {
    const B: [&str; 2] = ["b0", "b1"];
    const N: [&str; 3] = ["n0", "n1", "n2"];
    let mut src = String::from(
        "var b0: bool;\nvar b1: bool;\nvar n0: int 0..3;\nvar n1: int 0..3;\nvar n2: int 0..3;\n",
    );
    for _ in 0..3 + rng.below(3) {
        let (b, b2) = (rng.pick(&B), rng.pick(&B));
        let (n, m, k) = (rng.pick(&N), rng.pick(&N), rng.pick(&N));
        let c = 1 + rng.below(3);
        let stmt = match rng.below(5) {
            0 => format!("{n} := {m};"),
            1 => format!("{n} := ({m} + {k}) % 4;"),
            2 => format!("if {b} {{ {n} := {m}; }}"),
            3 => format!("if {n} < {c} {{ {b} := true; }} else {{ {b} := false; }}"),
            _ => format!("{b} := !{b2};"),
        };
        src.push_str(&stmt);
        src.push('\n');
    }
    src
}

/// `count` random queries over `vars` (`depends` twice as often as
/// `sinks`, A of one or two variables), distinct by their wire form.
fn random_queries(
    rng: &mut Rng,
    key: u64,
    vars: &[Var],
    phis: &[String],
    count: usize,
) -> Vec<QueryReq> {
    let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
    let sets = subsets(&names, 2);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < count {
        let a = rng.pick(&sets).clone();
        let q = match rng.below(3) {
            0 => QueryReq::sinks(key, a),
            _ => QueryReq::depends(key, a, *rng.pick(&names)),
        };
        let phi: &String = rng.pick(phis);
        let q = with_phi(q, phi);
        if seen.insert(encode_frame(&Frame {
            id: None,
            req: Request::Query(q.clone()),
        })) {
            out.push(q);
        }
    }
    out
}

fn cli_sessions(rng: &mut Rng, clients: usize, sessions: usize) -> Plan {
    let int = |hi| Some((0, hi));
    let known: Vec<(SystemDesc, Vec<Var>)> = vec![
        (
            example("guarded_copy", &[4]),
            vars(&[("alpha", int(3)), ("beta", int(3)), ("m", None)]),
        ),
        (
            example("flag_copy", &[4]),
            vars(&[
                ("alpha", int(3)),
                ("beta", int(3)),
                ("flag", None),
                ("x", int(3)),
            ]),
        ),
        (
            example("nontransitive", &[4]),
            vars(&[
                ("alpha", int(3)),
                ("beta", int(3)),
                ("m", int(3)),
                ("q", None),
            ]),
        ),
        (
            example("mod_adder", &[2]),
            vars(&[("a1", int(3)), ("a2", int(3)), ("beta", int(3))]),
        ),
        (
            SystemDesc::Program {
                source:
                    "var alpha: int 0..1;\nvar beta: int 0..1;\nvar q: int 0..15;\nvar t: bool;\n\
                         if q > 10 { t := true; } else { t := false; }\nif t { beta := alpha; }\n"
                        .into(),
            },
            vars(&[
                ("alpha", int(1)),
                ("beta", int(1)),
                ("q", int(15)),
                ("t", None),
            ]),
        ),
        (
            SystemDesc::Program {
                source: "var a: int 0..3;\nvar b: int 0..3;\nvar t: int 0..3;\nvar s: bool;\n\
                         if s { t := a; a := b; b := t; }\n"
                    .into(),
            },
            vars(&[("a", int(3)), ("b", int(3)), ("t", int(3)), ("s", None)]),
        ),
    ];
    let mut systems = Vec::new();
    let mut queries = Vec::new();
    // Per known system: the first index of its pool in `queries`.
    let mut pools = Vec::new();
    for (desc, vars) in &known {
        let mut phis = phi_family(vars);
        rng.shuffle(&mut phis);
        phis.truncate(CLI_PHIS);
        pools.push(queries.len());
        queries.extend(random_queries(
            rng,
            desc.content_key(),
            vars,
            &phis,
            CLI_POOL,
        ));
        systems.push(desc.clone());
    }
    let zipf = Zipf::new(CLI_POOL, CLI_ZIPF);
    let fresh_vars = vars(&[
        ("b0", None),
        ("b1", None),
        ("n0", int(3)),
        ("n1", int(3)),
        ("n2", int(3)),
    ]);
    let fresh_phis: Vec<String> = ["", "b0", "n0 < 2", "b1 && n2 == 0"]
        .map(String::from)
        .to_vec();
    let mut sources = HashSet::new();
    let mut steps: Vec<Vec<Step>> = vec![Vec::new(); clients];
    for s in 0..sessions {
        let client = &mut steps[s % clients];
        client.push(Step::Connect);
        if s % FRESH_EVERY == FRESH_EVERY - 1 {
            let source = loop {
                let src = fresh_program(rng);
                if sources.insert(src.clone()) {
                    break src;
                }
            };
            let desc = SystemDesc::Program { source };
            client.push(Step::Register(systems.len()));
            let first = queries.len();
            queries.extend(random_queries(
                rng,
                desc.content_key(),
                &fresh_vars,
                &fresh_phis,
                SESSION_QUERIES,
            ));
            client.extend((first..queries.len()).map(Step::Query));
            systems.push(desc);
        } else {
            let sys = rng.below(known.len());
            client.push(Step::Register(sys));
            for _ in 0..SESSION_QUERIES {
                client.push(Step::Query(pools[sys] + zipf.sample(rng)));
            }
        }
    }
    Plan {
        workload: Workload::CliSessions,
        registry_cap: systems.len() + 8,
        systems,
        preload: (0..known.len()).collect(),
        warm: Vec::new(),
        queries,
        clients: steps,
        pass_time: None,
        cache_cap: CLI_CACHE_CAP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    const ALL: [Workload; 3] = [
        Workload::WarmHits,
        Workload::ColdSearch,
        Workload::CliSessions,
    ];

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in ALL {
            let a = Plan::generate(w, 7, 10, 2).fingerprint();
            assert_eq!(a, Plan::generate(w, 7, 10, 2).fingerprint(), "{w:?}");
            assert_ne!(a, Plan::generate(w, 8, 10, 2).fingerprint(), "{w:?}");
        }
    }

    /// Every registration builds and every query resolves, so no
    /// operation of a workload fails by construction.
    #[test]
    fn every_request_is_well_formed() {
        for w in ALL {
            let plan = Plan::generate(w, 3, 10, 2);
            let systems: Vec<_> = plan
                .systems
                .iter()
                .map(|d| {
                    (
                        d.content_key(),
                        check::build_system(d).expect("system builds"),
                    )
                })
                .collect();
            for req in &plan.queries {
                let (_, sys) = systems
                    .iter()
                    .find(|(k, _)| *k == req.system)
                    .expect("query names a plan system");
                let phi = check::lower(sys, req).expect("phi lowers");
                check::build_query(sys, req, phi).expect("query builds");
            }
        }
    }
}
