//! Strong dependency over *all* histories: `A ▷φ β` (Defs 2-7, 2-11, 5-7).
//!
//! Deciding `∃H. A ▷φH β` looks like an unbounded search, but for finite
//! systems it is exactly a reachability question on the *self-composition*
//! of the system: run two copies in lockstep from a pair of φ-states that
//! differ only at A, and ask whether a pair differing at β is reachable.
//! This module implements that product-automaton BFS, with witness
//! reconstruction (the actual history H and state pair).
//!
//! Two engines run the same search (selected by [`Engine`]):
//!
//! - **Interpreted** — the reference implementation: every pair expansion
//!   decodes both states, walks the operation ASTs, and re-encodes.
//! - **Compiled** — the [`crate::compiled`] tables: the BFS runs over
//!   packed `u64` pair codes only, the visited structure is a flat
//!   [`BitSet`] (falling back to a hash set above
//!   [`CompileBudget::max_dense_pair_bits`]), and each frontier level is
//!   expanded in parallel on scoped threads. Candidate levels are merged
//!   sequentially in frontier order, so discovery order — and therefore
//!   the reconstructed witness and its minimal length — is identical to
//!   the interpreted engine's.
//!
//! Both engines check the goal when a pair is *discovered* (inserted into
//! the visited structure), not when it is dequeued, and both expand pairs
//! in the same frontier × operation order. They are therefore
//! observationally identical — same verdicts, same minimal witnesses, the
//! same visited-pair and depth counts (the `visited_pairs` and `levels`
//! of [`crate::telemetry::QueryReport`]), and the same first error on
//! invalid systems.
//!
//! The same search underlies sink queries (all β reachable from a source
//! set, i.e. one row of the §3.6 worth measure) and batched matrix sweeps
//! over a single compiled system. The public entry point is the
//! [`crate::query::Query`] builder — one-shot runs
//! ([`crate::query::Query::run_on`]) construct a short-lived
//! [`crate::oracle::Oracle`] per call; hold an `Oracle` yourself and use
//! [`crate::query::Query::run`] to amortise the compile and Sat(φ)
//! enumeration across many queries. Both engines report [`QueryEvent`]s (BFS levels, memo-row
//! reuse, witnesses) to an attached [`crate::telemetry::Sink`].

use std::collections::{HashMap, VecDeque};

use crate::bitset::BitSet;
use crate::compiled::{
    par_map_chunks, CompileBudget, CompiledSystem, Engine, SparseMemo, TableKind, POISON,
};
use crate::depend::SatPartition;
use crate::error::{Error, Result};
use crate::fastmap::U64Set;
use crate::history::{History, OpId};
use crate::state::State;
use crate::system::System;
use crate::telemetry::{QueryEvent, Trace};
use crate::universe::{ObjId, Universe};

/// A witness that `A ▷φ β`: the history and initial state pair.
#[derive(Debug, Clone)]
pub struct DependsWitness {
    /// The history transmitting the variety.
    pub history: History,
    /// First initial state (satisfies φ).
    pub sigma1: State,
    /// Second initial state (satisfies φ, differs from `sigma1` only at A).
    pub sigma2: State,
}

/// Caller-imposed cut-offs on one pair search: a visited-pair budget
/// and/or a wall-clock deadline. The default imposes neither.
///
/// Both cut-offs yield *structured* errors ([`Error::BudgetExhausted`],
/// [`Error::DeadlineExceeded`]) rather than partial answers, so a
/// serving layer can refuse work deterministically. The budget is
/// engine-independent: both engines discover pairs in the same order,
/// so they exhaust at the same pair. The deadline is checked once per
/// BFS level (or per enumerated history for bounded queries), bounding
/// overshoot by a single level's expansion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SearchLimits {
    /// Maximum distinct pairs the search may discover. A pair that
    /// satisfies the goal is always reported, even as the last one in
    /// budget.
    pub(crate) max_pairs: Option<u64>,
    /// Wall-clock deadline for the search.
    pub(crate) deadline: Option<std::time::Instant>,
}

impl SearchLimits {
    /// No limits: run to completion.
    pub(crate) const NONE: SearchLimits = SearchLimits {
        max_pairs: None,
        deadline: None,
    };

    #[inline]
    pub(crate) fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(Error::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    #[inline]
    fn check_pairs(&self, visited: u64) -> Result<()> {
        match self.max_pairs {
            Some(limit) if visited > limit => Err(Error::BudgetExhausted {
                visited_pairs: visited,
                limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Canonically ordered pair of encoded states.
type Pair = (u64, u64);

fn canon(a: u64, b: u64) -> Pair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The initial pair frontier: all unordered pairs of distinct φ-states
/// that differ only at A, in ascending order. Classes are disjoint and
/// internally ascending, so the pairs are already canonical and
/// duplicate-free.
fn initial_pairs(part: &SatPartition) -> Vec<Pair> {
    let mut out = Vec::new();
    for class in part.classes() {
        for (i, &c1) in class.iter().enumerate() {
            for &c2 in &class[i + 1..] {
                out.push((c1, c2));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Bumps the pair count for one BFS depth (instrumented searches only).
fn bump_depth(counts: &mut Vec<u64>, depth: usize) {
    if counts.len() <= depth {
        counts.resize(depth + 1, 0);
    }
    counts[depth] += 1;
}

/// Interpreted reference BFS over the pair graph. Calls `found` on every
/// pair as it is *discovered* (roots in ascending order, then candidates
/// in frontier × operation order — the same order the compiled merge
/// uses); when `found` returns `true` the search stops and the witness is
/// reconstructed.
pub(crate) fn interpreted_search(
    sys: &System,
    part: &SatPartition,
    limits: &SearchLimits,
    trace: &mut Trace<'_>,
    mut found: impl FnMut(u64, u64) -> bool,
) -> Result<Option<DependsWitness>> {
    let u = sys.universe();
    let num_ops = sys.num_ops() as u64;
    let tracing = trace.sink.is_some();
    // Pairs discovered per depth, maintained only when a sink is
    // attached: all of depth d is discovered before the first depth-d
    // pair is dequeued, so the count is the level's frontier size.
    let mut depth_counts: Vec<u64> = Vec::new();
    let mut last_level: i64 = -1;
    // parent: pair -> (predecessor pair, op applied). Roots map to None.
    let mut parent: HashMap<Pair, Option<(Pair, OpId)>> = HashMap::new();
    let mut queue: VecDeque<(Pair, u32)> = VecDeque::new();
    let reconstruct = |parent: &HashMap<Pair, Option<(Pair, OpId)>>, mut cur: Pair| {
        let mut ops = Vec::new();
        loop {
            match parent[&cur] {
                None => break,
                Some((prev, op)) => {
                    ops.push(op);
                    cur = prev;
                }
            }
        }
        ops.reverse();
        (cur, History::from_ops(ops))
    };
    let witness = |parent: &HashMap<Pair, Option<(Pair, OpId)>>, pair: Pair| {
        let (root, history) = reconstruct(parent, pair);
        DependsWitness {
            history,
            sigma1: State::decode(u, root.0),
            sigma2: State::decode(u, root.1),
        }
    };
    let mut levels = 0u32;
    limits.check_deadline()?;
    for p in initial_pairs(part) {
        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(p) {
            e.insert(None);
            if tracing {
                bump_depth(&mut depth_counts, 0);
            }
            if found(p.0, p.1) {
                trace.finish(parent.len() as u64, levels);
                trace.emit(|| QueryEvent::Witness { length: levels });
                return Ok(Some(witness(&parent, p)));
            }
            limits.check_pairs(parent.len() as u64)?;
            queue.push_back((p, 0));
        }
    }
    // Deadline granularity: once per BFS depth, matching the compiled
    // engine's per-level check.
    let mut deadline_depth: i64 = -1;
    while let Some((pair, depth)) = queue.pop_front() {
        if i64::from(depth) > deadline_depth {
            deadline_depth = i64::from(depth);
            limits.check_deadline()?;
        }
        if tracing && i64::from(depth) > last_level {
            last_level = i64::from(depth);
            trace.emit(|| QueryEvent::BfsLevel {
                level: depth,
                frontier: depth_counts[depth as usize],
                visited: parent.len() as u64,
            });
        }
        trace.counters.expansions += num_ops;
        let s1 = State::decode(u, pair.0);
        let s2 = State::decode(u, pair.1);
        for op in sys.op_ids() {
            let n1 = sys.apply(op, &s1)?.encode(u);
            let n2 = sys.apply(op, &s2)?.encode(u);
            if n1 == n2 {
                // Once the two runs coincide they stay equal forever
                // (operations are deterministic): no future difference at β
                // can arise from this branch.
                continue;
            }
            let next = canon(n1, n2);
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(Some((pair, op)));
                levels = levels.max(depth + 1);
                if tracing {
                    bump_depth(&mut depth_counts, depth as usize + 1);
                }
                if found(next.0, next.1) {
                    trace.finish(parent.len() as u64, levels);
                    trace.emit(|| QueryEvent::Witness { length: levels });
                    return Ok(Some(witness(&parent, next)));
                }
                limits.check_pairs(parent.len() as u64)?;
                queue.push_back((next, depth + 1));
            }
        }
    }
    trace.finish(parent.len() as u64, levels);
    Ok(None)
}

/// A discovered pair in the compiled search: packed canonical pair key
/// plus the BFS-tree edge that reached it.
#[derive(Clone, Copy)]
struct Node {
    /// Packed canonical pair `a · |Σ| + b` (`a ≤ b`), or [`POISON`] for a
    /// pending expansion error.
    key: u64,
    /// Index of the predecessor node, or [`NO_PARENT`] for roots.
    parent: u32,
    /// Operation index applied at the predecessor.
    op: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// Visited-pair structure for the compiled search: flat bitmap over
/// `|Σ|²` pair keys when that fits the budget, open-addressed
/// [`U64Set`] otherwise.
enum Visited {
    Dense(BitSet),
    Sparse(U64Set),
}

impl Visited {
    fn with_capacity(ns: u64, budget: &CompileBudget) -> Visited {
        match ns.checked_mul(ns) {
            Some(bits) if bits <= budget.max_dense_pair_bits => Visited::Dense(BitSet::new(bits)),
            _ => Visited::Sparse(U64Set::new()),
        }
    }

    fn contains(&self, key: u64) -> bool {
        match self {
            Visited::Dense(b) => b.contains(key),
            Visited::Sparse(s) => s.contains(key),
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        match self {
            Visited::Dense(b) => b.insert(key),
            Visited::Sparse(s) => s.insert(key),
        }
    }
}

/// Reusable scratch for repeated compiled searches over one system: the
/// visited structure, the BFS node arena, and the sparse row memo.
///
/// [`crate::oracle::Oracle`] keeps a pool of these so a sweep of many
/// searches allocates only on growth. Buffers must be created with the
/// same `ns`/budget as the [`CompiledSystem`] they are used with.
pub(crate) struct SearchBuffers {
    visited: Visited,
    nodes: Vec<Node>,
    memo: SparseMemo,
}

impl SearchBuffers {
    pub(crate) fn new(ns: u64, budget: &CompileBudget) -> SearchBuffers {
        SearchBuffers {
            visited: Visited::with_capacity(ns, budget),
            nodes: Vec::new(),
            memo: SparseMemo::default(),
        }
    }

    /// Clears the previous search's visited marks and node arena. The
    /// sparse row memo is retained: successor rows depend only on the
    /// system, so they stay valid across searches.
    fn reset(&mut self) {
        match &mut self.visited {
            // Every visited key has exactly one node (insert and push are
            // 1:1 in `compiled_search`), so erasing only the node keys
            // clears the bitmap in O(visited) instead of O(|Σ|²).
            Visited::Dense(b) => {
                for n in &self.nodes {
                    b.remove(n.key);
                }
            }
            Visited::Sparse(s) => s.clear(),
        }
        self.nodes.clear();
    }
}

fn push_node(nodes: &mut Vec<Node>, key: u64, parent: u32, op: u32) -> Result<usize> {
    let idx = nodes.len();
    if idx >= NO_PARENT as usize {
        return Err(Error::Invalid(
            "pair search exceeded 2^32 - 1 visited pairs".into(),
        ));
    }
    nodes.push(Node { key, parent, op });
    Ok(idx)
}

fn reconstruct_compiled(u: &Universe, nodes: &[Node], mut idx: usize, ns: u64) -> DependsWitness {
    let mut ops = Vec::new();
    loop {
        let n = nodes[idx];
        if n.parent == NO_PARENT {
            ops.reverse();
            return DependsWitness {
                history: History::from_ops(ops),
                sigma1: State::decode(u, n.key / ns),
                sigma2: State::decode(u, n.key % ns),
            };
        }
        ops.push(OpId(n.op));
        idx = n.parent as usize;
    }
}

/// Compiled BFS over packed pair codes: level-parallel expansion with a
/// sequential in-order merge (see module docs for why the merge order
/// matters).
pub(crate) fn compiled_search(
    cs: &CompiledSystem<'_>,
    part: &SatPartition,
    bufs: &mut SearchBuffers,
    limits: &SearchLimits,
    trace: &mut Trace<'_>,
    mut found: impl FnMut(u64, u64) -> bool,
) -> Result<Option<DependsWitness>> {
    let u = cs.system().universe();
    let ns = cs.state_count();
    let num_ops = cs.num_ops();
    bufs.reset();
    let SearchBuffers {
        visited,
        nodes,
        memo,
    } = bufs;

    // Roots, goal-checked in the same ascending order the interpreted
    // engine discovers them. Key order equals pair order because the
    // packing is lexicographic.
    let mut roots: Vec<u64> = Vec::new();
    for class in part.classes() {
        for (i, &c1) in class.iter().enumerate() {
            for &c2 in &class[i + 1..] {
                roots.push(c1 * ns + c2);
            }
        }
    }
    roots.sort_unstable();
    limits.check_deadline()?;
    for key in roots {
        if !visited.insert(key) {
            continue;
        }
        let idx = push_node(nodes, key, NO_PARENT, 0)?;
        if found(key / ns, key % ns) {
            trace.finish(nodes.len() as u64, 0);
            trace.emit(|| QueryEvent::Witness { length: 0 });
            return Ok(Some(reconstruct_compiled(u, nodes, idx, ns)));
        }
        limits.check_pairs(nodes.len() as u64)?;
    }

    let mut lo = 0usize;
    let mut depth = 0u32;
    let mut levels = 0u32;
    while lo < nodes.len() {
        let hi = nodes.len();
        limits.check_deadline()?;
        trace.emit(|| QueryEvent::BfsLevel {
            level: depth,
            frontier: (hi - lo) as u64,
            visited: hi as u64,
        });
        trace.counters.expansions += (hi - lo) as u64 * num_ops as u64;
        depth += 1;
        // Materialise sparse successor rows for every state in the
        // frontier (parallel, no-op for dense tables).
        if cs.kind() == TableKind::Sparse {
            let mut codes: Vec<u64> = Vec::with_capacity((hi - lo) * 2);
            for n in &nodes[lo..hi] {
                codes.push(n.key / ns);
                codes.push(n.key % ns);
            }
            codes.sort_unstable();
            codes.dedup();
            cs.ensure_rows(memo, &codes, trace);
        }
        // Expand the frontier in parallel; each chunk emits candidates in
        // frontier × op order.
        let frontier: Vec<(u64, u32)> = nodes[lo..hi]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.key, (lo + i) as u32))
            .collect();
        let memo_ref = &*memo;
        let visited_ref = &*visited;
        let candidates: Vec<Vec<Node>> = par_map_chunks(&frontier, 64, |chunk| {
            let mut out = Vec::new();
            for &(key, idx) in chunk {
                let (c1, c2) = (key / ns, key % ns);
                // One row borrow per side instead of a table lookup per
                // operation.
                let r1 = cs.row(memo_ref, c1);
                let r2 = cs.row(memo_ref, c2);
                for op in 0..num_ops {
                    let n1 = r1.succ(op);
                    let n2 = r2.succ(op);
                    if n1 == POISON || n2 == POISON {
                        // Defer the error so it surfaces in deterministic
                        // merge order.
                        out.push(Node {
                            key: POISON,
                            parent: idx,
                            op: op as u32,
                        });
                        continue;
                    }
                    if n1 == c1 && n2 == c2 {
                        // The op moved neither side, so the candidate is
                        // this very pair — already visited. Skipping here
                        // saves the hash probe; guard-heavy systems disable
                        // most operations in most states.
                        continue;
                    }
                    if n1 == n2 {
                        // Coinciding runs stay equal forever.
                        continue;
                    }
                    let key = if n1 <= n2 { n1 * ns + n2 } else { n2 * ns + n1 };
                    // Pairs already visited at level start would be dropped
                    // by the merge anyway; filtering here (a read-only
                    // probe, safe in parallel) keeps the sequential merge
                    // proportional to *novel* pairs, not to all candidates.
                    if visited_ref.contains(key) {
                        continue;
                    }
                    out.push(Node {
                        key,
                        parent: idx,
                        op: op as u32,
                    });
                }
            }
            out
        });
        lo = hi;
        // Sequential merge in frontier order: discovery order — and hence
        // witnesses — match the interpreted FIFO exactly.
        for cand in candidates.into_iter().flatten() {
            if cand.key == POISON {
                let pkey = nodes[cand.parent as usize].key;
                let op = cand.op as usize;
                let side = if cs.succ(memo, pkey / ns, op) == POISON {
                    pkey / ns
                } else {
                    pkey % ns
                };
                return Err(cs.poison_error(side, op));
            }
            if visited.insert(cand.key) {
                levels = depth;
                let idx = push_node(nodes, cand.key, cand.parent, cand.op)?;
                if found(cand.key / ns, cand.key % ns) {
                    trace.finish(nodes.len() as u64, levels);
                    trace.emit(|| QueryEvent::Witness { length: levels });
                    return Ok(Some(reconstruct_compiled(u, nodes, idx, ns)));
                }
                limits.check_pairs(nodes.len() as u64)?;
            }
        }
    }
    trace.finish(nodes.len() as u64, levels);
    Ok(None)
}

/// State spaces at or above this size cannot use packed `u64` pair keys;
/// [`Engine::Auto`] falls back to the interpreted engine there.
pub(crate) const MAX_COMPILED_STATES: u64 = u32::MAX as u64;

pub(crate) fn wants_interpreter(engine: Engine, ns: u64) -> bool {
    match engine {
        Engine::Interpreted => true,
        Engine::Auto => ns >= MAX_COMPILED_STATES,
        Engine::CompiledDense | Engine::CompiledSparse => false,
    }
}

/// When Sat(φ) is at most `1/AUTO_SPARSE_SAT_RATIO` of the state space,
/// [`Engine::Auto`] prefers lazy sparse tables even if dense tables fit
/// the budget: a thin satisfying slice usually means the pair search
/// touches a correspondingly thin reachable region, and materialising
/// dense successor rows for *every* state would cost more than the search
/// itself.
const AUTO_SPARSE_SAT_RATIO: u64 = 16;

/// Refines [`Engine::Auto`] with the size of Sat(φ) (see
/// [`AUTO_SPARSE_SAT_RATIO`]); other engines pass through unchanged.
pub(crate) fn refine_auto(engine: Engine, sat_states: u64, ns: u64) -> Engine {
    match engine {
        Engine::Auto if sat_states.saturating_mul(AUTO_SPARSE_SAT_RATIO) < ns => {
            Engine::CompiledSparse
        }
        e => e,
    }
}

/// Precomputed `(stride, domain size)` for extracting one object's index
/// from an encoded state without decoding.
pub(crate) fn extractor(u: &Universe, obj: ObjId) -> (u64, u64) {
    (u.stride(obj) as u64, u.domain(obj).size() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Phi;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::query::Query;
    use crate::telemetry::QueryReport;
    use crate::universe::{Domain, ObjSet, Universe};

    const ENGINES: [Engine; 4] = [
        Engine::Auto,
        Engine::Interpreted,
        Engine::CompiledDense,
        Engine::CompiledSparse,
    ];

    /// Shorthand: a β-target query on cloned inputs.
    fn q(phi: &Phi, a: &ObjSet, beta: ObjId) -> Query {
        Query::new(phi.clone(), a.clone()).beta(beta)
    }

    /// §3.3 system: δ1: if flag then β ← α else β ← 0;
    /// δ2: (flag ← tt; α ← x).
    fn flag_sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 2).unwrap()),
            ("beta".into(), Domain::int_range(0, 2).unwrap()),
            ("flag".into(), Domain::boolean()),
            ("x".into(), Domain::int_range(0, 2).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let flag = u.obj("flag").unwrap();
        let x = u.obj("x").unwrap();
        System::new(
            u,
            vec![
                Op::from_cmd(
                    "d1",
                    Cmd::If(
                        Expr::var(flag),
                        Box::new(Cmd::assign(b, Expr::var(a))),
                        Box::new(Cmd::assign(b, Expr::int(0))),
                    ),
                ),
                Op::from_cmd(
                    "d2",
                    Cmd::Seq(vec![
                        Cmd::assign(flag, Expr::bool(true)),
                        Cmd::assign(a, Expr::var(x)),
                    ]),
                ),
            ],
        )
    }

    #[test]
    fn initial_constraint_not_invariant_sec_3_3() {
        // φ(σ) ≡ ¬σ.flag solves ¬α ▷φ β even though δ2 later sets the
        // flag — by then δ2 has overwritten α's initial variety.
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let flag = u.obj("flag").unwrap();
        let phi = Phi::expr(Expr::var(flag).not());
        assert!(!q(&phi, &ObjSet::singleton(a), b)
            .run_on(&sys)
            .unwrap()
            .holds());
        // Without the constraint there is a flow.
        let w = q(&Phi::True, &ObjSet::singleton(a), b)
            .run_on(&sys)
            .unwrap()
            .into_witness()
            .unwrap();
        // Replay the witness to double-check it.
        let o1 = sys.run(&w.sigma1, &w.history).unwrap();
        let o2 = sys.run(&w.sigma2, &w.history).unwrap();
        assert_ne!(o1.index(b), o2.index(b));
        assert!(w.sigma1.eq_except(&w.sigma2, &ObjSet::singleton(a)));
    }

    #[test]
    fn bfs_agrees_with_bounded_enumeration() {
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        for src in ["alpha", "flag", "x"] {
            let a = ObjSet::singleton(u.obj(src).unwrap());
            for phi in [
                Phi::True,
                Phi::expr(Expr::var(u.obj("flag").unwrap()).not()),
            ] {
                let exact = q(&phi, &a, b).run_on(&sys).unwrap().holds();
                let brute = q(&phi, &a, b).bounded(4).run_on(&sys).unwrap().holds();
                // Histories of length ≤ 4 are enough in this tiny system.
                assert_eq!(exact, brute, "mismatch for source {src}");
            }
        }
    }

    #[test]
    fn sinks_row() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let x = u.obj("x").unwrap();
        let from_x = Query::new(Phi::True, ObjSet::singleton(x))
            .run_on(&sys)
            .unwrap()
            .into_sinks()
            .unwrap();
        // x flows to α (δ2), then to β (δ1), and stays in x.
        assert!(from_x.contains(x) && from_x.contains(a) && from_x.contains(b));
        // β never flows anywhere else.
        let from_b = Query::new(Phi::True, ObjSet::singleton(b))
            .run_on(&sys)
            .unwrap()
            .into_sinks()
            .unwrap();
        assert_eq!(from_b, ObjSet::singleton(b));
    }

    #[test]
    fn set_target_needs_simultaneous_difference() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        // α reaches {α, β} simultaneously (before δ2 destroys α).
        let ab = ObjSet::from_iter([a, b]);
        assert!(Query::new(Phi::True, ObjSet::singleton(a))
            .set(ab)
            .run_on(&sys)
            .unwrap()
            .holds());
        assert!(!Query::new(Phi::True, ObjSet::singleton(a))
            .set(ObjSet::empty())
            .run_on(&sys)
            .unwrap()
            .holds());
    }

    #[test]
    fn witness_history_is_minimal_length() {
        // BFS explores by increasing depth, so the witness history is as
        // short as possible — under every engine.
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        for engine in ENGINES {
            let w = q(&Phi::True, &ObjSet::singleton(a), b)
                .engine(engine)
                .run_on(&sys)
                .unwrap()
                .into_witness()
                .unwrap();
            assert_eq!(w.history.len(), 1, "flag=true states allow a 1-step flow");
        }
    }

    #[test]
    fn engines_agree_on_flag_sys() {
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        for src in ["alpha", "beta", "flag", "x"] {
            let a = ObjSet::singleton(u.obj(src).unwrap());
            for phi in [
                Phi::True,
                Phi::expr(Expr::var(u.obj("flag").unwrap()).not()),
            ] {
                let reference = q(&phi, &a, b)
                    .engine(Engine::Interpreted)
                    .run_on(&sys)
                    .unwrap()
                    .into_witness()
                    .map(|w| (w.history, w.sigma1, w.sigma2));
                let ref_sinks = Query::new(phi.clone(), a.clone())
                    .engine(Engine::Interpreted)
                    .run_on(&sys)
                    .unwrap()
                    .into_sinks()
                    .unwrap();
                for engine in [Engine::Auto, Engine::CompiledDense, Engine::CompiledSparse] {
                    let got = q(&phi, &a, b)
                        .engine(engine)
                        .run_on(&sys)
                        .unwrap()
                        .into_witness()
                        .map(|w| (w.history, w.sigma1, w.sigma2));
                    assert_eq!(got, reference, "depends mismatch for {src} / {engine:?}");
                    let got_sinks = Query::new(phi.clone(), a.clone())
                        .engine(engine)
                        .run_on(&sys)
                        .unwrap()
                        .into_sinks()
                        .unwrap();
                    assert_eq!(
                        got_sinks, ref_sinks,
                        "sinks mismatch for {src} / {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sinks_matrix_matches_rowwise_sinks() {
        let sys = flag_sys();
        let u = sys.universe();
        let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
        let budget = CompileBudget::default();
        for engine in ENGINES {
            let rows = Query::matrix(Phi::True, sources.clone())
                .engine(engine)
                .budget(budget)
                .run_on(&sys)
                .unwrap()
                .into_rows()
                .unwrap();
            for (src, row) in sources.iter().zip(&rows) {
                let single = Query::new(Phi::True, src.clone())
                    .run_on(&sys)
                    .unwrap()
                    .into_sinks()
                    .unwrap();
                assert_eq!(*row, single, "matrix row mismatch for {src:?}");
            }
        }
        assert!(Query::matrix(Phi::True, Vec::new())
            .run_on(&sys)
            .unwrap()
            .into_rows()
            .unwrap()
            .is_empty());
    }

    /// Runs one engine directly and returns its `(visited_pairs, levels)`
    /// count alongside the witness.
    fn search_counts(
        cs: Option<&CompiledSystem<'_>>,
        sys: &System,
        part: &SatPartition,
        bufs: &mut SearchBuffers,
        found: impl FnMut(u64, u64) -> bool,
    ) -> (Option<DependsWitness>, (u64, u32)) {
        let mut trace = Trace::disabled();
        let witness = match cs {
            None => interpreted_search(sys, part, &SearchLimits::NONE, &mut trace, found),
            Some(cs) => compiled_search(cs, part, bufs, &SearchLimits::NONE, &mut trace, found),
        }
        .unwrap();
        (
            witness,
            (trace.counters.visited_pairs, trace.counters.levels),
        )
    }

    #[test]
    fn report_counts_engine_and_depth() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let b = u.obj("beta").unwrap();
        let budget = CompileBudget::default();
        let mut early: Vec<QueryReport> = Vec::new();
        for (engine, name) in [
            (Engine::Interpreted, "interpreted"),
            (Engine::CompiledDense, "compiled-dense"),
            (Engine::CompiledSparse, "compiled-sparse"),
        ] {
            let out = q(&Phi::True, &a, b).engine(engine).run_on(&sys).unwrap();
            let report = out.report;
            assert_eq!(report.engine, name);
            assert!(report.visited_pairs > 0);
            assert!(report.pair_expansions > 0);
            assert_eq!(
                report.levels as usize,
                out.into_witness().unwrap().history.len()
            );
            early.push(report);
        }
        // Every engine goal-checks at discovery, so early-exit searches
        // count the same pairs and depth.
        for report in &early[1..] {
            assert_eq!(report.visited_pairs, early[0].visited_pairs);
            assert_eq!(report.levels, early[0].levels);
        }
        // Exhaustive searches count exactly the same reachable pairs: a
        // goal that never triggers keeps the sweep exhaustive.
        let ns = sys.state_count().unwrap();
        let part = SatPartition::new(&sys, &Phi::True, &a).unwrap();
        let cs = CompiledSystem::compile(&sys, Engine::CompiledDense, &budget).unwrap();
        let mut bufs = SearchBuffers::new(ns, &budget);
        let (_, interpreted) = search_counts(None, &sys, &part, &mut bufs, |_, _| false);
        let (_, compiled) = search_counts(Some(&cs), &sys, &part, &mut bufs, |_, _| false);
        assert_eq!(interpreted, compiled);
    }

    #[test]
    fn buffers_reused_across_searches_do_not_leak() {
        // One SearchBuffers driven through early-exit and exhaustive
        // searches over different sources must match fresh buffers
        // every time.
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        let budget = CompileBudget::default();
        let ns = sys.state_count().unwrap();
        let (b_stride, b_dom) = extractor(u, b);
        let goal = |c1: u64, c2: u64| (c1 / b_stride) % b_dom != (c2 / b_stride) % b_dom;
        let fields = |(w, counts): (Option<DependsWitness>, (u64, u32))| {
            (w.map(|w| (w.history, w.sigma1, w.sigma2)), counts)
        };
        for engine in [Engine::CompiledDense, Engine::CompiledSparse] {
            let cs = CompiledSystem::compile(&sys, engine, &budget).unwrap();
            let mut reused = SearchBuffers::new(ns, &budget);
            for _round in 0..3 {
                for src in ["alpha", "beta", "flag", "x"] {
                    let a = ObjSet::singleton(u.obj(src).unwrap());
                    let part = SatPartition::new(&sys, &Phi::True, &a).unwrap();
                    // Early-exit search (leaves the buffers mid-sweep),
                    // then an exhaustive one.
                    let mut fresh = SearchBuffers::new(ns, &budget);
                    let want = search_counts(Some(&cs), &sys, &part, &mut fresh, goal);
                    let got = search_counts(Some(&cs), &sys, &part, &mut reused, goal);
                    assert_eq!(fields(got), fields(want), "diverges for {src} / {engine:?}");
                    let mut fresh = SearchBuffers::new(ns, &budget);
                    let want = search_counts(Some(&cs), &sys, &part, &mut fresh, |_, _| false);
                    let got = search_counts(Some(&cs), &sys, &part, &mut reused, |_, _| false);
                    assert_eq!(got.1, want.1, "exhaustive counts diverge for {src}");
                }
            }
        }
    }

    #[test]
    fn auto_falls_back_below_budget() {
        // A budget of zero dense entries forces sparse tables; the result
        // is unchanged.
        let sys = flag_sys();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let b = u.obj("beta").unwrap();
        let tiny = CompileBudget {
            max_dense_entries: 0,
            max_dense_pair_bits: 0,
        };
        let out = q(&Phi::True, &a, b).budget(tiny).run_on(&sys).unwrap();
        assert_eq!(out.report.engine, "compiled-sparse");
        assert!(out.holds());
    }
}
