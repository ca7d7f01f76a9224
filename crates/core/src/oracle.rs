//! Compile-once query sessions: the [`Oracle`].
//!
//! Every decision procedure in this crate reduces to repeated questions
//! about one fixed system — pair reachability for `A ▷φ β`, successor
//! rows for the induction kernels, Sat(φ) enumerations for everything.
//! Before this module existed each public entry point recompiled the
//! system and re-enumerated Sat(φ) per call; an [`Oracle`] pins those
//! system-wide artefacts in one place instead:
//!
//! - the compiled successor tables, built **once** at construction (or
//!   not at all when the engine is the interpreter — see below);
//! - interned `Sat(φ)` enumerations, keyed by structural φ equality
//!   (never re-enumerated for a φ the Oracle has already seen);
//! - a pool of reusable search buffers (visited structure, BFS node
//!   arena, sparse row memo), so a sweep of thousands of pair searches
//!   allocates only on growth;
//! - a shared sparse-row cache behind `Oracle::with_succ`, the one
//!   successor lookup of the op-kernel sweeps in [`crate::induction`],
//!   [`crate::cover`] and [`crate::classify`] and the image enumeration
//!   of [`crate::after`].
//!
//! An Oracle has no query methods of its own: [`crate::query::Query`] is
//! the one public way to ask. One-shot [`crate::query::Query::run_on`]
//! runs construct a short-lived Oracle per call, so there is exactly one
//! code path; [`crate::query::Query::run`] and the provers
//! ([`crate::solve`], [`crate::cover`], [`crate::induction`],
//! [`crate::after`]) take the caller's Oracle, so many searches and
//! proofs share one compile, which is where the compile-once payoff
//! lands.
//!
//! # When does an Oracle interpret instead of compiling?
//!
//! Only under [`Engine::Interpreted`]; then every search runs on the
//! interpreted reference engine and [`OracleStats::compiles`] stays 0.
//! Every other engine compiles: a [`System`] enumerates at most 2²⁶
//! states, so state codes always fit the `u32` dense tables and packed
//! `u64` pair keys. [`Engine::Auto`] picks dense tables when they fit the
//! [`CompileBudget`] and lazy sparse rows otherwise — or, for the
//! short-lived Oracle of a one-shot run, when the query's φ has a thin
//! satisfying set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::compiled::{
    par_map_chunks, CompileBudget, CompiledSystem, Engine, SparseMemo, TableKind, POISON,
};
use crate::constraint::Phi;
use crate::depend::{self, SatPartition};
use crate::error::Result;
use crate::history::OpId;
use crate::reach::{
    self, compiled_search, interpreted_search, DependsWitness, SearchBuffers, SearchLimits,
};
use crate::state::State;
use crate::system::System;
use crate::telemetry::{QueryEvent, Sink, Trace, TraceCounters};
use crate::universe::{ObjId, ObjSet};

/// Counters describing the work an [`Oracle`] has performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of times the system was compiled (0 when the Oracle runs
    /// interpreted, 1 otherwise — construction is the only compile).
    pub compiles: u64,
    /// Number of pair searches run through the Oracle.
    pub searches: u64,
    /// Number of distinct φ whose Sat(φ) enumeration is interned.
    pub interned_phis: u64,
}

/// A compile-once query session over one [`System`]. See the module docs
/// for what is shared; see [`crate::reach`] for the search semantics.
///
/// An `Oracle` is `Sync`: the provers share one by reference across
/// scoped worker threads (pieces, cylinder classes, worth-matrix rows).
///
/// # Examples
///
/// ```
/// use sd_core::{examples, ObjSet, Oracle, Phi, Query};
///
/// let sys = examples::flag_copy_system(3)?;
/// let u = sys.universe();
/// let oracle = Oracle::new(&sys)?;
/// // Many queries, one compile.
/// for obj in u.objects() {
///     let _ = Query::new(Phi::True, ObjSet::singleton(obj)).run(&oracle)?;
/// }
/// assert_eq!(oracle.stats().compiles, 1);
/// # Ok::<(), sd_core::Error>(())
/// ```
pub struct Oracle<'s> {
    sys: &'s System,
    ns: u64,
    budget: CompileBudget,
    /// `None` ⇒ every search runs interpreted.
    compiled: Option<CompiledSystem<'s>>,
    /// Interned Sat(φ) enumerations, keyed by [`Phi::cache_eq`]. A
    /// linear scan: provers use a handful of distinct φ.
    sat_cache: Mutex<Vec<(Phi, Arc<Vec<u64>>)>>,
    /// Reusable search buffers (one per concurrently running search).
    pool: Mutex<Vec<SearchBuffers>>,
    /// Shared sparse-row cache for op-kernel sweeps.
    rows: Mutex<SparseMemo>,
    /// Telemetry sink, attached at construction so compile events are
    /// observable. `None` ⇒ uninstrumented (one branch per emission
    /// site, no event construction).
    sink: Option<Arc<dyn Sink>>,
    compiles: u64,
    searches: AtomicU64,
}

impl<'s> Oracle<'s> {
    /// An Oracle with [`Engine::Auto`], the default budget and no sink.
    pub fn new(sys: &'s System) -> Result<Oracle<'s>> {
        Oracle::with_engine(sys, Engine::Auto, &CompileBudget::default(), None)
    }

    /// An Oracle with an explicit engine and budget. With a `sink`, every
    /// compile, partition lookup and search reports [`QueryEvent`]s to
    /// it; the sink is attached here because compilation happens here.
    pub fn with_engine(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
        sink: Option<Arc<dyn Sink>>,
    ) -> Result<Oracle<'s>> {
        Oracle::build(sys, engine, budget, None, sink)
    }

    /// An Oracle tuned for queries under one constraint, as one-shot
    /// [`crate::query::Query::run_on`] runs construct per call: Sat(φ) is
    /// enumerated up front (and interned), and [`Engine::Auto`] refines on
    /// its thinness.
    pub(crate) fn for_phi_sink(
        sys: &'s System,
        phi: &Phi,
        engine: Engine,
        budget: &CompileBudget,
        sink: Option<Arc<dyn Sink>>,
    ) -> Result<Oracle<'s>> {
        let codes = Arc::new(depend::sat_codes(sys, phi)?);
        if let Some(s) = &sink {
            s.record(&QueryEvent::PartitionMiss {
                states: codes.len() as u64,
            });
        }
        let oracle = Oracle::build(sys, engine, budget, Some(codes.len() as u64), sink)?;
        oracle
            .sat_cache
            .lock()
            .expect("sat cache lock")
            .push((phi.clone(), codes));
        Ok(oracle)
    }

    fn build(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
        sat_hint: Option<u64>,
        sink: Option<Arc<dyn Sink>>,
    ) -> Result<Oracle<'s>> {
        let ns = sys.state_count()?;
        let compiled = if engine == Engine::Interpreted {
            None
        } else {
            let engine = reach::refine_auto(engine, sat_hint.unwrap_or(ns), ns);
            if let Some(s) = &sink {
                s.record(&QueryEvent::CompileStart {
                    states: ns,
                    ops: sys.num_ops() as u64,
                });
            }
            let start = std::time::Instant::now();
            let cs = CompiledSystem::compile(sys, engine, budget)?;
            if let Some(s) = &sink {
                s.record(&QueryEvent::CompileFinish {
                    kind: match cs.kind() {
                        TableKind::Dense => "compiled-dense",
                        TableKind::Sparse => "compiled-sparse",
                    },
                    wall_ns: start.elapsed().as_nanos() as u64,
                });
            }
            Some(cs)
        };
        let compiles = u64::from(compiled.is_some());
        Ok(Oracle {
            sys,
            ns,
            budget: *budget,
            compiled,
            sat_cache: Mutex::new(Vec::new()),
            pool: Mutex::new(Vec::new()),
            rows: Mutex::new(SparseMemo::default()),
            sink,
            compiles,
            searches: AtomicU64::new(0),
        })
    }

    /// The underlying system.
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// Work counters so far.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            compiles: self.compiles,
            searches: self.searches.load(Ordering::Relaxed),
            interned_phis: self.sat_cache.lock().expect("sat cache lock").len() as u64,
        }
    }

    /// The telemetry sink attached at construction, if any.
    pub(crate) fn sink_ref(&self) -> Option<&dyn Sink> {
        self.sink.as_deref()
    }

    /// Whether `Sat(φ)` for this φ is already interned (i.e. a query on
    /// it would hit the partition cache).
    pub fn phi_interned(&self, phi: &Phi) -> bool {
        self.sat_cache
            .lock()
            .expect("sat cache lock")
            .iter()
            .any(|(p, _)| p.cache_eq(phi))
    }

    /// The engine label searches through this Oracle report.
    pub(crate) fn engine_name(&self) -> &'static str {
        match &self.compiled {
            None => "interpreted",
            Some(cs) => match cs.kind() {
                TableKind::Dense => "compiled-dense",
                TableKind::Sparse => "compiled-sparse",
            },
        }
    }

    /// Table layout of the compiled system, `None` when interpreted.
    pub(crate) fn table_kind(&self) -> Option<TableKind> {
        self.compiled.as_ref().map(|cs| cs.kind())
    }

    /// The interned `Sat(φ)` enumeration (ascending state codes),
    /// computing and caching it on first use.
    pub fn sat_codes(&self, phi: &Phi) -> Result<Arc<Vec<u64>>> {
        Ok(self.sat_codes_at(phi, self.sink_ref())?.0)
    }

    /// [`Oracle::sat_codes`] reporting hit/miss events to an explicit
    /// sink (a per-query sink overriding the Oracle's own). The flag is
    /// `true` when this lookup was served from the cache, matching the
    /// [`QueryEvent::PartitionHit`] it reported.
    pub(crate) fn sat_codes_at(
        &self,
        phi: &Phi,
        sink: Option<&dyn Sink>,
    ) -> Result<(Arc<Vec<u64>>, bool)> {
        {
            let cache = self.sat_cache.lock().expect("sat cache lock");
            if let Some((_, codes)) = cache.iter().find(|(p, _)| p.cache_eq(phi)) {
                if let Some(s) = sink {
                    s.record(&QueryEvent::PartitionHit {
                        states: codes.len() as u64,
                    });
                }
                return Ok((Arc::clone(codes), true));
            }
        }
        // Enumerate outside the lock; on a race the first entry wins so
        // every caller shares one allocation.
        let codes = Arc::new(depend::sat_codes(self.sys, phi)?);
        if let Some(s) = sink {
            s.record(&QueryEvent::PartitionMiss {
                states: codes.len() as u64,
            });
        }
        let mut cache = self.sat_cache.lock().expect("sat cache lock");
        if let Some((_, existing)) = cache.iter().find(|(p, _)| p.cache_eq(phi)) {
            return Ok((Arc::clone(existing), false));
        }
        cache.push((phi.clone(), Arc::clone(&codes)));
        Ok((codes, false))
    }

    /// `Sat(φ)` partitioned into `=A=` classes, from the interned
    /// enumeration; cache events go to the Oracle's sink.
    pub(crate) fn partition(&self, phi: &Phi, a: &ObjSet) -> Result<SatPartition> {
        let (codes, _) = self.sat_codes_at(phi, self.sink_ref())?;
        Ok(SatPartition::from_codes(self.sys.universe(), &codes, a))
    }

    /// Runs one pair search over an explicit partition, borrowing a
    /// buffer set from the pool. Returns the witness (when `found`
    /// accepted a pair) and the search's cost record.
    pub(crate) fn search_partition(
        &self,
        part: &SatPartition,
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
        found: impl FnMut(u64, u64) -> bool,
    ) -> Result<(Option<DependsWitness>, TraceCounters)> {
        self.searches.fetch_add(1, Ordering::Relaxed);
        let mut trace = Trace::new(sink);
        let witness = match &self.compiled {
            None => interpreted_search(self.sys, part, limits, &mut trace, found)?,
            Some(cs) => {
                let mut bufs = self
                    .pool
                    .lock()
                    .expect("buffer pool lock")
                    .pop()
                    .unwrap_or_else(|| SearchBuffers::new(self.ns, &self.budget));
                let out = compiled_search(cs, part, &mut bufs, limits, &mut trace, found);
                self.pool.lock().expect("buffer pool lock").push(bufs);
                out?
            }
        };
        Ok((witness, trace.counters))
    }

    /// `A ▷ B` over an explicit partition: a reachable pair differs at
    /// every target object at once (Def 5-7; a β target is `[β]`). The
    /// targets must be non-empty. β- and set-target queries and the
    /// per-cylinder searches of the maximal-solution sweep use this.
    pub(crate) fn depends_partition(
        &self,
        part: &SatPartition,
        targets: impl IntoIterator<Item = ObjId>,
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
    ) -> Result<(Option<DependsWitness>, TraceCounters)> {
        let u = self.sys.universe();
        let extractors: Vec<(u64, u64)> = targets
            .into_iter()
            .map(|obj| reach::extractor(u, obj))
            .collect();
        self.search_partition(part, limits, sink, move |c1, c2| {
            extractors
                .iter()
                .all(|&(stride, dom)| (c1 / stride) % dom != (c2 / stride) % dom)
        })
    }

    /// All sinks of one partition's source set: `{ β | A ▷φ β }`.
    pub(crate) fn sinks_partition(
        &self,
        part: &SatPartition,
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
    ) -> Result<(ObjSet, TraceCounters)> {
        let u = self.sys.universe();
        let extractors: Vec<(ObjId, u64, u64)> = u
            .objects()
            .map(|obj| {
                let (stride, dom) = reach::extractor(u, obj);
                (obj, stride, dom)
            })
            .collect();
        let total = extractors.len();
        let mut out = ObjSet::empty();
        let mut count = 0usize;
        let (_, counters) = self.search_partition(part, limits, sink, |c1, c2| {
            for &(obj, stride, dom) in &extractors {
                if !out.contains(obj) && (c1 / stride) % dom != (c2 / stride) % dom {
                    out.insert(obj);
                    count += 1;
                }
            }
            count == total
        })?;
        Ok((out, counters))
    }

    /// One sinks row per source set, all over one Sat(φ) enumeration
    /// `codes`; rows run in parallel on scoped threads, each
    /// borrowing buffers from the pool. The rows' cost records are
    /// folded into one (summed pairs and work, max depth). The limits
    /// apply to each row's search independently; the deadline is shared,
    /// so the whole matrix respects it.
    pub(crate) fn sinks_matrix(
        &self,
        codes: &[u64],
        sources: &[ObjSet],
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
    ) -> Result<(Vec<ObjSet>, TraceCounters)> {
        let mut totals = TraceCounters::default();
        let u = self.sys.universe();
        let row = |src: &ObjSet| -> Result<(ObjSet, TraceCounters)> {
            let part = SatPartition::from_codes(u, codes, src);
            self.sinks_partition(&part, limits, sink)
        };
        let chunked: Vec<Vec<Result<(ObjSet, TraceCounters)>>> =
            par_map_chunks(sources, 1, |chunk| chunk.iter().map(&row).collect());
        let mut rows = Vec::with_capacity(sources.len());
        for res in chunked.into_iter().flatten() {
            let (set, counters) = res?;
            totals.absorb(counters);
            rows.push(set);
        }
        Ok((rows, totals))
    }

    /// `A ▷φ β` over histories of length ≤ `max_len` (see
    /// [`crate::query::Query::bounded`]): one partition is shared across
    /// every enumerated history. The deadline is checked between
    /// histories (the pair budget does not apply to bounded enumeration,
    /// which visits no pairs).
    pub(crate) fn depends_bounded(
        &self,
        part: &SatPartition,
        beta: ObjId,
        max_len: usize,
        limits: &SearchLimits,
    ) -> Result<Option<DependsWitness>> {
        for h in crate::history::histories_up_to(self.sys.num_ops(), max_len) {
            limits.check_deadline()?;
            if let Some(w) = depend::strongly_depends_after_with(self.sys, part, beta, &h)? {
                return Ok(Some(DependsWitness {
                    history: h,
                    sigma1: w.sigma1,
                    sigma2: w.sigma2,
                }));
            }
        }
        Ok(None)
    }

    /// Runs `f` with this Oracle's successor function δ(code, op): compiled
    /// rows when the Oracle compiles — sparse rows for `codes` are first
    /// materialised into the shared row cache — and the interpreter
    /// otherwise. `f` sees one [`Succ`] either way, so the prover kernels
    /// have a single branch.
    pub(crate) fn with_succ<R>(&self, codes: &[u64], f: impl FnOnce(Succ<'_>) -> R) -> R {
        let Some(cs) = &self.compiled else {
            return f(Succ {
                sys: self.sys,
                tables: None,
            });
        };
        let mut memo = std::mem::take(&mut *self.rows.lock().expect("row cache lock"));
        if cs.kind() == TableKind::Sparse {
            let mut trace = Trace::new(self.sink_ref());
            cs.ensure_rows(&mut memo, codes, &mut trace);
        }
        let out = f(Succ {
            sys: self.sys,
            tables: Some((cs, &memo)),
        });
        // Concurrent callers may have raced the take; keeping the most
        // recent memo is fine — it is only a cache.
        *self.rows.lock().expect("row cache lock") = memo;
        out
    }
}

/// The successor function handed out by [`Oracle::with_succ`]. Cheap to
/// copy and shareable across the provers' scoped worker threads.
#[derive(Clone, Copy)]
pub(crate) struct Succ<'a> {
    sys: &'a System,
    /// `None` ⇒ interpret each operation.
    tables: Option<(&'a CompiledSystem<'a>, &'a SparseMemo)>,
}

impl Succ<'_> {
    /// δ_op(code), or the error the interpreter reports for that
    /// operation on that state. Sparse rows must cover `code` (every code
    /// passed to [`Oracle::with_succ`] does).
    #[inline]
    pub(crate) fn get(&self, code: u64, op: usize) -> Result<u64> {
        match self.tables {
            Some((cs, memo)) => match cs.succ(memo, code, op) {
                POISON => Err(cs.poison_error(code, op)),
                next => Ok(next),
            },
            None => {
                let u = self.sys.universe();
                Ok(self
                    .sys
                    .apply(OpId(op as u32), &State::decode(u, code))?
                    .encode(u))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::examples;
    use crate::query::Query;

    #[test]
    fn one_compile_many_queries() {
        let sys = examples::flag_copy_system(3).unwrap();
        let u = sys.universe();
        let oracle = Oracle::new(&sys).unwrap();
        let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
        for a in &sources {
            for beta in u.objects() {
                let query = Query::new(Phi::True, a.clone()).beta(beta);
                let via_oracle = query.run(&oracle).unwrap().into_witness();
                let direct = query.run_on(&sys).unwrap().into_witness();
                assert_eq!(
                    via_oracle
                        .as_ref()
                        .map(|w| (&w.history, &w.sigma1, &w.sigma2)),
                    direct.as_ref().map(|w| (&w.history, &w.sigma1, &w.sigma2)),
                );
            }
        }
        let stats = oracle.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.searches, (sources.len() * sources.len()) as u64);
        assert_eq!(stats.interned_phis, 1);
    }

    #[test]
    fn sat_enumerations_are_interned() {
        let sys = examples::flag_copy_system(3).unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let a = oracle.sat_codes(&Phi::True).unwrap();
        let b = oracle.sat_codes(&Phi::True).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same φ must share one enumeration");
        let _ = oracle.sat_codes(&Phi::False).unwrap();
        assert_eq!(oracle.stats().interned_phis, 2);
    }

    #[test]
    fn interpreted_oracle_never_compiles() {
        let sys = examples::flag_copy_system(3).unwrap();
        let u = sys.universe();
        let oracle =
            Oracle::with_engine(&sys, Engine::Interpreted, &CompileBudget::default(), None)
                .unwrap();
        let a = ObjSet::singleton(u.objects().next().unwrap());
        let out = Query::new(Phi::True, a)
            .beta(u.objects().last().unwrap())
            .run(&oracle)
            .unwrap();
        assert_eq!(out.report.engine, "interpreted");
        assert_eq!(oracle.stats().compiles, 0);
    }

    /// `with_succ` answers every `(code, op)` alike on all three engines,
    /// errors included: the compiled engines decode their poison entries
    /// to the interpreter's error.
    #[test]
    fn succ_agrees_across_engines() {
        use crate::expr::Expr;
        use crate::op::{Cmd, Op};
        use crate::universe::{Domain, Universe};
        let u = Universe::new(vec![
            ("x".into(), Domain::int_range(0, 2).unwrap()),
            ("y".into(), Domain::boolean()),
        ])
        .unwrap();
        let x = u.obj("x").unwrap();
        let y = u.obj("y").unwrap();
        // `bump` errors at x = 2: the result leaves x's domain.
        let sys = System::new(
            u,
            vec![
                Op::from_cmd("bump", Cmd::assign(x, Expr::var(x).add(Expr::int(1)))),
                Op::from_cmd("flip", Cmd::assign(y, Expr::var(y).not())),
            ],
        );
        let codes: Vec<u64> = (0..sys.state_count().unwrap()).collect();
        let table = |engine| {
            let oracle =
                Oracle::with_engine(&sys, engine, &CompileBudget::default(), None).unwrap();
            oracle.with_succ(&codes, |succ| {
                codes
                    .iter()
                    .flat_map(|&code| (0..sys.num_ops()).map(move |op| succ.get(code, op)))
                    .collect::<Vec<_>>()
            })
        };
        let interpreted = table(Engine::Interpreted);
        assert!(interpreted
            .iter()
            .any(|r| matches!(r, Err(Error::OutOfDomain { .. }))));
        assert!(interpreted.iter().any(Result::is_ok));
        assert_eq!(table(Engine::CompiledDense), interpreted);
        assert_eq!(table(Engine::CompiledSparse), interpreted);
    }

    /// A matrix query's rows, answer and cost report both, equal its
    /// per-row sinks queries on the same Oracle: pairs and expansions
    /// add up, depth is the deepest row's.
    #[test]
    fn matrix_agrees_with_rows() {
        for (sys, engine, name) in [
            (
                examples::flag_copy_system(3).unwrap(),
                Engine::CompiledDense,
                "compiled-dense",
            ),
            (
                examples::nontransitive_system(2).unwrap(),
                Engine::CompiledSparse,
                "compiled-sparse",
            ),
        ] {
            let oracle =
                Oracle::with_engine(&sys, engine, &CompileBudget::default(), None).unwrap();
            assert_eq!(oracle.engine_name(), name);
            let sources: Vec<ObjSet> = sys.universe().objects().map(ObjSet::singleton).collect();
            let matrix = Query::matrix(Phi::True, sources.clone())
                .run(&oracle)
                .unwrap();
            let report = matrix.report;
            let rows = matrix.into_rows().unwrap();
            let (mut pairs, mut expansions, mut levels) = (0, 0, 0);
            for (a, row) in sources.iter().zip(&rows) {
                let single = Query::new(Phi::True, a.clone()).run(&oracle).unwrap();
                pairs += single.report.visited_pairs;
                expansions += single.report.pair_expansions;
                levels = levels.max(single.report.levels);
                assert_eq!(*row, single.into_sinks().unwrap());
            }
            assert!(pairs > 0 && expansions > 0, "{name}: rows must search");
            assert_eq!(report.visited_pairs, pairs, "{name}");
            assert_eq!(report.pair_expansions, expansions, "{name}");
            assert_eq!(report.levels, levels, "{name}");
            assert_eq!(report.engine, oracle.engine_name());
        }
    }
}
