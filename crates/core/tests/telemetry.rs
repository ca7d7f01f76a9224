//! Event-sequence tests for the telemetry layer: an instrumented Oracle
//! must report compiles exactly once, attribute partition-cache hits on
//! warm sweeps, and per-query sinks must see a coherent event stream
//! whose final `QueryDone` report agrees with the returned outcome.

use std::sync::Arc;

use sd_core::{
    examples, CompileBudget, Engine, ObjSet, Oracle, Phi, Query, QueryEvent, RecordingSink,
};

fn sources_of(sys: &sd_core::System) -> Vec<ObjSet> {
    sys.universe().objects().map(ObjSet::singleton).collect()
}

/// The sinks rows of every source set under `Phi::True`, on `oracle`.
fn matrix(oracle: &Oracle<'_>, sources: Vec<ObjSet>) -> Vec<ObjSet> {
    Query::matrix(Phi::True, sources)
        .run(oracle)
        .unwrap()
        .into_rows()
        .unwrap()
}

/// Cold sweep: a fresh instrumented Oracle compiles once, misses the
/// partition cache once, and never reports a hit.
#[test]
fn cold_matrix_sweep_compiles_once_and_misses_once() {
    let sys = examples::flag_copy_system(3).unwrap();
    let sink = Arc::new(RecordingSink::new());
    let oracle = Oracle::with_engine(
        &sys,
        Engine::Auto,
        &CompileBudget::default(),
        Some(sink.clone() as Arc<dyn sd_core::Sink>),
    )
    .unwrap();

    let rows = matrix(&oracle, sources_of(&sys));
    assert_eq!(rows.len(), sys.universe().num_objects());

    let compile_starts = sink.count(|e| matches!(e, QueryEvent::CompileStart { .. }));
    let compile_finishes = sink.count(|e| matches!(e, QueryEvent::CompileFinish { .. }));
    assert_eq!(compile_starts, 1, "exactly one compile on a cold oracle");
    assert_eq!(compile_finishes, 1);
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::PartitionMiss { .. })),
        1,
        "the first Sat(φ) enumeration is a miss"
    );
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::PartitionHit { .. })),
        0,
        "nothing is cached yet"
    );

    // CompileStart precedes CompileFinish precedes every search event.
    let events = sink.events();
    let start = events
        .iter()
        .position(|e| matches!(e, QueryEvent::CompileStart { .. }))
        .unwrap();
    let finish = events
        .iter()
        .position(|e| matches!(e, QueryEvent::CompileFinish { .. }))
        .unwrap();
    let first_level = events
        .iter()
        .position(|e| matches!(e, QueryEvent::BfsLevel { .. }))
        .unwrap();
    assert!(start < finish && finish < first_level);
}

/// Warm sweep: repeating the same matrix query against the same Oracle
/// reports partition-cache hits and no further compiles — the
/// acceptance shape for the PR (hits > 0, compiles == 1).
#[test]
fn warm_matrix_sweep_hits_partition_cache_without_recompiling() {
    let sys = examples::flag_copy_system(3).unwrap();
    let sink = Arc::new(RecordingSink::new());
    let oracle = Oracle::with_engine(
        &sys,
        Engine::Auto,
        &CompileBudget::default(),
        Some(sink.clone() as Arc<dyn sd_core::Sink>),
    )
    .unwrap();
    let sources = sources_of(&sys);

    let cold = matrix(&oracle, sources.clone());
    let warm = matrix(&oracle, sources);
    assert_eq!(cold, warm, "warm answers must be identical");

    assert!(
        sink.count(|e| matches!(e, QueryEvent::PartitionHit { .. })) > 0,
        "warm sweep must be served from the partition cache"
    );
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::CompileStart { .. })),
        1,
        "the compile is shared across sweeps"
    );
    assert_eq!(oracle.stats().compiles, 1);

    // The warm half of the stream replays the BFS (the memo caches
    // partitions, not search results) but never recompiles: every event
    // after the first sweep's last miss is hit/level/row traffic.
    let events = sink.events();
    let last_miss = events
        .iter()
        .rposition(|e| matches!(e, QueryEvent::PartitionMiss { .. }))
        .unwrap();
    assert!(
        events[last_miss..]
            .iter()
            .all(|e| !matches!(e, QueryEvent::CompileStart { .. })),
        "no compile may follow the warm sweep's cache traffic"
    );
}

/// A per-query sink on a shared (uninstrumented) Oracle sees that
/// query's events only, and the `QueryDone` report matches the outcome.
#[test]
fn per_query_sink_reports_match_outcome() {
    let sys = examples::nontransitive_system(2).unwrap();
    let u = sys.universe();
    let a = u.obj("alpha").unwrap();
    let m = u.obj("m").unwrap();
    let oracle = Oracle::new(&sys).unwrap();

    let sink = Arc::new(RecordingSink::new());
    let out = Query::new(Phi::True, ObjSet::singleton(a))
        .beta(m)
        .sink(sink.clone() as Arc<dyn sd_core::Sink>)
        .run(&oracle)
        .unwrap();
    assert!(out.holds(), "α ▷ m in the nontransitive system");

    let done: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            QueryEvent::QueryDone { report } => Some(report),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1, "exactly one QueryDone per run");
    assert_eq!(done[0], out.report, "emitted report equals returned report");
    assert!(done[0].partition_cached || done[0].levels > 0);
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::Witness { .. })),
        1,
        "a positive verdict emits its witness event"
    );
    // The shared Oracle was constructed without a sink, so no compile
    // events can appear in a per-query stream.
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::CompileStart { .. })),
        0
    );
}

/// BfsLevel events are monotone in depth and consistent with the
/// report's `levels` field, on both engines.
#[test]
fn bfs_level_stream_is_monotone_and_matches_report() {
    let sys = examples::pointer_chain_system(4, 2).unwrap();
    let u = sys.universe();
    let a = u.obj("o0").unwrap();
    let b = u.obj("o3").unwrap();
    for engine in [Engine::Interpreted, Engine::Auto] {
        let sink = Arc::new(RecordingSink::new());
        let out = Query::new(Phi::True, ObjSet::singleton(a))
            .beta(b)
            .engine(engine)
            .sink(sink.clone() as Arc<dyn sd_core::Sink>)
            .run_on(&sys)
            .unwrap();
        assert!(out.holds());

        let levels: Vec<(u32, u64, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                QueryEvent::BfsLevel {
                    level,
                    frontier,
                    visited,
                } => Some((level, frontier, visited)),
                _ => None,
            })
            .collect();
        assert!(!levels.is_empty(), "{engine:?}: a real search has levels");
        for w in levels.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1, "{engine:?}: depths are consecutive");
            assert!(w[1].2 >= w[0].2, "{engine:?}: visited is monotone");
        }
        for &(_, frontier, _) in &levels {
            assert!(frontier > 0, "{engine:?}: frontiers are non-empty");
        }
        let deepest = levels.last().unwrap().0;
        assert!(
            out.report.levels <= deepest + 1,
            "{engine:?}: report levels ({}) within one of deepest expanded level ({deepest})",
            out.report.levels
        );
    }
}
