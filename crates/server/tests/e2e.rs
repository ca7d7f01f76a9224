//! End-to-end tests over real TCP connections: compile-once sharing,
//! byte-identical cache replays, structured limit errors with
//! undisturbed neighbours, malformed-frame recovery, and graceful
//! draining shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sd_core::{examples, CompileBudget, ObjSet, Query, QueryEvent, RecordingSink};
use sd_server::proto;
use sd_server::{Client, Config, ErrorKind, Json, QueryReq, ServeHandle, SystemDesc};

fn spawn(sink: Option<Arc<RecordingSink>>) -> ServeHandle {
    let cfg = Config {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        registry_cap: 8,
        cache_cap: 64,
        max_frame: 4096,
        max_timeout: Duration::from_secs(10),
        budget: CompileBudget::default(),
        sink: sink.map(|s| s as Arc<dyn sd_core::Sink>),
        access_log: None,
        ..Config::default()
    };
    ServeHandle::spawn(cfg).expect("bind loopback")
}

fn flag_copy_desc() -> SystemDesc {
    SystemDesc::Example {
        name: "flag_copy".into(),
        params: vec![3],
    }
}

/// The PR's acceptance scenario: two concurrent clients register the
/// same system and issue the same `sinks_matrix` query. The system
/// compiles exactly once (asserted via telemetry), the second response
/// is a result-cache hit, and both answers are byte-identical to the
/// in-process `Query` answer.
#[test]
fn concurrent_clients_compile_once_and_share_the_cache() {
    let sink = Arc::new(RecordingSink::new());
    let handle = spawn(Some(Arc::clone(&sink)));
    let addr = handle.local_addr();

    // Concurrent registration of the same content.
    let keys: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.register(flag_copy_desc()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(keys[0], keys[1], "same content, same registry key");
    assert_eq!(
        sink.count(|e| matches!(e, QueryEvent::CompileFinish { .. })),
        1,
        "registry must compile the system exactly once"
    );

    let sources = vec![vec!["alpha".to_string()], vec!["flag".to_string()]];
    let mut req = QueryReq::matrix(keys[0], sources.clone());
    req.phi = Some("flag".into());

    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    let (r1, _) = c1.call_raw(sd_server::Request::Query(req.clone())).unwrap();
    let (r2, _) = c2.call_raw(sd_server::Request::Query(req.clone())).unwrap();
    assert!(r1.ok && r2.ok);
    assert!(!r1.cached, "first run is a miss");
    assert!(r2.cached, "identical repeat must hit the result cache");
    assert_eq!(
        r1.answer_raw, r2.answer_raw,
        "cache replay must be byte-identical"
    );
    let cache = c1.metrics().unwrap();
    let cache = cache.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));

    // Byte-identical to the in-process library answer.
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let srcs: Vec<ObjSet> = sources
        .iter()
        .map(|row| ObjSet::from_iter(row.iter().map(|n| u.obj(n).unwrap())))
        .collect();
    let phi = sd_lang::lower_phi(u, "flag").unwrap();
    let outcome = Query::matrix(phi, srcs).run_on(&sys).unwrap();
    let expected = proto::encode_answer(&sys, &outcome);
    assert_eq!(r1.answer_raw.as_deref(), Some(expected.as_str()));

    assert_eq!(handle.cache_stats().hits, 1);
    handle.shutdown();
}

/// Robustness: a request with an unsatisfiable deadline (and one with a
/// zero pair budget) gets a structured `timeout`/`budget` error while a
/// concurrent in-flight request completes normally.
#[test]
fn limit_errors_are_structured_and_do_not_disturb_neighbours() {
    let handle = spawn(None);
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let key = c.register(flag_copy_desc()).unwrap();

    let normal = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        (0..20)
            .map(|_| {
                let req = QueryReq::sinks(key, vec!["alpha".into()]);
                c.sinks(req).expect("normal query must keep completing")
            })
            .count()
    });

    // Deadline already expired when the search starts.
    let mut doomed = QueryReq::depends(key, vec!["x".into()], "beta");
    doomed.timeout_ms = Some(0);
    let err = c.query(doomed).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Timeout);

    // Budget of zero pairs: exhausted at the first non-goal discovery.
    let mut broke = QueryReq::depends(key, vec!["flag".into()], "beta");
    broke.max_pairs = Some(0);
    let err = c.query(broke).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Budget);

    assert_eq!(normal.join().unwrap(), 20);

    // The failed queries were not cached: the same query without
    // limits must now succeed.
    let fixed = QueryReq::depends(key, vec!["x".into()], "beta");
    assert!(c.depends(fixed).is_ok());
    handle.shutdown();
}

/// Malformed frames — bad JSON, unknown methods, oversized lines,
/// unknown systems — each get an error response and the connection
/// stays usable for the next request.
#[test]
fn malformed_frames_keep_the_connection_usable() {
    let handle = spawn(None);
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |frame: &[u8]| -> String {
        writer.write_all(frame).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };

    for (line, kind) in [
        ("this is not json", "parse"),
        (r#"{"method":"teleport"}"#, "unknown_method"),
        (r#"{"method":"sinks"}"#, "protocol"),
        (
            r#"{"method":"sinks","system":424242,"a":["alpha"]}"#,
            "unknown_system",
        ),
    ] {
        let resp = roundtrip(format!("{line}\n").as_bytes());
        assert!(resp.contains(r#""ok":false"#), "{resp}");
        assert!(resp.contains(&format!(r#""kind":"{kind}""#)), "{resp}");
    }

    // Framing edge cases (max_frame is 4096 in the test config): a ping
    // padded to `len` bytes before its newline.
    let padded_ping = |len: usize| {
        let (head, tail) = (r#"{"method":"ping","pad":""#, r#""}"#);
        let pad = "z".repeat(len - head.len() - tail.len());
        format!("{head}{pad}{tail}\n").into_bytes()
    };
    for (frame, kind) in [
        (padded_ping(4096), None),
        (padded_ping(4097), Some("too_large")),
        (padded_ping(8192), Some("too_large")),
        (b"{\"method\":\"ping\"}\r\n".to_vec(), None),
        (b"\xff\xfe{\"method\":\"ping\"}\n".to_vec(), Some("parse")),
    ] {
        let resp = roundtrip(&frame);
        match kind {
            None => assert!(resp.contains(r#""pong""#), "{resp}"),
            Some(kind) => {
                assert!(resp.contains(r#""ok":false"#), "{resp}");
                assert!(resp.contains(&format!(r#""kind":"{kind}""#)), "{resp}");
            }
        }
        // The connection still works.
        let resp = roundtrip(b"{\"id\":7,\"method\":\"ping\"}\n");
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(resp.contains(r#""id":7"#), "{resp}");
    }
    handle.shutdown();
}

/// Graceful shutdown: a `shutdown` request drains in-flight work; open
/// connections get structured `shutting_down` errors for new queries;
/// the server threads all exit.
#[test]
fn shutdown_drains_and_refuses_new_work() {
    let handle = spawn(None);
    let addr = handle.local_addr();
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    let key = c1.register(flag_copy_desc()).unwrap();
    assert!(c1.sinks(QueryReq::sinks(key, vec!["alpha".into()])).is_ok());

    c1.shutdown().unwrap();
    let err = c2
        .query(QueryReq::sinks(key, vec!["flag".into()]))
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::ShuttingDown);

    // All pool/accept threads exit.
    handle.wait();
}

/// The `metrics` scrape surfaces cache hit/miss counters and the
/// registered systems.
#[test]
fn metrics_surface_cache_counters_and_registry() {
    let handle = spawn(None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let key = c.register(flag_copy_desc()).unwrap();
    let req = QueryReq::sinks(key, vec!["alpha".into()]);
    c.sinks(req.clone()).unwrap();
    c.sinks(req).unwrap();
    let scraped = c.metrics().unwrap();
    let cache = scraped.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
    let registry = scraped.get("registry").expect("registry block");
    let systems = registry.get("list").unwrap().as_arr().unwrap();
    assert_eq!(systems.len(), 1);
    assert_eq!(systems[0].get("system").unwrap().as_u64(), Some(key));
    handle.shutdown();
}

/// Registering via a mini-language program and querying it end to end.
#[test]
fn program_registration_round_trips() {
    let handle = spawn(None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let key = c
        .register(SystemDesc::Program {
            source: "var x: bool; var y: bool;\ny := x;".into(),
        })
        .unwrap();
    let req = QueryReq::depends(key, vec!["x".into()], "y");
    assert!(c.depends(req).unwrap(), "y := x transmits x");
    let req = QueryReq::depends(key, vec!["y".into()], "x");
    assert!(!c.depends(req).unwrap(), "no flow back into x");
    handle.shutdown();
}

/// The φ in a served query actually constrains the search: same system,
/// φ pins the guard, the flow disappears. Also checks Phi::True and the
/// textual φ produce distinct cache entries.
#[test]
fn phi_text_constrains_served_queries() {
    let handle = spawn(None);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let key = c
        .register(SystemDesc::Example {
            name: "guarded_copy".into(),
            params: vec![2],
        })
        .unwrap();
    let open = QueryReq::depends(key, vec!["alpha".into()], "beta");
    assert!(c.depends(open).unwrap());
    let mut pinned = QueryReq::depends(key, vec!["alpha".into()], "beta");
    pinned.phi = Some("!m".into());
    assert!(!c.depends(pinned).unwrap());
    assert_eq!(handle.cache_stats().hits, 0, "distinct φ, distinct keys");
    handle.shutdown();
}
