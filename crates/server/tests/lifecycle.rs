//! Session lifecycle and admission-control behavior over real sockets:
//! idle eviction fires on the deadline and answers the typed not-found
//! thereafter, touches push the deadline forward, saturating the
//! admission queue rejects with the typed 429 while dropping zero
//! admitted requests, handler panics are isolated as typed 500s,
//! deadline-budgeted learns abort with typed 408s and leave the caches
//! clean, and graceful shutdown drains in-flight requests.

use std::sync::Arc;
use std::time::Duration;

use sst_core::Example;
use sst_server::{Client, ClientConfig, ClientError, Server, ServerConfig, DRAIN_STOPPED};
use sst_service::{ApplyRequest, ApplyResponse, Engine, LearnRequest, ServiceError};
use sst_tables::{Database, Table};

fn engine() -> Engine {
    let table = Table::new(
        "Comp",
        vec!["Id", "Name"],
        vec![
            vec!["c1", "Microsoft"],
            vec!["c2", "Google"],
            vec!["c3", "Apple"],
        ],
    )
    .unwrap();
    Engine::new(Arc::new(Database::from_tables(vec![table]).unwrap()))
}

fn expect_http(result: Result<impl std::fmt::Debug, ClientError>) -> (u16, ServiceError) {
    match result {
        Err(ClientError::Http { status, error }) => (status, error),
        other => panic!("expected typed HTTP error, got {other:?}"),
    }
}

#[test]
fn idle_sessions_are_evicted_and_answer_typed_not_found() {
    let server = Server::bind(
        engine(),
        ServerConfig {
            session_ttl: Duration::from_millis(120),
            sweep_granularity: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let info = client
        .create_session("default", &[Example::new(vec!["c2"], "Google")])
        .unwrap();

    // Touching within the ttl keeps the session alive well past one ttl
    // of wall-clock.
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(50));
        client.attach("default", info.session).expect("still live");
    }

    // Going idle past the ttl lets the sweeper evict it without any
    // traffic arriving.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(server.live_sessions(), 0, "sweeper should have evicted");
    assert_eq!(server.evicted_sessions(), 1);

    // Every route naming the session now answers the typed 404.
    let (status, error) = expect_http(client.attach("default", info.session));
    assert_eq!(status, 404);
    assert!(matches!(error, ServiceError::SessionNotFound(id) if id == info.session));
    let (status, error) =
        expect_http(client.run_column("default", info.session, &[vec!["c1".to_string()]]));
    assert_eq!(status, 404);
    assert!(matches!(error, ServiceError::SessionNotFound(_)));
}

/// The value of the first `/metrics` line starting with `series`.
fn metric(text: &str, series: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {series} missing:\n{text}"))
}

#[test]
fn metrics_export_rank_and_compile_memo_layers() {
    let server = Server::bind(engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let series = |kind: &str, layer: &str| {
        format!("sst_cache_{kind}_total{{engine=\"default\",layer=\"{layer}\"}}")
    };
    let text = client.metrics_text().unwrap();
    for layer in ["rank", "compile"] {
        for kind in ["hits", "misses"] {
            assert_eq!(metric(&text, &series(kind, layer)), 0, "{layer} {kind}");
        }
    }
    let requests = [ApplyRequest::new(
        vec![Example::new(vec!["c2"], "Google")],
        vec![vec!["c1".into()], vec!["c3".into()]],
    )];
    let first = client.apply("default", &requests).unwrap();
    let text = client.metrics_text().unwrap();
    let rank_hits = metric(&text, &series("hits", "rank"));
    assert_eq!(metric(&text, &series("misses", "rank")), 1);
    assert_eq!(metric(&text, &series("misses", "compile")), 1);
    let outputs =
        |responses: Vec<ApplyResponse>| responses[0].outputs().map(<[Option<String>]>::to_vec);
    let again = client.apply("default", &requests).unwrap();
    assert_eq!(outputs(again), outputs(first));
    let text = client.metrics_text().unwrap();
    assert_eq!(
        metric(&text, &series("hits", "rank")),
        rank_hits + 1,
        "a repeated /apply is served from the ranked memo"
    );
    assert_eq!(metric(&text, &series("hits", "compile")), 1);
}

#[test]
fn closed_sessions_are_gone_immediately() {
    let server = Server::bind(engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let info = client.create_session("default", &[]).unwrap();
    client.close_session("default", info.session).unwrap();
    let (status, _) = expect_http(client.attach("default", info.session));
    assert_eq!(status, 404);
    // Closing twice is the same typed not-found, not a crash.
    let (status, _) = expect_http(client.close_session("default", info.session));
    assert_eq!(status, 404);
}

#[test]
fn saturating_the_admission_queue_rejects_with_429_and_drops_nothing() {
    // One execution slot, one queue slot, and a debug delay that holds
    // the slot long enough to saturate deterministically.
    let server = Server::bind(
        engine(),
        ServerConfig {
            max_in_flight: 1,
            max_queue: 1,
            debug_handler_delay: Some(Duration::from_millis(400)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let request = || vec![LearnRequest::new(vec![Example::new(vec!["c2"], "Google")])];

    // Three concurrent learns: the first holds the slot, the second
    // queues, the third must be rejected immediately with the typed 429.
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.learn("default", &request())
    });
    std::thread::sleep(Duration::from_millis(100));
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.learn("default", &request())
    });
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).unwrap();
    let (status, error) = expect_http(client.learn("default", &request()));
    assert_eq!(status, 429);
    match error {
        ServiceError::Overloaded { in_flight, queued } => {
            assert_eq!((in_flight, queued), (1, 1));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Zero dropped in-flight requests: both admitted learns complete
    // with full responses.
    let held = holder.join().unwrap().expect("held request completes");
    let waited = queued.join().unwrap().expect("queued request completes");
    assert_eq!(held.len(), 1);
    assert_eq!(waited.len(), 1);
    assert!(held[0].result.is_ok());
    assert!(waited[0].result.is_ok());

    // completed + rejected == sent, exactly.
    assert_eq!(server.rejected_requests(), 1);

    // The saturation was transient: with the slots free again, the same
    // request is admitted and served.
    let after = client
        .learn("default", &request())
        .expect("admitted after drain");
    assert!(after[0].result.is_ok());
}

#[test]
fn handler_panics_are_isolated_as_typed_500_and_the_server_keeps_serving() {
    let server = Server::bind(
        engine(),
        ServerConfig {
            debug_panic_on: Some("run_column".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let info = client
        .create_session("default", &[Example::new(vec!["c2"], "Google")])
        .unwrap();

    // The rigged route panics inside the handler; the boundary converts
    // it into a typed 500 instead of killing the connection thread.
    let (status, error) =
        expect_http(client.run_column("default", info.session, &[vec!["c1".to_string()]]));
    assert_eq!(status, 500);
    assert!(matches!(error, ServiceError::Internal(_)));
    assert_eq!(server.caught_panics(), 1);

    // Nothing was poisoned: the same connection, the same session, and
    // every other route still work.
    assert!(client
        .status("default", info.session)
        .unwrap()
        .is_converged());
    assert_eq!(server.live_sessions(), 1);
    let metrics = client.metrics_text().unwrap();
    assert!(
        metrics.contains("sst_panics_total 1"),
        "panic must be metered: {metrics}"
    );
}

#[test]
fn zero_deadline_learn_answers_typed_408_then_succeeds_without_a_budget() {
    let server = Server::bind(engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            deadline_ms: Some(0),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let request = vec![LearnRequest::new(vec![Example::new(vec!["c2"], "Google")])];

    // An already-expired budget: the learn aborts at its first
    // checkpoint with the typed 408 (the whole-batch deadline rule —
    // every request in the batch timed out).
    let (status, error) = expect_http(client.learn("default", &request));
    assert_eq!(status, 408);
    assert!(matches!(
        error,
        ServiceError::DeadlineExceeded { budget_ms: 0 }
    ));

    // Dropping the deadline makes the identical request succeed on the
    // same engine — the aborted attempt left no partial state behind.
    client.set_deadline_ms(None);
    let responses = client.learn("default", &request).unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].result.is_ok());

    let metrics = client.metrics_text().unwrap();
    assert!(
        metrics.contains("sst_deadline_exceeded_total 1"),
        "408 must be metered: {metrics}"
    );
}

#[test]
fn server_default_deadline_applies_when_the_client_sends_none() {
    let server = Server::bind(
        engine(),
        ServerConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let request = vec![LearnRequest::new(vec![Example::new(vec!["c2"], "Google")])];
    let (status, error) = expect_http(client.learn("default", &request));
    assert_eq!(status, 408);
    assert!(matches!(error, ServiceError::DeadlineExceeded { .. }));
}

#[test]
fn shutdown_drains_in_flight_requests_before_stopping() {
    let mut server = Server::bind(
        engine(),
        ServerConfig {
            debug_handler_delay: Some(Duration::from_millis(300)),
            drain_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A request that is still executing when shutdown begins must get
    // its full response.
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.learn(
            "default",
            &[LearnRequest::new(vec![Example::new(vec!["c2"], "Google")])],
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    let responses = in_flight
        .join()
        .unwrap()
        .expect("in-flight request must complete through the drain");
    assert_eq!(responses.len(), 1);
    assert!(responses[0].result.is_ok());
    assert_eq!(server.drain_state(), DRAIN_STOPPED);
    assert_eq!(server.active_requests(), 0);

    // New connections are refused once stopped.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.healthz().is_err()
        }
    );
}
