//! Batch serving: many independent learning tasks over one engine's
//! shared background knowledge.
//!
//! The paper frames the system as a spreadsheet *service*: lots of
//! end-user tasks, all drawing on the same background tables (§6). The
//! `Engine` owns that shared state — the database, the warm memo plane
//! and the worker pool — and `learn_batch` fans independent requests
//! across it with deterministic, request-ordered responses (bit-identical
//! to learning each request sequentially, at every pool width). Once a
//! task converges, `Engine::apply` (or `Session::run_column`) compiles the
//! top-ranked program to bytecode and fills a whole column in one call.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;

use semantic_strings::prelude::*;

fn main() {
    // Shared background knowledge: company facts several tasks draw on.
    let comp = Table::new(
        "Comp",
        vec!["Id", "Name", "HQ"],
        vec![
            vec!["c1", "Microsoft", "Redmond"],
            vec!["c2", "Google", "Mountain View"],
            vec!["c3", "Apple", "Cupertino"],
            vec!["c4", "Facebook", "Menlo Park"],
        ],
    )
    .expect("valid table");
    let engine = Engine::new(Arc::new(
        Database::from_tables(vec![comp]).expect("valid database"),
    ));

    // Three users, three independent tasks, one batch: expand codes to
    // names, map codes to headquarters, and one task with two examples.
    let requests = vec![
        LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]),
        LearnRequest::new(vec![Example::new(vec!["c3"], "Cupertino")]).with_top_k(3),
        LearnRequest::new(vec![
            Example::new(vec!["c1"], "Microsoft (Redmond)"),
            Example::new(vec!["c2"], "Google (Mountain View)"),
        ]),
    ];
    let responses = engine.learn_batch(&requests, None);

    for response in &responses {
        match response.programs() {
            Some(learned) => println!(
                "request {}: {} consistent programs, best: {}",
                response.request,
                learned.count().to_scientific(),
                response.best().expect("ranked program"),
            ),
            None => println!(
                "request {}: failed: {:?}",
                response.request, response.result
            ),
        }
    }

    // Each response generalizes to unseen inputs.
    assert_eq!(
        responses[0].best().unwrap().run(&["c4"]).as_deref(),
        Some("Facebook")
    );
    assert_eq!(
        responses[1].best().unwrap().run(&["c1"]).as_deref(),
        Some("Redmond")
    );
    assert_eq!(
        responses[2].best().unwrap().run(&["c3"]).as_deref(),
        Some("Apple (Cupertino)")
    );

    // The batch warmed the shared plane: replaying it is served from
    // memory (the stats prove the requests shared one engine, not three
    // private synthesizers).
    let before = engine.cache_stats();
    engine.learn_batch(&requests, None);
    let after = engine.cache_stats();
    println!(
        "\nwarm replay: example memo hits {} -> {}",
        before.example_hits, after.example_hits
    );
    assert!(after.example_hits > before.example_hits);
    println!("All batch responses correct and memo-served on replay.");

    // Applying at scale: the converged transformation fills an entire
    // generated column through the compiled bytecode plane. The engine
    // learns once, lowers the top-ranked program once, and `run_column`
    // fans row ranges across the pool — outputs in row order, `Some("")`
    // on lookup misses per the paper's semantics, `None` where the
    // program is undefined.
    let codes = ["c1", "c2", "c3", "c4", "c9"];
    let column: Vec<Vec<String>> = (0..50_000)
        .map(|i| vec![codes[i % codes.len()].to_string()])
        .collect();
    let outputs = engine
        .apply(
            &[
                Example::new(vec!["c1"], "Microsoft (Redmond)"),
                Example::new(vec!["c2"], "Google (Mountain View)"),
            ],
            &column,
        )
        .expect("task learned above");
    assert_eq!(outputs.len(), column.len());
    assert_eq!(outputs[2].as_deref(), Some("Apple (Cupertino)"));
    // `c9` is in no table: both lookups miss and yield the empty string,
    // leaving just the constant separators.
    assert_eq!(outputs[4].as_deref(), Some(" ()"));
    println!(
        "batch apply: filled {} rows (row 2 = {:?})",
        outputs.len(),
        outputs[2].as_deref().unwrap()
    );

    // The same engine over the wire: `sst-server` puts a real TCP front
    // door on the service plane — hand-rolled HTTP/1.1, newline-delimited
    // JSON bodies, typed errors, admission control, idle-session
    // eviction, and Prometheus-style `/metrics`. The example binds to an
    // OS-assigned loopback port; swap in a fixed `addr` to serve real
    // clients (then `curl` works too — see the README quickstart).
    let server = Server::bind(engine.clone(), ServerConfig::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect client");

    // The §3.2 interactive loop, each step one HTTP exchange: create a
    // session with one example, confirm convergence, fill a column.
    let info = client
        .create_session("default", &[Example::new(vec!["c2"], "Google")])
        .expect("create session");
    let status = client.status("default", info.session).expect("status");
    assert!(status.is_converged());
    let cells = client
        .run_column(
            "default",
            info.session,
            &[vec!["c1".to_string()], vec!["c4".to_string()]],
        )
        .expect("run column");
    assert_eq!(cells[0].as_deref(), Some("Microsoft"));
    assert_eq!(cells[1].as_deref(), Some("Facebook"));
    client
        .close_session("default", info.session)
        .expect("close session");

    // Batch learn over the socket answers byte-for-byte what
    // `learn_batch` answers in-process (the observables travel as
    // summaries; execution stays server-side).
    let wire = client.learn("default", &requests).expect("wire learn");
    assert_eq!(wire.len(), requests.len());

    // The server meters itself: per-endpoint latency quantiles and the
    // engine's cache hit rates under live traffic.
    let metrics = client.metrics_text().expect("metrics");
    assert!(metrics.contains("sst_requests_total"));
    println!(
        "\nserved over the wire at {}: session converged, {} learn summaries, /metrics exports {} series",
        server.local_addr(),
        wire.len(),
        metrics.lines().filter(|l| !l.starts_with('#')).count()
    );
}
