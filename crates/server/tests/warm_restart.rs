//! Kill → restore → replay, over real sockets: a server configured with
//! a snapshot path persists its warm plane on graceful shutdown, a fresh
//! server warm-starts from the file, the replayed traffic answers
//! byte-identically, and the replay is *memo-served* (warm cache hits
//! observable on `/metrics`). A corrupt snapshot must fall back to a
//! cold boot, never block binding.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sst_core::Example;
use sst_server::{Client, Server, ServerConfig};
use sst_service::{ApplyRequest, Engine, LearnRequest};
use sst_tables::{Database, Table};

fn engine() -> Engine {
    let table = Table::new(
        "Comp",
        vec!["Id", "Name"],
        vec![
            vec!["c1", "Microsoft"],
            vec!["c2", "Google"],
            vec!["c3", "Apple"],
            vec!["c4", "Facebook"],
        ],
    )
    .unwrap();
    Engine::new(Arc::new(Database::from_tables(vec![table]).unwrap()))
}

fn snap_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sst-server-{tag}-{}.snap", std::process::id()))
}

fn config(path: &Path, warm: bool) -> ServerConfig {
    ServerConfig {
        snapshot_path: Some(path.to_path_buf()),
        snapshot_on_shutdown: true,
        warm_start_on_boot: warm,
        ..ServerConfig::default()
    }
}

/// Pulls one counter value out of the Prometheus text.
fn metric(text: &str, line_start: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(line_start))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {line_start} missing:\n{text}"))
}

#[test]
fn shutdown_snapshot_warm_starts_the_next_server() {
    let path = snap_path("kill-restore");
    std::fs::remove_file(&path).ok();

    let learns = vec![
        LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]),
        LearnRequest::new(vec![
            Example::new(vec!["c2"], "Google"),
            Example::new(vec!["c3"], "Apple"),
        ]),
    ];
    let applies = vec![ApplyRequest::new(
        vec![Example::new(vec!["c2"], "Google")],
        vec![vec!["c1".into()], vec!["c4".into()]],
    )];

    // First life: serve cold traffic, snapshot on graceful shutdown.
    let (cold_learns, cold_applies) = {
        let mut server = Server::bind(engine(), config(&path, false)).unwrap();
        assert!(!server.warm_started());
        let mut client = Client::connect(server.local_addr()).unwrap();
        let l = client.learn("default", &learns).unwrap();
        let a = client.apply("default", &applies).unwrap();
        server.shutdown();
        (l, a)
    };
    assert!(path.exists(), "shutdown must have written the snapshot");

    // Second life: a *cold* engine handed to bind, replaced by the
    // restored one; the replay must be byte-identical and memo-served.
    let mut server = Server::bind(engine(), config(&path, true)).unwrap();
    assert!(server.warm_started(), "boot must restore from {path:?}");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let warm_learns = client.learn("default", &learns).unwrap();
    let warm_applies = client.apply("default", &applies).unwrap();
    assert_eq!(warm_learns, cold_learns);
    assert_eq!(
        warm_applies
            .iter()
            .map(|r| r.outputs().map(<[Option<String>]>::to_vec))
            .collect::<Vec<_>>(),
        cold_applies
            .iter()
            .map(|r| r.outputs().map(<[Option<String>]>::to_vec))
            .collect::<Vec<_>>(),
    );

    let metrics = client.metrics_text().unwrap();
    let warm_hits = metric(
        &metrics,
        "sst_cache_hits_total{engine=\"default\",layer=\"example\"}",
    ) + metric(
        &metrics,
        "sst_cache_hits_total{engine=\"default\",layer=\"intersect\"}",
    );
    assert!(warm_hits > 0, "replay must hit the restored memo plane");
    assert!(metric(&metrics, "sst_snapshot_bytes") > 0);
    assert!(
        metrics.contains("sst_snapshot_restore_seconds"),
        "restore duration gauge missing:\n{metrics}"
    );
    assert!(metric(&metrics, "sst_snapshot_allocations{engine=\"default\"}") > 0);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_snapshot_falls_back_to_cold_boot() {
    let path = snap_path("corrupt-boot");
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    let server = Server::bind(engine(), config(&path, true)).unwrap();
    assert!(!server.warm_started(), "corrupt file must boot cold");
    let mut client = Client::connect(server.local_addr()).unwrap();
    // And the cold engine still serves.
    let responses = client
        .learn(
            "default",
            &[LearnRequest::new(vec![Example::new(vec!["c2"], "Google")])],
        )
        .unwrap();
    assert!(responses[0].result.is_ok());
    // Dropping the server writes its snapshot: remove the file after.
    drop(client);
    drop(server);
    std::fs::remove_file(&path).ok();
    assert!(!path.exists());
}
