//! Snapshot / warm-start: learn once, persist the engine, and serve the
//! same conversation memo-warm from a freshly restored engine.
//!
//! The paper's deployment shape is a long-lived service: users teach
//! transformations interactively and the engine accumulates a warm memo
//! plane (per-value DAGs, whole-example generations, example-pair
//! intersections, sharing subterms through `Arc`s). `Engine::snapshot_to`
//! persists that plane plus the database to one versioned binary file,
//! writing each shared allocation once;
//! `Engine::restore_from` rebuilds an equivalent engine from it — in this
//! process or, identically, after a restart (the server does exactly
//! this under `warm_start_on_boot`). The restored engine answers the
//! replayed requests from the snapshot's memos, not by re-deriving them.
//!
//! Run with: `cargo run --release --example warm_start`

use std::sync::Arc;

use semantic_strings::prelude::*;

fn main() {
    let comp = Table::new(
        "Comp",
        vec!["Id", "Name"],
        vec![
            vec!["c1", "Microsoft"],
            vec!["c2", "Google"],
            vec!["c3", "Apple"],
            vec!["c4", "Facebook"],
        ],
    )
    .expect("valid table");
    let db = Database::from_tables(vec![comp]).expect("valid database");

    // Learn in the "first life" of the service.
    let engine = Engine::new(Arc::new(db));
    let examples = vec![
        Example::new(vec!["c2"], "Google"),
        Example::new(vec!["c3"], "Apple"),
    ];
    let learned = engine.learn(&examples).expect("learnable");
    println!(
        "Learned {} consistent programs; top: {}",
        learned.count().to_decimal(),
        learned.top().expect("non-empty").paraphrase()
    );

    // Persist everything the engine knows: database, interned symbols,
    // and the memo plane.
    let path = std::env::temp_dir().join("warm_start_demo.snap");
    let bytes = engine.snapshot_to(&path).expect("snapshot");
    println!("Snapshot written: {} ({bytes} bytes)", path.display());

    // Second life: a child engine restored from the file alone. Nothing
    // is shared with the first engine but the bytes on disk.
    let restored = Engine::restore_from(&path, SynthesisOptions::default()).expect("restore");
    let before = restored.cache_stats();
    let replay = restored.learn(&examples).expect("learnable");
    let after = restored.cache_stats();

    assert_eq!(replay.count(), learned.count());
    assert_eq!(replay.size(), learned.size());
    assert_eq!(
        replay.top().expect("non-empty").run(&["c1"]).as_deref(),
        Some("Microsoft")
    );
    println!(
        "Replay on the restored engine: identical observables, {} warm example hit(s) \
         (was {} before the replay) — served from the snapshot's memo plane.",
        after.example_hits, before.example_hits
    );

    // A differently configured engine refuses the file instead of
    // serving memos that another configuration produced.
    let other = SynthesisOptions::builder().max_depth(7).build();
    let refused = Engine::restore_from(&path, other);
    println!(
        "Restore under different generation options: {}",
        refused.expect_err("must be refused")
    );

    std::fs::remove_file(&path).ok();
}
