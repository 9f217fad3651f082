//! Unit/integration tests of the service plane: session conversations,
//! batch serving, and the shared-database mutation contract.

use std::sync::Arc;

use sst_core::{Example, SynthesisError, SynthesisOptions, Synthesizer};
use sst_service::{Engine, LearnRequest, ServiceError, SessionStatus};
use sst_tables::{Database, Table};

fn comp_table() -> Table {
    Table::new(
        "Comp",
        vec!["Id", "Name"],
        vec![
            vec!["c1", "Microsoft"],
            vec!["c2", "Google"],
            vec!["c3", "Apple"],
            vec!["c4", "Facebook"],
        ],
    )
    .unwrap()
}

fn comp_engine() -> Engine {
    Engine::from_tables(vec![comp_table()]).unwrap()
}

#[test]
fn session_learns_lazily_and_serves_queries() {
    let engine = comp_engine();
    let mut session = engine.session();
    session.add_example(Example::new(vec!["c2"], "Google"));
    assert_eq!(session.run(&["c1"]).unwrap().as_deref(), Some("Microsoft"));
    let paraphrase = session.paraphrase().unwrap();
    assert!(
        paraphrase.to_lowercase().contains("comp") || !paraphrase.is_empty(),
        "paraphrase should describe the program: {paraphrase}"
    );
    assert!(session.count().unwrap() > sst_counting::BigUint::from(1u64));
    assert!(session.size().unwrap() > 0);
    assert!(!session.top_k().unwrap().is_empty());
}

#[test]
fn session_status_follows_the_interaction_loop() {
    let engine = comp_engine();
    let mut session = engine.session();
    session.watch_inputs(
        ["c1", "c2", "c3", "c4"]
            .iter()
            .map(|s| vec![s.to_string()])
            .collect(),
    );

    // No examples: everything needs one.
    match session.status().unwrap() {
        SessionStatus::NeedsExamples { ambiguous_inputs } => {
            assert_eq!(ambiguous_inputs.len(), 4)
        }
        s => panic!("expected NeedsExamples, got {s:?}"),
    }

    // One example: the constant program still disagrees with the lookup
    // on other rows, so some rows stay ambiguous — and §3.2 says the
    // training row itself can never be flagged.
    session.add_example(Example::new(vec!["c2"], "Google"));
    match session.status().unwrap() {
        SessionStatus::NeedsExamples { ambiguous_inputs } => {
            assert!(!ambiguous_inputs.is_empty());
            assert!(!ambiguous_inputs.contains(&vec!["c2".to_string()]));
            // The distinguishing input is one of the flagged rows.
            let d = session.distinguishing_input().unwrap();
            assert!(d.is_some());
        }
        SessionStatus::Converged => panic!("one example should leave ambiguity"),
    }

    // Fixing a flagged row converges the conversation.
    session.add_example(Example::new(vec!["c1"], "Microsoft"));
    assert!(session.status().unwrap().is_converged());
    assert_eq!(session.run(&["c3"]).unwrap().as_deref(), Some("Apple"));
}

#[test]
fn session_converge_with_matches_core_protocol() {
    let truth = vec![
        Example::new(vec!["c1"], "Microsoft"),
        Example::new(vec!["c2"], "Google"),
        Example::new(vec!["c3"], "Apple"),
        Example::new(vec!["c4"], "Facebook"),
    ];
    let engine = comp_engine();
    let mut session = engine.session();
    let outcome = session.converge_with(&truth, 3).unwrap();
    assert!(outcome.converged);

    let baseline = sst_core::converge(
        &Synthesizer::new(Arc::new(Database::from_tables(vec![comp_table()]).unwrap())),
        &truth,
        3,
    )
    .unwrap();
    assert_eq!(outcome.examples_used, baseline.examples_used);
    assert_eq!(outcome.converged, baseline.converged);
    assert_eq!(session.examples().len(), baseline.examples.len());
}

#[test]
fn learn_batch_keeps_request_order_and_isolates_failures() {
    let engine = comp_engine();
    let requests = vec![
        LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]),
        // Unlearnable: contradictory outputs for one input.
        LearnRequest::new(vec![
            Example::new(vec!["c2"], "Google"),
            Example::new(vec!["c2"], "Apple"),
        ]),
        LearnRequest::new(vec![Example::new(vec!["c3"], "Apple")]).with_top_k(1),
        // Empty example set is a per-request error, not a batch failure.
        LearnRequest::new(vec![]),
    ];
    let responses = engine.learn_batch(&requests);
    assert_eq!(responses.len(), 4);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.request, i);
    }
    assert_eq!(
        responses[0].best().unwrap().run(&["c1"]).as_deref(),
        Some("Microsoft")
    );
    assert_eq!(
        responses[1].result.as_ref().err(),
        Some(&ServiceError::Synthesis(
            SynthesisError::NoConsistentProgram
        ))
    );
    assert!(responses[1].top.is_empty());
    assert_eq!(responses[2].top.len(), 1, "per-request top_k override");
    assert_eq!(
        responses[3].result.as_ref().err(),
        Some(&ServiceError::Synthesis(SynthesisError::NoExamples))
    );
}

#[test]
fn learn_batch_is_bit_identical_to_sequential_learns() {
    let engine = comp_engine();
    let examples = [
        vec![Example::new(vec!["c2"], "Google")],
        vec![
            Example::new(vec!["c2"], "Google"),
            Example::new(vec!["c1"], "Microsoft"),
        ],
        vec![Example::new(vec!["c4"], "Facebook")],
    ];
    let requests: Vec<LearnRequest> = examples
        .iter()
        .map(|e| LearnRequest::new(e.clone()))
        .collect();
    let responses = engine.learn_batch(&requests);

    let baseline = Synthesizer::new(Arc::new(Database::from_tables(vec![comp_table()]).unwrap()));
    for (req, resp) in examples.iter().zip(&responses) {
        let expected = baseline.learn(req).unwrap();
        let got = resp.programs().unwrap();
        assert_eq!(got.count(), expected.count());
        assert_eq!(got.size(), expected.size());
        assert_eq!(
            got.top().unwrap().to_string(),
            expected.top().unwrap().to_string()
        );
    }
}

#[test]
fn batch_requests_share_the_warm_plane() {
    let engine = comp_engine();
    let request = LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]);
    engine.learn_batch(std::slice::from_ref(&request));
    let cold = engine.cache_stats();
    assert!(cold.example_misses > 0);
    engine.learn_batch(std::slice::from_ref(&request));
    let warm = engine.cache_stats();
    assert!(
        warm.example_hits > cold.example_hits,
        "second batch should be memo-served: {warm:?}"
    );
}

/// The add-table satellite: one `Engine::add_table` moves the database
/// epoch exactly once no matter how many sessions are live, and the shared
/// DAG plane drops stale structures for *all* of them.
#[test]
fn add_table_bumps_epoch_once_and_invalidates_every_session() {
    // Start with an empty database: the only consistent program is the
    // constant, so both sessions' warm plane entries are "constants-only"
    // structures that MUST be invalidated when the table arrives.
    let engine = Engine::new(Arc::new(Database::new()));
    let mut alice = engine.session();
    let mut bob = engine.session();
    let example = Example::new(vec!["c2"], "Google");
    alice.add_example(example.clone());
    bob.add_example(example.clone());

    assert_eq!(
        alice.run(&["c1"]).unwrap().as_deref(),
        Some("Google"),
        "without tables only the constant program exists"
    );
    assert_eq!(bob.run(&["c1"]).unwrap().as_deref(), Some("Google"));
    // Bob's learn was served from the plane Alice warmed.
    assert!(engine.cache_stats().example_hits > 0);

    let before = engine.db_epoch();
    engine.add_table(comp_table()).unwrap();
    let after = engine.db_epoch();
    assert_ne!(before, after, "add_table must move the epoch");

    // Exactly once: every view of the engine agrees on the single new
    // epoch (the old per-clone Synthesizer mutation pattern gave each
    // clone its own diverging bump), and a second add from any handle
    // moves it again — one bump per mutation, not per session.
    assert_eq!(engine.db_epoch(), after);
    assert_eq!(alice.engine().db_epoch(), after);
    assert_eq!(bob.engine().db_epoch(), after);
    assert_eq!(engine.db().epoch(), after);

    // Both sessions re-learn against the new state: a stale plane would
    // keep serving the constants-only structure.
    assert_eq!(
        alice.run(&["c1"]).unwrap().as_deref(),
        Some("Microsoft"),
        "alice saw a stale DAG plane after add_table"
    );
    assert_eq!(
        bob.run(&["c1"]).unwrap().as_deref(),
        Some("Microsoft"),
        "bob saw a stale DAG plane after add_table"
    );

    // And the post-mutation learns are bit-identical to a fresh engine
    // over the same database.
    let fresh = Engine::new(engine.db());
    let mut fresh_session = fresh.session();
    fresh_session.add_example(example);
    assert_eq!(
        alice.count().unwrap(),
        fresh_session.count().unwrap(),
        "post-mutation session drifted from a fresh engine"
    );
    assert_eq!(alice.size().unwrap(), fresh_session.size().unwrap());

    // Duplicate table names surface as typed errors.
    let err = engine.add_table(comp_table()).unwrap_err();
    assert!(matches!(err, ServiceError::Table(_)));
}

/// The mutation satellite: a row-level write to a table no learned program
/// reads must keep other sessions warm — no re-learn, no re-compile, warm
/// shared-plane entries preserved — while a write to a table the program
/// *does* read still invalidates.
#[test]
fn unrelated_mutation_keeps_sessions_and_plane_warm() {
    let engine = Engine::from_tables(vec![
        comp_table(),
        Table::new(
            "Scratch",
            vec!["K", "V"],
            vec![vec!["zk1", "zv1"], vec!["zk2", "zv2"]],
        )
        .unwrap(),
    ])
    .unwrap();
    let mut session = engine.session();
    session.add_example(Example::new(vec!["c2"], "Google"));
    let col: Vec<Vec<String>> = vec![vec!["c1".into()], vec!["c3".into()]];
    let warm = session.run_column(&col).unwrap();
    assert_eq!(
        warm,
        vec![Some("Microsoft".to_string()), Some("Apple".to_string())]
    );
    let compiled_before = session.compiled_top().unwrap();
    let stats_before = engine.cache_stats();
    let entries_before = engine.cache_entries();
    assert!(entries_before.1 > 0, "the learn warmed the example memo");
    let epoch_before = engine.db_epoch();

    // Insert, update and delete rows of the table the program never
    // reads.
    engine.insert_rows(1, vec![vec!["zk3", "zv3"]]).unwrap();
    engine.update_cell(1, 1, 0, "zv1b").unwrap();
    engine.delete_rows(1, &[1]).unwrap();
    assert_ne!(engine.db_epoch(), epoch_before, "mutations move the epoch");

    // The session's compiled run_column path stays warm: identical
    // outputs, the same compiled allocation, and no fresh generation
    // through the shared plane.
    assert_eq!(session.run_column(&col).unwrap(), warm);
    let compiled_after = session.compiled_top().unwrap();
    assert!(
        Arc::ptr_eq(&compiled_before, &compiled_after),
        "unrelated mutation must not recompile the top program"
    );
    let stats_after = engine.cache_stats();
    assert_eq!(
        stats_after.example_misses, stats_before.example_misses,
        "unrelated mutation must not force a regeneration"
    );

    // The shared plane revalidates without losing a single entry.
    engine.validate_cache();
    assert_eq!(engine.cache_entries(), entries_before);

    // A write to the table the program READS invalidates: the session
    // re-learns against the new state and sees the new cell.
    engine.update_cell(0, 1, 0, "Microsofty").unwrap();
    assert_eq!(
        session.run(&["c1"]).unwrap().as_deref(),
        Some("Microsofty"),
        "related mutation must re-learn"
    );
    assert!(
        engine.cache_stats().example_misses > stats_after.example_misses,
        "related mutation regenerates through the plane"
    );
}

/// Everything a learned program set answers with: the structure itself,
/// its exact count, and the top-3 programs with their outputs on `rows`.
type Observables = (
    sst_core::SemDStruct,
    String,
    Vec<(String, Vec<Option<String>>)>,
);

fn learned_observables(learned: &sst_core::LearnedPrograms, rows: &[&str]) -> Observables {
    let top = learned
        .top_k(3)
        .iter()
        .map(|p| (p.to_string(), rows.iter().map(|r| p.run(&[r])).collect()))
        .collect();
    (learned.dstruct().clone(), learned.count().to_decimal(), top)
}

/// A mutation the cached examples *read* marks them stale; when the
/// regenerated structures compare equal (an insert undone by a delete),
/// they keep their example ids, so the re-learn's intersection chain is
/// served warm: fresh generations, no fresh intersections.
#[test]
fn undone_mutation_keeps_example_ids_and_chains_warm() {
    let engine = comp_engine();
    let examples = [
        Example::new(vec!["c2"], "Google"),
        Example::new(vec!["c3"], "Apple"),
        Example::new(vec!["c4"], "Facebook"),
    ];
    let before = engine.learn(&examples).unwrap();
    let stats = engine.cache_stats();
    assert!(
        stats.intersect_misses >= 2,
        "the cold learn fills the chain"
    );

    let ids = engine.insert_rows(0, vec![vec!["c9", "Zeta"]]).unwrap();
    engine.delete_rows(0, &ids).unwrap();
    engine.validate_cache();
    assert_eq!(engine.cache_entries().1, 0, "the read table moved: stale");

    let after = engine.learn(&examples).unwrap();
    let stats2 = engine.cache_stats();
    assert_eq!(
        stats2.example_misses - stats.example_misses,
        3,
        "stale examples regenerate"
    );
    assert_eq!(
        stats2.intersect_misses, stats.intersect_misses,
        "equal regenerations keep their ids: no fresh intersection"
    );
    assert_eq!(stats2.intersect_hits - stats.intersect_hits, 2);
    assert_eq!(engine.cache_entries().1, 3, "regenerated entries are fresh");
    let rows = ["c1", "c2", "c3", "c4"];
    assert_eq!(
        learned_observables(&after, &rows),
        learned_observables(&before, &rows)
    );
}

/// A mutation that changes a cached example's structure mints a fresh
/// example id: the old chain is never served, and the re-learn answers
/// exactly like a cold engine over the mutated database.
#[test]
fn changed_regeneration_never_serves_the_old_chain() {
    let engine = comp_engine();
    let examples = [
        Example::new(vec!["c2"], "Google"),
        Example::new(vec!["c3"], "Apple"),
    ];
    engine.learn(&examples).unwrap();
    let stats = engine.cache_stats();
    let chains = engine.cache_entries().2;

    // A row whose Name is an input value: `c2` now also reaches "Google"
    // through a reverse lookup, so G(c2 → Google) gains a program.
    engine.insert_rows(0, vec![vec!["Google", "c2"]]).unwrap();
    let warm = engine.learn(&examples).unwrap();
    let stats2 = engine.cache_stats();
    assert_eq!(
        stats2.intersect_misses - stats.intersect_misses,
        1,
        "the changed example's fresh id misses the chain"
    );
    assert_eq!(stats2.intersect_hits, stats.intersect_hits);
    assert_eq!(
        engine.cache_entries().2,
        chains,
        "the chain over the old id was dropped, the new one stored"
    );

    let cold = Engine::new(engine.db()).learn(&examples).unwrap();
    let rows = ["c1", "c2", "c3", "c4", "Google"];
    assert_eq!(
        learned_observables(&warm, &rows),
        learned_observables(&cold, &rows),
        "bit-identical to a cold engine"
    );
}

#[test]
fn failed_learns_do_not_disturb_session_state() {
    // Regression: status()/distinguishing_input() used to lose the
    // watched inputs on an Err early-return (mem::take never restored).
    let engine = Engine::new(Arc::new(Database::new()));
    let mut session = engine.session();
    session.watch_inputs(vec![
        vec!["c1".into()],
        vec!["c2".into()],
        vec!["c3".into()],
    ]);
    // Contradictory examples: learning fails.
    session.add_example(Example::new(vec!["c2"], "Google"));
    session.add_example(Example::new(vec!["c2"], "Apple"));
    assert!(session.status().is_err());
    assert!(session.distinguishing_input().is_err());
    assert_eq!(
        session.inputs().len(),
        3,
        "watched inputs must survive a failed learn"
    );
    assert_eq!(session.examples().len(), 2);
}

#[test]
fn zero_top_k_requests_still_materialize_the_best_program() {
    let engine = comp_engine();
    let responses =
        engine.learn_batch(&[
            LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]).with_top_k(0)
        ]);
    assert!(
        responses[0].best().is_some(),
        "a successful learn must carry at least its best program"
    );
}

#[test]
fn sessions_are_independent_conversations() {
    let engine = Engine::from_tables(vec![
        comp_table(),
        Table::new(
            "Ceo",
            vec!["Id", "Boss"],
            vec![
                vec!["c1", "Nadella"],
                vec!["c2", "Pichai"],
                vec!["c3", "Cook"],
                vec!["c4", "Zuckerberg"],
            ],
        )
        .unwrap(),
    ])
    .unwrap();

    let mut names = engine.session();
    let mut bosses = engine.session();
    names.add_example(Example::new(vec!["c2"], "Google"));
    bosses.add_example(Example::new(vec!["c2"], "Pichai"));

    assert_eq!(names.run(&["c3"]).unwrap().as_deref(), Some("Apple"));
    assert_eq!(bosses.run(&["c3"]).unwrap().as_deref(), Some("Cook"));
    assert_eq!(names.examples().len(), 1);
    assert_eq!(bosses.examples().len(), 1);
}

#[test]
fn engine_options_flow_into_sessions() {
    let options = SynthesisOptions::builder()
        .threads(1)
        .dag_cache(true)
        .top_k(2)
        .parallel_edge_product_min(64)
        .build();
    let engine = Engine::with_options(
        Arc::new(Database::from_tables(vec![comp_table()]).unwrap()),
        options,
    );
    assert_eq!(engine.options().top_k, 2);
    assert_eq!(engine.options().parallel_edge_product_min, 64);
    let mut session = engine.session();
    session.add_example(Example::new(vec!["c2"], "Google"));
    assert!(session.top_k().unwrap().len() <= 2);
}

#[test]
fn replacing_an_example_at_the_same_count_invalidates_the_learn_cache() {
    // Regression: the session learn-cache was keyed by (db_epoch,
    // examples.len()), so removing an example and adding a different one
    // at the same count served the stale learned set. The key is now a
    // content hash of the example sequence.
    let engine = Engine::from_tables(vec![Table::new(
        "Prod",
        vec!["Id", "Name", "Price"],
        vec![
            vec!["p1", "Laptop", "980"],
            vec!["p2", "Phone", "650"],
            vec!["p3", "Tablet", "430"],
        ],
    )
    .unwrap()])
    .unwrap();
    let mut session = engine.session();

    session.add_example(Example::new(vec!["p1"], "Laptop"));
    assert_eq!(session.run(&["p2"]).unwrap().as_deref(), Some("Phone"));

    // Same example count (one), different content: the session must
    // re-learn, not replay the Name-column programs.
    let removed = session.remove_example(0);
    assert_eq!(removed.output, "Laptop");
    session.add_example(Example::new(vec!["p1"], "980"));
    assert_eq!(session.run(&["p2"]).unwrap().as_deref(), Some("650"));

    // And the same holds for in-place replacement via clear + re-add.
    session.clear_examples();
    session.add_example(Example::new(vec!["p2"], "Phone"));
    assert_eq!(session.run(&["p3"]).unwrap().as_deref(), Some("Tablet"));

    // Reordering two examples also changes the hash (the sequence is
    // order-sensitive), which must not poison correctness: the learned
    // set is semantically identical, just re-derived.
    session.clear_examples();
    session.add_example(Example::new(vec!["p1"], "Laptop"));
    session.add_example(Example::new(vec!["p2"], "Phone"));
    let forward = session.run(&["p3"]).unwrap();
    session.clear_examples();
    session.add_example(Example::new(vec!["p2"], "Phone"));
    session.add_example(Example::new(vec!["p1"], "Laptop"));
    assert_eq!(session.run(&["p3"]).unwrap(), forward);
}

/// A snapshot taken after learning restores into a fresh engine that
/// answers the same requests identically — and answers them *warm*: the
/// replays are served from the restored memo plane, not re-derived.
#[test]
fn snapshot_restore_round_trips_and_serves_warm_replays() {
    let path = std::env::temp_dir().join(format!(
        "sst-service-snap-roundtrip-{}.snap",
        std::process::id()
    ));
    let engine = comp_engine();
    let examples = vec![
        Example::new(vec!["c2"], "Google"),
        Example::new(vec!["c3"], "Apple"),
    ];
    let cold = engine.learn(&examples).unwrap();
    let bytes = engine.snapshot_to(&path).unwrap();
    assert!(bytes > 0);

    let restored = Engine::restore_from(&path, SynthesisOptions::default()).unwrap();
    let before = restored.cache_stats();
    assert_eq!(before.example_hits + before.intersect_hits, 0);
    let warm = restored.learn(&examples).unwrap();
    assert_eq!(warm.count(), cold.count());
    assert_eq!(warm.size(), cold.size());
    for (a, b) in cold.top_ranked().iter().zip(warm.top_ranked().iter()) {
        assert_eq!(a.run(&["c1"]), b.run(&["c1"]));
        assert_eq!(a.run(&["c4"]), b.run(&["c4"]));
    }
    let after = restored.cache_stats();
    assert!(
        after.example_hits > 0,
        "replay must be memo-served: {after:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A snapshot taken under one generation configuration refuses to restore
/// into a differently configured engine — typed, not silent unsoundness.
#[test]
fn snapshot_restore_refuses_mismatched_options() {
    let path = std::env::temp_dir().join(format!(
        "sst-service-snap-options-{}.snap",
        std::process::id()
    ));
    let engine = comp_engine();
    engine.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
    engine.snapshot_to(&path).unwrap();

    let other = SynthesisOptions::builder().max_depth(7).build();
    let err = Engine::restore_from(&path, other).unwrap_err();
    assert!(matches!(err, ServiceError::Snapshot(_)), "got {err:?}");
    assert!(err.to_string().contains("fingerprint"), "got {err}");

    // Non-generation knobs (threads, top_k) are outside the fingerprint.
    let reranked = SynthesisOptions::builder().threads(1).top_k(3).build();
    Engine::restore_from(&path, reranked).unwrap();
    std::fs::remove_file(&path).ok();
}

/// Corrupting any byte of a snapshot yields a typed [`ServiceError`],
/// never a panic or a silently wrong engine.
#[test]
fn snapshot_restore_rejects_corruption_typed() {
    let path = std::env::temp_dir().join(format!(
        "sst-service-snap-corrupt-{}.snap",
        std::process::id()
    ));
    let engine = comp_engine();
    engine.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
    engine.snapshot_to(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Flip one payload byte: checksum mismatch.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    let err = Engine::restore_from(&path, SynthesisOptions::default()).unwrap_err();
    assert!(matches!(err, ServiceError::Snapshot(_)), "got {err:?}");

    // Truncate: typed error too.
    std::fs::write(&path, &good[..good.len() / 3]).unwrap();
    let err = Engine::restore_from(&path, SynthesisOptions::default()).unwrap_err();
    assert!(matches!(err, ServiceError::Snapshot(_)), "got {err:?}");

    // Missing file.
    std::fs::remove_file(&path).ok();
    let err = Engine::restore_from(&path, SynthesisOptions::default()).unwrap_err();
    assert!(matches!(err, ServiceError::Snapshot(_)), "got {err:?}");
}
