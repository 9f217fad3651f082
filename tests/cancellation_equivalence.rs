//! Pins the deadline-cancellation contract end to end, in-process and
//! over the wire: an already-expired budget aborts a learn with the
//! typed error in *bounded* time, the abort leaves every cache and memo
//! untouched (partial results are never stored), and the identical
//! request re-run without a budget answers **bit-identical** to a cold
//! engine that never saw the aborted attempt. A budget that expires
//! mid-flight, inside `Intersect_u`'s edge product, aborts in bounded
//! time too, and a generous one lets a long-output pair learn.

use std::sync::Arc;
use std::time::{Duration, Instant};

use semantic_strings::benchmarks::{all_tasks, long_output_pair};
use semantic_strings::prelude::*;
use semantic_strings::server::ClientConfig;
use semantic_strings::service::{encode_lines, WireLearnResponse};

/// Wall-clock ceiling for one aborted learn: "bounded time" means the
/// cancellation checkpoints fire within the first synthesis steps, not
/// after the full search completes.
const ABORT_BOUND: Duration = Duration::from_secs(2);

fn task_examples(rows: &[Example]) -> Vec<Example> {
    rows.iter().take(2).cloned().collect()
}

#[test]
fn expired_budget_aborts_in_bounded_time_and_leaves_caches_clean() {
    for task in all_tasks() {
        let examples = task_examples(&task.rows);
        let engine = Engine::new(Arc::new(task.db.clone()));

        // The aborted attempt: typed error, bounded wall-clock.
        let started = Instant::now();
        let err = engine
            .learn_batch(&[LearnRequest::new(examples.clone())], Some(Duration::ZERO))
            .remove(0)
            .result
            .expect_err("zero budget must abort");
        let elapsed = started.elapsed();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { budget_ms: 0 }),
            "task {} ({}): expected DeadlineExceeded, got {err:?}",
            task.id,
            task.name
        );
        assert!(
            elapsed < ABORT_BOUND,
            "task {} ({}): abort took {elapsed:?}",
            task.id,
            task.name
        );

        // Nothing partial entered the memo plane: the first full learn on
        // the same engine is served from scratch (zero example-memo hits)…
        let relearned = engine
            .learn(&examples)
            .unwrap_or_else(|e| panic!("task {} ({}): relearn failed: {e}", task.id, task.name));
        assert_eq!(
            engine.cache_stats().example_hits,
            0,
            "task {} ({}): the aborted learn leaked example structures into the cache",
            task.id,
            task.name
        );

        // …and matches a cold engine that never saw the abort, bit for bit
        // at the wire level.
        let cold = Engine::new(Arc::new(task.db.clone()))
            .learn(&examples)
            .unwrap_or_else(|e| panic!("task {} ({}): cold learn failed: {e}", task.id, task.name));
        assert_eq!(
            relearned.count(),
            cold.count(),
            "task {} ({}): program count drifted after an aborted learn",
            task.id,
            task.name
        );
        assert_eq!(relearned.size(), cold.size());
        let inputs: Vec<Vec<String>> = task.rows.iter().map(|r| r.inputs.clone()).collect();
        for row in &inputs {
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            assert_eq!(
                relearned.top().and_then(|p| p.run(&refs)),
                cold.top().and_then(|p| p.run(&refs)),
                "task {} ({}): top-program outputs drifted after an aborted learn",
                task.id,
                task.name
            );
        }
    }
}

/// The 186-char long-output pair learns well inside a 10 s budget: the
/// edge product expands only edge pairs reached from the source pair, and
/// constant edges of two different outputs rarely agree, so few pairs are
/// reached.
#[test]
fn long_output_pair_learns_within_budget() {
    let (db, examples) = long_output_pair(34);
    assert_eq!(examples[0].output.chars().count(), 186);
    let engine = Engine::new(Arc::new(db));
    let learned = engine
        .learn_batch(
            &[LearnRequest::new(examples.to_vec())],
            Some(Duration::from_secs(10)),
        )
        .remove(0)
        .result
        .expect("the 186-char pair learns within 10 s");
    let top = learned.top().expect("a consistent program exists");
    for example in &examples {
        let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
        assert_eq!(top.run(&refs).as_deref(), Some(example.output.as_str()));
    }
}

/// A budget that expires inside `Intersect_u`'s edge product aborts in
/// bounded time. The long-output pair at 373 chars has about 70 000
/// top-DAG edges per example, and its edge product takes about 0.2 s in a
/// release build and 3 s in a debug build (2 CPUs). Each example is learned alone first, so the batched
/// learn's generations are memo hits and the 50 ms budget runs out inside
/// the product, whose constant-only edge pairs never pair a lookup node.
#[test]
fn budget_expiring_inside_the_edge_product_aborts_in_bounded_time() {
    let (db, examples) = long_output_pair(68);
    assert_eq!(examples[0].output.chars().count(), 373);
    let engine = Engine::new(Arc::new(db));
    for example in &examples {
        engine
            .learn(std::slice::from_ref(example))
            .expect("one example always learns");
    }

    let started = Instant::now();
    let err = engine
        .learn_batch(
            &[LearnRequest::new(examples.to_vec())],
            Some(Duration::from_millis(50)),
        )
        .remove(0)
        .result
        .expect_err("the pair cannot intersect within 50 ms");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { budget_ms: 50 }),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(elapsed < ABORT_BOUND, "mid-product abort took {elapsed:?}");
    // Nothing partial entered the intersection memo.
    assert_eq!(engine.cache_entries().2, 0);
}

/// A batched apply's budget covers every request's learn phase: an
/// expired one aborts each request with the typed error in bounded time
/// and stores no example or intersection structure, and a generous one answers exactly what the
/// budgetless batch answers.
#[test]
fn apply_batch_budget_bounds_every_request_and_otherwise_changes_nothing() {
    for task in all_tasks() {
        let examples = task_examples(&task.rows);
        let rows: Vec<Vec<String>> = task.rows.iter().map(|r| r.inputs.clone()).collect();
        let requests: Vec<ApplyRequest> = (1..=examples.len())
            .map(|n| ApplyRequest::new(examples[..n].to_vec(), rows.clone()))
            .collect();

        let engine = Engine::new(Arc::new(task.db.clone()));
        let started = Instant::now();
        let aborted = engine.apply_batch(&requests, Some(Duration::ZERO));
        let elapsed = started.elapsed();
        assert!(
            elapsed < ABORT_BOUND,
            "task {} ({}): batched abort took {elapsed:?}",
            task.id,
            task.name
        );
        for response in &aborted {
            assert!(
                matches!(
                    response.result,
                    Err(ServiceError::DeadlineExceeded { budget_ms: 0 })
                ),
                "task {} ({}) request {}: expected DeadlineExceeded, got {:?}",
                task.id,
                task.name,
                response.request,
                response.result
            );
        }
        // Per-value DAGs are complete whenever they are stored; what must
        // stay empty is the example and intersection-chain memo.
        let (_, examples_memo, chains_memo) = engine.cache_entries();
        assert_eq!(
            (examples_memo, chains_memo),
            (0, 0),
            "task {} ({}): the aborted batch left partial structures in the memo plane",
            task.id,
            task.name
        );

        let results = |responses: Vec<ApplyResponse>| -> Vec<_> {
            responses
                .into_iter()
                .map(|r| (r.request, r.result))
                .collect()
        };
        let generous = results(engine.apply_batch(&requests, Some(Duration::from_secs(3600))));
        let unbounded =
            results(Engine::new(Arc::new(task.db.clone())).apply_batch(&requests, None));
        assert_eq!(
            generous, unbounded,
            "task {} ({}): a generous budget changed the batched apply",
            task.id, task.name
        );
    }
}

#[test]
fn wire_deadline_abort_then_budgetless_retry_is_bit_identical_to_a_cold_engine() {
    let tasks = all_tasks();
    let engines: Vec<(String, Engine)> = tasks
        .iter()
        .map(|task| {
            (
                format!("task-{}", task.id),
                Engine::new(Arc::new(task.db.clone())),
            )
        })
        .collect();
    let server = Server::bind_named(engines, ServerConfig::default()).expect("bind server");
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            deadline_ms: Some(0),
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    for task in &tasks {
        let name = format!("task-{}", task.id);
        let requests = vec![LearnRequest::new(task_examples(&task.rows))];
        let body = encode_lines(&requests);

        // With the expired budget: typed 408 in bounded time (the
        // whole-batch rule — every request in the batch timed out).
        client.set_deadline_ms(Some(0));
        let started = Instant::now();
        let result = client.learn(&name, &requests);
        let elapsed = started.elapsed();
        assert!(
            elapsed < ABORT_BOUND,
            "task {} ({}): wire abort took {elapsed:?}",
            task.id,
            task.name
        );
        match result {
            Err(semantic_strings::server::ClientError::Http { status: 408, error }) => {
                assert!(
                    matches!(error, ServiceError::DeadlineExceeded { budget_ms: 0 }),
                    "task {} ({}): wrong typed error {error:?}",
                    task.id,
                    task.name
                );
            }
            other => panic!(
                "task {} ({}): expected typed 408, got {other:?}",
                task.id, task.name
            ),
        }

        // The identical request without a deadline must answer the exact
        // bytes a cold engine (no aborted attempt in its history) encodes.
        client.set_deadline_ms(None);
        let (status, wire_body) = client
            .request("POST", &format!("/v1/{name}/learn"), &body)
            .expect("budgetless retry");
        assert_eq!(status, 200);
        let cold: Vec<WireLearnResponse> = Engine::new(Arc::new(task.db.clone()))
            .learn_batch(&requests, None)
            .iter()
            .map(WireLearnResponse::from_response)
            .collect();
        assert_eq!(
            wire_body,
            encode_lines(&cold),
            "task {} ({}): post-abort learn bytes drifted from a cold engine",
            task.id,
            task.name
        );
    }
}
