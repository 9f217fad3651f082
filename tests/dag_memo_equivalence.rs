//! Differential harness for the memoized DAG plane.
//!
//! The `DagCache` (per-value DAG memo keyed by `(sources_epoch, value)`,
//! whole-example generation memo, `Arc`-shared predicate/top DAGs) and the
//! pruned `Intersect_u` are *representation and scheduling* changes: every
//! observable — program counts, data-structure sizes, convergence
//! behavior, top-k ranked outputs — must be bit-identical with the cache
//! enabled and disabled. This harness replays the full benchmark suite
//! both ways, including warm-cache relearns (the §3.2 loop is what fills
//! the memo), so any stale or mis-keyed hit fails loudly on the exact
//! task that exposed it.

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{converge, SynthesisOptions};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

fn synthesizer(db: &Database, dag_cache: bool) -> Synthesizer {
    Synthesizer::with_options(
        std::sync::Arc::new(db.clone()),
        SynthesisOptions::builder().dag_cache(dag_cache).build(),
    )
}

/// All observables of one learned program set: exact count, size, and the
/// top-k ranked outputs over every spreadsheet row.
fn observe(
    learned: &semantic_strings::core::LearnedPrograms,
    rows: &[semantic_strings::core::Example],
) -> (String, usize, Vec<Vec<Option<String>>>) {
    let outputs = learned
        .top_k(TOP_K)
        .iter()
        .map(|p| {
            rows.iter()
                .map(|r| {
                    let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
                    p.run(&refs)
                })
                .collect()
        })
        .collect();
    (learned.count().to_decimal(), learned.size(), outputs)
}

#[test]
fn cache_on_and_off_agree_on_every_task() {
    for task in all_tasks() {
        let cached = synthesizer(&task.db, true);
        let uncached = synthesizer(&task.db, false);

        // The interaction loop is the differential workload: it re-learns
        // on a growing prefix, so the cached synthesizer serves earlier
        // examples from the memo while the uncached one regenerates them.
        let rc = converge(&cached, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) cached: {e}", task.id, task.name));
        let ru = converge(&uncached, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) uncached: {e}", task.id, task.name));
        assert_eq!(
            (rc.examples_used, rc.converged),
            (ru.examples_used, ru.converged),
            "convergence drifted on task {} ({})",
            task.id,
            task.name
        );
        let lc = rc.learned.expect("cached learned set");
        let lu = ru.learned.expect("uncached learned set");
        assert_eq!(
            observe(&lc, &task.rows),
            observe(&lu, &task.rows),
            "count/size/top-k outputs drifted on task {} ({})",
            task.id,
            task.name
        );

        // Warm relearn: every example of the converged set is now in the
        // cached synthesizer's memo; a full learn must still be identical.
        let warm = cached
            .learn(&rc.examples)
            .unwrap_or_else(|e| panic!("task {} ({}) warm relearn: {e}", task.id, task.name));
        assert_eq!(
            observe(&warm, &task.rows),
            observe(&lu, &task.rows),
            "warm relearn drifted on task {} ({})",
            task.id,
            task.name
        );
    }
}

#[test]
fn cache_actually_serves_hits_on_the_suite() {
    // Guard against the toggle silently wiring both paths to the same
    // implementation: the cached run must observe real cache traffic.
    let task = &all_tasks()[0];
    let s = synthesizer(&task.db, true);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("task 1 converges");
    let stats = s.cache_stats();
    assert!(
        stats.dag_hits > 0,
        "no per-value DAG hits recorded: {stats:?}"
    );
    let s_off = synthesizer(&task.db, false);
    converge(&s_off, &task.rows, MAX_EXAMPLES).expect("task 1 converges");
    let off = s_off.cache_stats();
    assert_eq!(
        (
            off.dag_hits,
            off.dag_misses,
            off.example_hits,
            off.example_misses
        ),
        (0, 0, 0, 0),
        "disabled cache must see no traffic: {off:?}"
    );
}

#[test]
fn intersection_memo_serves_replays() {
    // The §3.2 loop replays earlier prefixes: the chain-keyed intersection
    // memo must see traffic on a task that needs ≥ 2 examples.
    let task = all_tasks()
        .into_iter()
        .find(|t| {
            let s = synthesizer(&t.db, true);
            converge(&s, &t.rows, MAX_EXAMPLES)
                .map(|r| r.examples_used >= 2)
                .unwrap_or(false)
        })
        .expect("some task needs two examples");
    let s = synthesizer(&task.db, true);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("converges");
    let report = converge(&s, &task.rows, MAX_EXAMPLES).expect("replay converges");
    assert!(report.learned.is_some());
    let stats = s.cache_stats();
    assert!(
        stats.intersect_hits > 0,
        "no intersection-memo hits recorded: {stats:?}"
    );
}
