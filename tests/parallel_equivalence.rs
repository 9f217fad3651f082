//! Differential harness for the parallel intersection plane.
//!
//! `SynthesisOptions::threads` selects how `Intersect_u` executes: `1`
//! runs the serial depth-first pairing exactly as before, `N ≥ 2` runs the
//! discovery-scheduled parallel plane (serial structural discovery →
//! parallel DAG-pair products → parallel per-pair program products →
//! deterministic merge). Every observable — convergence behavior, exact
//! program counts, structure sizes, top-k ranked outputs over every
//! spreadsheet row — must be bit-identical at every thread count. This
//! harness replays the full benchmark suite at `threads = 1`, `2` and the
//! machine width, including the §3.2 interaction loop (whose re-learns
//! exercise the example-pair intersection memo on top of the parallel
//! plane) and warm relearns.

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{converge, default_threads, SynthesisOptions};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

fn synthesizer(db: &Database, threads: usize) -> Synthesizer {
    Synthesizer::with_options(
        std::sync::Arc::new(db.clone()),
        SynthesisOptions::builder().threads(threads).build(),
    )
}

/// Observed outputs: one row of `run` results per top-k program.
type TopKOutputs = Vec<Vec<Option<String>>>;

/// All observables of one learned program set: exact count, size, and the
/// top-k ranked outputs over every spreadsheet row.
fn observe(
    learned: &semantic_strings::core::LearnedPrograms,
    rows: &[semantic_strings::core::Example],
) -> (String, usize, TopKOutputs) {
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
fn every_thread_count_agrees_on_every_task() {
    let wide = default_threads().max(2);
    let mut widths = vec![1usize, 2];
    if wide > 2 {
        widths.push(wide);
    }
    for task in all_tasks() {
        let mut baseline: Option<(usize, bool, (String, usize, TopKOutputs))> = None;
        for &threads in &widths {
            let s = synthesizer(&task.db, threads);
            let report = converge(&s, &task.rows, MAX_EXAMPLES).unwrap_or_else(|e| {
                panic!("task {} ({}) at {threads} threads: {e}", task.id, task.name)
            });
            let learned = report.learned.expect("converge returns a learned set");
            let observed = (
                report.examples_used,
                report.converged,
                observe(&learned, &task.rows),
            );

            // Warm relearn: intersections now come from the memo; still
            // identical.
            let warm = s.learn(&report.examples).unwrap_or_else(|e| {
                panic!(
                    "task {} ({}) warm at {threads} threads: {e}",
                    task.id, task.name
                )
            });
            assert_eq!(
                observe(&warm, &task.rows),
                observed.2,
                "warm relearn drifted on task {} ({}) at {threads} threads",
                task.id,
                task.name
            );

            match &baseline {
                None => baseline = Some(observed),
                Some(expected) => assert_eq!(
                    &observed, expected,
                    "threads=1 vs threads={threads} drifted on task {} ({})",
                    task.id, task.name
                ),
            }
        }
    }
}

#[test]
fn parallel_intersection_serves_the_memo_on_replays() {
    // The §3.2 loop replays earlier prefixes: the chain-keyed intersection
    // memo must see traffic on a task that needs ≥ 2 examples.
    let task = all_tasks()
        .into_iter()
        .find(|t| {
            let s = synthesizer(&t.db, 1);
            converge(&s, &t.rows, MAX_EXAMPLES)
                .map(|r| r.examples_used >= 2)
                .unwrap_or(false)
        })
        .expect("some task needs two examples");
    let s = synthesizer(&task.db, default_threads().max(2));
    converge(&s, &task.rows, MAX_EXAMPLES).expect("converges");
    let report = converge(&s, &task.rows, MAX_EXAMPLES).expect("replay converges");
    assert!(report.learned.is_some());
    let stats = s.cache_stats();
    assert!(
        stats.intersect_hits > 0,
        "no intersection-memo hits recorded: {stats:?}"
    );
}
