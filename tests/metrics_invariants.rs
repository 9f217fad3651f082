//! Invariants of the evaluation metrics (`count()` for Fig. 11a, `size()`
//! for Figs. 11b and 12b) over the 50-task suite.

use semantic_strings::benchmarks::{all_tasks, Category};
use semantic_strings::core::{converge, generate_str_t, Synthesizer};

/// A small representative slice (keeps debug-mode runtime reasonable).
fn sample_ids() -> Vec<usize> {
    vec![2, 7, 15, 18, 27, 31, 46]
}

#[test]
fn counts_and_sizes_are_positive_and_consistent() {
    for task in all_tasks() {
        let s = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        let learned = converge(&s, &task.rows, 3)
            .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name))
            .learned;
        let count = learned.count();
        let size = learned.size();
        assert!(size > 0, "task {}: zero size", task.id);
        // Fig. 11's succinctness: every converged structure represents
        // more programs than it has terminal symbols.
        assert!(
            count.log10() > (size as f64).log10(),
            "Fig. 11: task {} ({}) represents {} programs in size {size}",
            task.id,
            task.name,
            count.to_scientific()
        );
    }
}

#[test]
fn lt_tasks_count_at_least_one_program_in_lt_alone() {
    let tasks = all_tasks();
    for task in tasks.iter().filter(|t| t.category == Category::Lookup) {
        let e = &task.rows[0];
        let refs: Vec<&str> = e.inputs.iter().map(String::as_str).collect();
        let d = generate_str_t(&task.db, &refs, &e.output, task.db.len().max(1));
        assert!(
            d.has_programs(),
            "Lt task {} ({}) has no Lt program for its first example",
            task.id,
            task.name
        );
        assert!(!d.count(task.db.len().max(1)).is_zero());
    }
}

#[test]
fn intersection_never_grows_count() {
    // Counts are monotone under intersection for the *set* of programs;
    // the representation may duplicate, so we check the learned set by
    // behavior instead: the 2-example top program also satisfies example 1.
    let tasks = all_tasks();
    for id in sample_ids() {
        let task = &tasks[id - 1];
        if task.rows.len() < 2 {
            continue;
        }
        let s = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        let Ok(two) = s.learn(task.examples(2)) else {
            continue;
        };
        let top = two.top().unwrap();
        let refs: Vec<&str> = task.rows[0].inputs.iter().map(String::as_str).collect();
        assert_eq!(
            top.run(&refs).as_deref(),
            Some(task.rows[0].output.as_str()),
            "task {id}: 2-example program violates example 1"
        );
    }
}

#[test]
fn size_metric_counts_every_crate_layer() {
    // A task with tables must have size strictly greater than the same
    // output learned with no tables (the lookup nodes add terminals).
    let tasks = all_tasks();
    let with_tables = &tasks[1]; // company_code_to_name
    let s = Synthesizer::new(std::sync::Arc::new(with_tables.db.clone()));
    let learned = s.learn(with_tables.examples(1)).unwrap();
    let s_empty = Synthesizer::new(std::sync::Arc::new(
        semantic_strings::tables::Database::new(),
    ));
    let learned_empty = s_empty.learn(with_tables.examples(1)).unwrap();
    assert!(learned.size() > learned_empty.size());
}
