//! Whole-suite regression test: every reconstructed benchmark converges
//! within the paper's 3-example budget, and the learned program is correct
//! on every held-out row (that's what `converge` verifies internally). The
//! first of the ranked paraphrases (`top_k`) is the program `top()` runs.
//!
//! This doubles as the §7 "effectiveness of ranking" experiment in test
//! form; the printable version is `cargo run -p sst-bench --bin
//! ranking_table`.

use semantic_strings::benchmarks::{all_tasks, Category};
use semantic_strings::core::{converge, Synthesizer};

#[test]
fn every_task_converges_within_three_examples() {
    let mut histogram = [0usize; 4];
    let mut top_k_disagrees = Vec::new();
    for task in all_tasks() {
        let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        let report = converge(&synthesizer, &task.rows, 3)
            .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
        assert!(
            report.converged,
            "task {} ({}) did not converge within 3 examples",
            task.id, task.name
        );
        histogram[report.examples_used] += 1;
        let learned = report.learned.expect("a converged task has a learned set");
        let top = learned.top().expect("a converged task has a top program");
        for k in [1, 3, 10] {
            let first = &learned.top_k(k)[0];
            if first.to_string() != top.to_string() || first.cost() != top.cost() {
                top_k_disagrees.push(format!(
                    "task {} ({}): top_k({k})[0] is {first} at cost {}, top() is {top} at cost {}",
                    task.id,
                    task.name,
                    first.cost(),
                    top.cost()
                ));
            }
        }
    }
    assert!(
        top_k_disagrees.is_empty(),
        "{} (task, k) pairs rank a different first program:\n{}",
        top_k_disagrees.len(),
        top_k_disagrees.join("\n")
    );
    // Exact, so a ranking drift that moves any task's example count fails
    // here and not only in the `ranking_table` printout.
    assert_eq!(
        histogram[1..],
        [37, 13, 0],
        "tasks converging from 1 / 2 / 3 examples (the paper reports 35 / 13 / 2)"
    );
}

#[test]
fn lookup_tasks_learn_with_lookup_learner() {
    use semantic_strings::lookup::LookupLearner;
    for task in all_tasks()
        .into_iter()
        .filter(|t| t.category == Category::Lookup)
    {
        let learner = LookupLearner::new(task.db.clone());
        let solved = (1..=3usize).any(|n| {
            let examples: Vec<(Vec<String>, String)> = task
                .examples(n)
                .iter()
                .map(|e| (e.inputs.clone(), e.output.clone()))
                .collect();
            let Some(learned) = learner.learn(&examples) else {
                return false;
            };
            let Some(top) = learned.top() else {
                return false;
            };
            task.rows.iter().all(|r| {
                let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
                learned.run(&top, &refs).as_deref() == Some(r.output.as_str())
            })
        });
        assert!(
            solved,
            "Lt task {} ({}) not Lt-solvable",
            task.id, task.name
        );
    }
}

#[test]
fn semantic_tasks_are_not_lookup_expressible() {
    use semantic_strings::lookup::LookupLearner;
    for task in all_tasks()
        .into_iter()
        .filter(|t| t.category == Category::Semantic)
    {
        let learner = LookupLearner::new(task.db.clone());
        let solved = (1..=3usize).any(|n| {
            let examples: Vec<(Vec<String>, String)> = task
                .examples(n)
                .iter()
                .map(|e| (e.inputs.clone(), e.output.clone()))
                .collect();
            let Some(learned) = learner.learn(&examples) else {
                return false;
            };
            let Some(top) = learned.top() else {
                return false;
            };
            task.rows.iter().all(|r| {
                let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
                learned.run(&top, &refs).as_deref() == Some(r.output.as_str())
            })
        });
        assert!(
            !solved,
            "Lu task {} ({}) is unexpectedly Lt-solvable",
            task.id, task.name
        );
    }
}
