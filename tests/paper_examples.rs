//! End-to-end integration tests: every worked example in the paper is
//! learned through the public facade and generalizes to its held-out rows.

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::core::converge;
use semantic_strings::prelude::*;

fn task_by_name(name: &str) -> BenchmarkTask {
    all_tasks()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("missing task {name}"))
}

/// Learns with the first `n` examples and checks every row of the task.
fn learn_and_check(name: &str, n: usize) {
    let task = task_by_name(name);
    let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
    let learned = synthesizer
        .learn(task.examples(n))
        .unwrap_or_else(|e| panic!("{name}: learning failed: {e}"));
    let program = learned.top().unwrap_or_else(|| panic!("{name}: no top"));
    for row in &task.rows {
        let refs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
        assert_eq!(
            program.run(&refs).as_deref(),
            Some(row.output.as_str()),
            "{name}: wrong output for {refs:?} (program: {program})"
        );
    }
}

#[test]
fn example1_selling_price_two_examples() {
    learn_and_check("ex1_selling_price", 2);
}

#[test]
fn example2_customer_join_two_examples() {
    learn_and_check("ex2_customer_price_join", 2);
}

#[test]
fn example4_name_initial_one_example() {
    learn_and_check("ex4_name_initial", 1);
}

#[test]
fn example5_bike_price_one_example() {
    learn_and_check("ex5_bike_price_concat", 1);
}

#[test]
fn example6_company_series_one_example() {
    learn_and_check("ex6_company_series", 1);
}

#[test]
fn example7_time_format_two_examples() {
    learn_and_check("ex7_time_format", 2);
}

#[test]
fn example8_date_format_one_example() {
    learn_and_check("ex8_date_format", 1);
}

#[test]
fn paper_examples_converge_within_three() {
    for name in [
        "ex1_selling_price",
        "ex2_customer_price_join",
        "ex4_name_initial",
        "ex5_bike_price_concat",
        "ex6_company_series",
        "ex7_time_format",
        "ex8_date_format",
    ] {
        let task = task_by_name(name);
        let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        let report =
            converge(&synthesizer, &task.rows, 3).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.converged, "{name} did not converge within 3");
        assert!(
            report.examples.len() <= 2,
            "{name} needed {} examples",
            report.examples.len()
        );
    }
}

#[test]
fn learned_programs_have_readable_surface_syntax() {
    let task = task_by_name("ex2_customer_price_join");
    let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
    let learned = synthesizer.learn(task.examples(2)).unwrap();
    let program = learned.top().unwrap();
    let shown = program.to_string();
    // The paper's intended program shape: a Sale lookup joined through
    // CustData on both Addr and St.
    assert!(shown.contains("Select(Price, Sale"), "got {shown}");
    assert!(shown.contains("Select(Addr, CustData"), "got {shown}");
    assert!(shown.contains("Select(St, CustData"), "got {shown}");
    // And the paraphrase mentions the tables involved.
    let english = program.paraphrase();
    assert!(english.contains("Sale"), "got {english}");
    assert!(english.contains("CustData"), "got {english}");
}
