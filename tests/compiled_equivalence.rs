//! Differential harness for the compiled apply plane.
//!
//! `Program::compile` lowers a ranked program tree to linear bytecode
//! (`CompiledProgram`); `run_row` / `run_row_with` / `run_column` execute
//! it without tree recursion, per-row allocation, or table-metadata
//! re-resolution. Every output must be **bit-identical** to interpreting
//! the tree (`Program::run` / `eval_sem`) — including lookup-miss rows
//! (where the paper's semantics yield `Some("")`), undefined rows
//! (`None`), empty and multi-byte-unicode inputs — and `run_column` must
//! agree at every pool width with deterministic row order. This harness
//! replays the full 50-task benchmark suite through the §3.2 convergence
//! loop, compares the top-k compiled programs against the interpreter on
//! every suite row plus a synthesized miss-heavy column, runs the top
//! program over a column long enough for `run_column` to split into
//! chunks, and closes with a property test over randomized rows.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use semantic_strings::benchmarks::{all_tasks, apply_column};
use semantic_strings::core::{converge, default_threads, Pool, Program, SynthesisOptions};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

/// Synthesized-column length per task for the top-k comparison, short
/// enough to keep the 50-task replay fast. `run_column` applies a column
/// this short serially at every width.
const COLUMN_ROWS: usize = 300;

/// Length of the one column per task that reaches `run_column`'s chunked
/// path: it splits a column across the pool only from 2 × 1 024 rows on,
/// and 2 100 rows give two full chunks and a ragged tail.
const CHUNKED_ROWS: usize = 2_100;

/// Pool widths every `run_column` output is compared across: serial, two
/// and four workers, and the machine width.
fn widths() -> Vec<usize> {
    let mut w = vec![1, 2, 4, default_threads()];
    w.sort_unstable();
    w.dedup();
    w
}

/// The interpreter baseline on one row.
fn interpret(p: &Program, row: &[String]) -> Option<String> {
    let refs: Vec<&str> = row.iter().map(String::as_str).collect();
    p.run(&refs)
}

/// Every input row the task's programs are compared on: the full
/// spreadsheet, an all-empty row, a multi-byte unicode row, and a
/// miss-heavy synthesized column drawn from the task's own distribution.
fn probe_rows(task: &semantic_strings::benchmarks::BenchmarkTask) -> Vec<Vec<String>> {
    let arity = task.rows[0].inputs.len();
    let mut rows: Vec<Vec<String>> = task.rows.iter().map(|e| e.inputs.clone()).collect();
    rows.push(vec![String::new(); arity]);
    rows.push(vec!["ψλ ünï-∂é".to_string(); arity]);
    rows.extend(apply_column(task, COLUMN_ROWS));
    rows
}

#[test]
fn compiled_matches_interpreter_on_every_task() {
    let widths = widths();
    for task in all_tasks() {
        let synthesizer = Synthesizer::new(Arc::new(task.db.clone()));
        let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
        let learned = report.learned;
        let rows = probe_rows(&task);
        for (rank, p) in learned.top_k(TOP_K).iter().enumerate() {
            let compiled = p.compile();
            let mut scratch = compiled.new_scratch();
            let expected: Vec<Option<String>> = rows.iter().map(|row| interpret(p, row)).collect();
            for (row, want) in rows.iter().zip(&expected) {
                assert_eq!(
                    &compiled.run_row(row),
                    want,
                    "task {} ({}) rank {rank} run_row on {row:?}",
                    task.id,
                    task.name,
                );
                assert_eq!(
                    compiled.run_row_with(row, &mut scratch),
                    want.as_deref(),
                    "task {} ({}) rank {rank} run_row_with on {row:?}",
                    task.id,
                    task.name,
                );
            }
            for &w in &widths {
                let pool = Pool::new(w);
                assert_eq!(
                    compiled.run_column(&rows, &pool),
                    expected,
                    "task {} ({}) rank {rank} run_column at {w} threads",
                    task.id,
                    task.name,
                );
            }
        }

        // Most of a long column repeats suite rows, so each distinct row
        // is interpreted once.
        let top = learned.top().expect("converged set has a top program");
        let compiled = top.compile();
        let column = apply_column(&task, CHUNKED_ROWS);
        let mut interpreted = HashMap::new();
        let expected: Vec<Option<String>> = column
            .iter()
            .map(|row| {
                interpreted
                    .entry(row)
                    .or_insert_with(|| interpret(&top, row))
                    .clone()
            })
            .collect();
        for &w in &widths {
            assert_eq!(
                compiled.run_column(&column, &Pool::new(w)),
                expected,
                "task {} ({}) top program's chunked run_column at {w} threads",
                task.id,
                task.name,
            );
        }
    }
}

/// A small Example-5-style database for the property test: an indexed
/// lookup whose learned programs mix table probes, substrings and
/// concatenation.
fn prop_programs() -> &'static Vec<Program> {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let comp = Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
                vec!["c4", "ψλ Systems"],
            ],
        )
        .unwrap();
        let db = Arc::new(Database::from_tables(vec![comp]).unwrap());
        let synthesizer =
            Synthesizer::with_options(db, SynthesisOptions::builder().threads(1).build());
        let learned = synthesizer
            .learn(&[
                Example::new(vec!["c2"], "Google"),
                Example::new(vec!["c4"], "ψλ Systems"),
            ])
            .unwrap();
        learned.top_k(TOP_K)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized rows — hits (`c1`..`c4`), near-misses (`c5`..`c9`,
    /// prefixes, garbage) and unicode — agree between the interpreter and
    /// all three compiled entry points.
    #[test]
    fn compiled_matches_interpreter_on_random_rows(
        cell in "[c]{0,1}[1-9abψ é]{0,6}",
        column in prop::collection::vec("[c][1-9]", 0..12),
    ) {
        let pool = Pool::new(2);
        for p in prop_programs() {
            let compiled = p.compile();
            let mut scratch = compiled.new_scratch();
            let row = vec![cell.clone()];
            let want = interpret(p, &row);
            prop_assert_eq!(&compiled.run_row(&row), &want);
            prop_assert_eq!(compiled.run_row_with(&row, &mut scratch), want.as_deref());
            let rows: Vec<Vec<String>> = column.iter().map(|c| vec![c.clone()]).collect();
            let expected: Vec<Option<String>> = rows.iter().map(|r| interpret(p, r)).collect();
            prop_assert_eq!(compiled.run_column(&rows, &pool), expected);
        }
    }
}
