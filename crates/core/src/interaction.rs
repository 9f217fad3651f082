//! The user-interaction model of §3.2.
//!
//! The paper's Excel add-in loop: the user gives a couple of examples, the
//! synthesizer fills the rest of the spreadsheet, *highlights* inputs whose
//! consistent programs disagree (so the user checks exactly those), and
//! each fix becomes a new example. [`converge`] automates that loop against
//! ground truth, which is also how the evaluation counts "number of
//! examples required" (§7, Effectiveness of ranking).

use std::sync::Arc;

use crate::compiled::{ApplyScratch, CompiledProgram};
use crate::synthesizer::{Example, LearnedPrograms, SynthesisError, Synthesizer};

/// The `k` best programs, ranked once and lowered to bytecode once, so a
/// whole-spreadsheet ambiguity scan doesn't re-run the ranking DP (or
/// re-interpret the trees) per candidate row.
fn ranked_compiled(
    learned: &LearnedPrograms,
    k: usize,
) -> Vec<(Arc<CompiledProgram>, ApplyScratch)> {
    learned
        .top_k(k)
        .iter()
        .map(|p| {
            let compiled = p.compile();
            let scratch = compiled.new_scratch();
            (compiled, scratch)
        })
        .collect()
}

/// Rows whose top-`k` programs produce two or more distinct outputs —
/// the §3.2 highlighting rule.
pub fn highlight_ambiguous(
    learned: &LearnedPrograms,
    rows: &[Vec<String>],
    k: usize,
) -> Vec<usize> {
    let mut programs = ranked_compiled(learned, k);
    if programs.len() < 2 {
        // One program (or none) cannot disagree with itself.
        return Vec::new();
    }
    rows.iter()
        .enumerate()
        .filter(|(_, row)| {
            // Distinct *defined* outputs, as `LearnedPrograms::outputs`.
            let outputs: std::collections::BTreeSet<String> = programs
                .iter_mut()
                .filter_map(|(p, scratch)| p.run_row_with(row, scratch).map(str::to_string))
                .collect();
            outputs.len() >= 2
        })
        .map(|(i, _)| i)
        .collect()
}

/// A *distinguishing input* (§3.2, after the paper's citation `[11]`,
/// oracle-guided synthesis): the first row on which at
/// least two of the `k` best programs behave differently, if any. Showing
/// the user this row (and asking for its output) is the cheapest way to
/// split the remaining hypothesis space.
pub fn distinguishing_input(
    learned: &LearnedPrograms,
    rows: &[Vec<String>],
    k: usize,
) -> Option<usize> {
    let mut programs = ranked_compiled(learned, k);
    if programs.len() < 2 {
        return None;
    }
    rows.iter().position(|row| {
        // Undefined counts as a behavior here (unlike highlighting).
        let outputs: std::collections::BTreeSet<Option<String>> = programs
            .iter_mut()
            .map(|(p, scratch)| p.run_row_with(row, scratch).map(str::to_string))
            .collect();
        outputs.len() >= 2
    })
}

/// Outcome of the simulated interaction loop.
#[derive(Debug)]
pub struct ConvergenceReport {
    /// Whether convergence was reached within the example budget.
    pub converged: bool,
    /// The program set learned from the final examples.
    pub learned: LearnedPrograms,
    /// The exact example sequence the simulated user provided: its length
    /// is how many examples the loop used.
    pub examples: Vec<Example>,
}

/// Simulates the §3.2 loop against ground truth: start with the first row
/// as the only example; while the top-ranked program mislabels some row,
/// add the first such row as a new example. `max_examples` bounds the loop
/// (the paper's tasks all converge within 3).
pub fn converge(
    synthesizer: &Synthesizer,
    rows: &[Example],
    max_examples: usize,
) -> Result<ConvergenceReport, SynthesisError> {
    let first = rows.first().ok_or(SynthesisError::NoExamples)?;
    let mut examples: Vec<Example> = vec![first.clone()];
    loop {
        let learned = synthesizer.learn(&examples)?;
        let top = learned.top().ok_or(SynthesisError::NoConsistentProgram)?;
        let failing = rows.iter().find(|r| {
            let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
            top.run(&refs).as_deref() != Some(r.output.as_str())
        });
        match failing {
            Some(row) if examples.len() < max_examples => examples.push(row.clone()),
            _ => {
                return Ok(ConvergenceReport {
                    converged: failing.is_none(),
                    learned,
                    examples,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sst_tables::{Database, Table};

    fn comp_db() -> Database {
        Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
                vec!["c4", "Facebook"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    fn rows() -> Vec<Example> {
        vec![
            Example::new(vec!["c1"], "Microsoft"),
            Example::new(vec!["c2"], "Google"),
            Example::new(vec!["c3"], "Apple"),
            Example::new(vec!["c4"], "Facebook"),
        ]
    }

    #[test]
    fn converges_with_one_example() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let report = converge(&s, &rows(), 3).unwrap();
        assert!(report.converged);
        assert_eq!(report.examples.len(), 1);
    }

    #[test]
    fn converge_handles_unlearnable_rows() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let bad = vec![
            Example::new(vec!["c1"], "Microsoft"),
            Example::new(vec!["c1"], "Banana"),
        ];
        // Adding the conflicting row as an example kills the program set.
        let r = converge(&s, &bad, 3);
        assert_eq!(r.unwrap_err(), SynthesisError::NoConsistentProgram);
    }

    #[test]
    fn converge_respects_budget() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        // Outputs chosen so no single program fits all rows, but each row
        // individually is learnable: budget stops the loop.
        let tricky = vec![
            Example::new(vec!["c1"], "Microsoft"),
            Example::new(vec!["c2"], "c2"),
        ];
        let report = converge(&s, &tricky, 1).unwrap();
        assert!(!report.converged);
        assert_eq!(report.examples.len(), 1);
    }

    #[test]
    fn ambiguity_highlighting_flags_disagreeing_rows() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        let inputs: Vec<Vec<String>> = vec![
            vec!["c2".to_string()], // training row: all programs agree
            vec!["c3".to_string()], // lookup vs constant disagree
        ];
        let flagged = highlight_ambiguous(&learned, &inputs, 8);
        assert!(!flagged.contains(&0));
        assert!(flagged.contains(&1));
    }

    #[test]
    fn distinguishing_input_found() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        let inputs: Vec<Vec<String>> = vec![vec!["c2".into()], vec!["c4".into()]];
        // The top programs agree on the training row; the constant program
        // disagrees with the lookup on c4.
        let d = distinguishing_input(&learned, &inputs, 8);
        assert_eq!(d, Some(1));
    }
}
