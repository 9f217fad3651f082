//! The lookup transformation language `Lt` and its inductive synthesis
//! algorithm (§4 of Singh & Gulwani, VLDB 2012).
//!
//! `Lt` maps a tuple of input strings to an output string using (possibly
//! nested) `Select(C, T, b)` lookups over a database of relational tables,
//! where `b` conjoins equality predicates over a candidate key of `T`.
//! The synthesis algorithm learns *all* expressions consistent with a set
//! of input-output examples:
//!
//! * [`generate_str_t`] builds the succinct data structure
//!   [`LookupDStruct`] for one example by forward reachability (Fig. 5a);
//! * [`intersect_dt`] intersects structures across examples (Fig. 5b);
//! * [`LtRankWeights`] extracts the top-ranked expression (§4.4).
//!
//! # Example
//!
//! ```
//! use sst_lookup::LookupLearner;
//! use sst_tables::{Database, Table};
//!
//! let db = Database::from_tables(vec![Table::new(
//!     "Comp",
//!     vec!["Id", "Name"],
//!     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"]],
//! )
//! .unwrap()])
//! .unwrap();
//!
//! let learner = LookupLearner::new(db);
//! let learned = learner
//!     .learn(&[(vec!["c1".to_string()], "Microsoft".to_string())])
//!     .expect("consistent lookups exist");
//! let top = learned.top().unwrap();
//! assert_eq!(learned.run(&top, &["c2"]).as_deref(), Some("Google"));
//! ```

#![forbid(unsafe_code)]

mod dstruct;
mod eval;
mod generate;
mod intersect;
mod language;
mod rank;
pub mod reach;

pub use dstruct::{GenCond, GenLookup, GenPred, LookupDStruct, NodeData, NodeId};
pub use eval::eval_lookup;
pub use generate::{generate_str_t, LtOptions};
pub use intersect::intersect_dt;
pub use language::{LookupExpr, PredRhs, Predicate, VarId};
pub use rank::{LtRankWeights, RankedLookup};
pub use reach::{reach, Activation, ReachPolicy, ReachState};
pub use sst_tables::ProgSet;

use sst_counting::BigUint;
use sst_tables::Database;

/// End-to-end synthesizer for the pure lookup language `Lt`.
///
/// This is the §4 algorithm by itself: it solves the paper's 12 pure-lookup
/// benchmarks and serves as the baseline that *fails* on the 38 tasks
/// requiring syntactic manipulation (those need `sst-core`'s `Lu`).
#[derive(Debug, Clone)]
pub struct LookupLearner {
    db: Database,
    /// Reachability options (depth bound `k`).
    pub options: LtOptions,
    /// Ranking weights.
    pub weights: LtRankWeights,
}

/// The result of learning: all consistent `Lt` programs.
#[derive(Debug, Clone)]
pub struct LearnedLookup {
    dstruct: LookupDStruct,
    db: Database,
    depth: usize,
    weights: LtRankWeights,
}

impl LookupLearner {
    /// Creates a learner over a database with default options.
    pub fn new(db: Database) -> Self {
        LookupLearner {
            db,
            options: LtOptions::default(),
            weights: LtRankWeights::default(),
        }
    }

    /// The database the learner runs against.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Learns the set of all `Lt` programs consistent with the examples;
    /// `None` when no program exists.
    pub fn learn(&self, examples: &[(Vec<String>, String)]) -> Option<LearnedLookup> {
        let mut iter = examples.iter();
        let (inputs, output) = iter.next()?;
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let mut d = generate_str_t(&self.db, &refs, output, &self.options);
        if !d.has_programs() {
            return None;
        }
        for (inputs, output) in iter {
            let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            let next = generate_str_t(&self.db, &refs, output, &self.options);
            d = intersect_dt(&d, &next);
            if !d.has_programs() {
                return None;
            }
        }
        Some(LearnedLookup {
            dstruct: d,
            db: self.db.clone(),
            depth: self.options.depth_for(&self.db),
            weights: self.weights.clone(),
        })
    }
}

impl LearnedLookup {
    /// The underlying data structure.
    pub fn dstruct(&self) -> &LookupDStruct {
        &self.dstruct
    }

    /// Number of consistent programs of depth ≤ k (exact).
    pub fn count(&self) -> BigUint {
        self.dstruct.count(self.depth)
    }

    /// Data-structure size in terminal symbols.
    pub fn size(&self) -> usize {
        self.dstruct.size()
    }

    /// The top-ranked program.
    pub fn top(&self) -> Option<LookupExpr> {
        self.weights.best(&self.dstruct, self.depth).map(|r| r.expr)
    }

    /// The `n` top-ranked programs, ascending cost.
    pub fn top_n(&self, n: usize) -> Vec<LookupExpr> {
        self.weights
            .top_n(&self.dstruct, self.depth, n)
            .into_iter()
            .map(|r| r.expr)
            .collect()
    }

    /// Runs a program on a fresh input row.
    pub fn run(&self, program: &LookupExpr, inputs: &[&str]) -> Option<String> {
        eval_lookup(program, &self.db, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_tables::Table;

    fn ex(inputs: &[&str], output: &str) -> (Vec<String>, String) {
        (
            inputs.iter().map(|s| s.to_string()).collect(),
            output.to_string(),
        )
    }

    fn join_db() -> Database {
        Database::from_tables(vec![
            Table::new(
                "CustData",
                vec!["Name", "Addr", "St"],
                vec![
                    vec!["Sean Riley", "432", "15th"],
                    vec!["Peter Shaw", "24", "18th"],
                    vec!["Mike Henry", "432", "18th"],
                    vec!["Gary Lamb", "104", "12th"],
                ],
            )
            .unwrap(),
            Table::new(
                "Sale",
                vec!["Addr", "St", "Date", "Price"],
                vec![
                    vec!["24", "18th", "5/21", "110"],
                    vec!["104", "12th", "5/23", "225"],
                    vec!["432", "18th", "5/20", "2015"],
                    vec!["432", "15th", "5/24", "495"],
                ],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn example2_learned_from_two_examples() {
        let learner = LookupLearner::new(join_db());
        let learned = learner
            .learn(&[ex(&["Peter Shaw"], "110"), ex(&["Gary Lamb"], "225")])
            .unwrap();
        let top = learned.top().unwrap();
        assert_eq!(learned.run(&top, &["Mike Henry"]).as_deref(), Some("2015"));
        assert_eq!(learned.run(&top, &["Sean Riley"]).as_deref(), Some("495"));
    }

    #[test]
    fn learning_fails_when_output_not_reachable() {
        let learner = LookupLearner::new(join_db());
        assert!(learner.learn(&[ex(&["Peter Shaw"], "999")]).is_none());
    }

    #[test]
    fn count_and_size_are_positive() {
        let learner = LookupLearner::new(join_db());
        let learned = learner.learn(&[ex(&["Peter Shaw"], "110")]).unwrap();
        assert!(learned.count() > BigUint::zero());
        assert!(learned.size() > 0);
    }

    #[test]
    fn top_n_programs_all_consistent() {
        let learner = LookupLearner::new(join_db());
        let learned = learner.learn(&[ex(&["Peter Shaw"], "110")]).unwrap();
        let top = learned.top_n(5);
        assert!(!top.is_empty());
        for p in &top {
            assert_eq!(learned.run(p, &["Peter Shaw"]).as_deref(), Some("110"));
        }
    }

    #[test]
    fn inconsistent_examples_fail() {
        let learner = LookupLearner::new(join_db());
        assert!(learner
            .learn(&[ex(&["Peter Shaw"], "110"), ex(&["Peter Shaw"], "225")])
            .is_none());
    }
}
