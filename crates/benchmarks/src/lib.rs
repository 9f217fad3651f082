//! The reconstructed evaluation corpus of Singh & Gulwani VLDB 2012 (§7):
//! 50 end-to-end benchmark tasks (12 pure-lookup, 38 semantic) plus the
//! synthetic workload generators: the worst cases behind Theorem 1 and a
//! long-output family.
//!
//! Each [`BenchmarkTask`] bundles a helper-table database with a full
//! ground-truth spreadsheet, so the workspace's `paper_claims` test can
//! replay the paper's measurements: program-set cardinality (Fig. 11a),
//! data-structure size (Fig. 11b), examples-to-convergence (§7 ranking),
//! learning time (Fig. 12a) and intersection growth (Fig. 12b).

#![forbid(unsafe_code)]

mod generators;
mod suite;
mod task;

pub use generators::{apply_column, chain_database, long_output_pair, wide_key_database};
pub use suite::all_tasks;
pub use task::{ex, BenchmarkTask, Category};
