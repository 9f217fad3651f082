//! In-memory relational table substrate.
//!
//! The VLDB 2012 synthesis algorithms treat the spreadsheet's helper tables
//! as a small relational database: every cell is a string, every table has
//! one or more *candidate keys* (ordered column sets whose values identify a
//! row uniquely), and the synthesizer repeatedly asks two queries:
//!
//! 1. *exact reachability* — "which cells equal this string?" (drives
//!    `GenerateStr_t`, Fig. 5a of the paper), answered by each table's
//!    inverted [`ValueIndex`] via [`Database::cells_equal`], and
//! 2. *relaxed reachability* — "which cells are in a substring relation with
//!    this string?" (drives `GenerateStr'_t`, §5.3), answered by the q-gram
//!    postings of each table's [`SubstringIndex`] via
//!    [`Database::cells_related_to`] (the [`Table::cells_related_to`] full
//!    scan remains as the index's correctness oracle).
//!
//! A [`Table`] owns both indexes: it builds them with its rows, splices
//! them on every mutation and rebuilds them when it compacts. `Select`
//! evaluation ([`Table::find_unique_row`]) draws its candidate rows from
//! the same [`ValueIndex`].
//!
//! The paper assumes Excel provides this substrate; here it is built from
//! scratch, including minimal-candidate-key inference and a small CSV reader
//! used by the examples.
//!
//! # Mutating tables at scale
//!
//! Tables are stored **columnar** (one contiguous `Vec<Symbol>` per
//! column) and are mutable in place: [`Database::insert_rows`],
//! [`Database::update_cell`] and [`Database::delete_rows`] delegate to the
//! owning table, which splices its indexes *incrementally*, so a single-row
//! write into a 10⁵–10⁶-row background table costs microseconds instead of
//! an index rebuild.
//! Deletes tombstone rows (ids stay stable) until garbage dominates, then
//! compact. Every mutation draws a globally fresh [`Database::epoch`] and
//! stamps the per-table [`Database::table_epochs`] entry;
//! [`Database::delta_since`] summarizes a span of mutations as a
//! [`DbDelta`] (which tables, which cell values, structural or not) so
//! upstream caches can keep entries that provably didn't change instead of
//! invalidating wholesale.

mod csv;
mod database;
mod error;
mod intern;
mod keys;
mod progset;
mod substring_index;
mod table;
mod value_index;

pub use csv::{parse_csv, write_csv, CsvError};
pub use database::{Database, DbDelta, TableId};
pub use error::TableError;
pub use intern::{IntHasher, IntMap, Symbol, SymbolMap};
pub use progset::ProgSet;
pub use substring_index::SubstringIndex;
pub use table::{CellRef, ColId, RowId, Table};
pub use value_index::ValueIndex;
