//! A single relational table of strings with candidate keys.

use std::collections::HashSet;
use std::fmt;

use crate::error::TableError;
use crate::intern::Symbol;
use crate::keys;
use crate::substring_index::SubstringIndex;
use crate::value_index::ValueIndex;

/// Column index within a table.
pub type ColId = u32;
/// Row index within a table.
pub type RowId = u32;

/// Tombstone threshold: a table compacts once at least this many dead slots
/// have accumulated *and* they outnumber the live rows (see
/// [`Table::should_compact`]). Small tables never compact — rewriting a
/// handful of rows costs more than the tombstone scan it saves.
const COMPACT_MIN_DEAD: usize = 32;

/// A cell coordinate within one table (the owning [`crate::TableId`] is
/// carried separately by [`crate::Database`] queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Column of the cell.
    pub col: ColId,
    /// Row of the cell.
    pub row: RowId,
}

/// A mutable string table with named columns and candidate keys.
///
/// Cells are stored **columnar**: one contiguous `Vec<Symbol>` per column,
/// so whole-column scans (`cells_related_to`, the compiled `Op::Probe`
/// probe-map build) stream u32 symbol ids at memory bandwidth instead of
/// chasing one heap allocation per row. Every cell is an interned
/// [`Symbol`], so cloning a table is cheap and cell equality is an integer
/// compare. Candidate keys are *ordered* column lists — the ordering
/// matters because the paper's `Intersect_t` intersects key predicates
/// positionally (Fig. 5b).
///
/// # Mutation and row ids
///
/// [`Table::insert_rows`] appends new slots; [`Table::delete_rows`]
/// *tombstones* slots (cheap, id-stable) until enough garbage accumulates
/// that [`Table::compact`] rewrites the columns densely. Row ids are
/// therefore **slot** ids: stable across insert/update/delete, renumbered
/// only by compaction. [`Table::len`] counts live rows; iteration
/// ([`Table::row_ids`], [`Table::iter_cells`]) visits live rows in
/// ascending slot order, which preserves original insertion order.
///
/// Candidate keys are inferred (or declared) at construction and **not**
/// re-checked on mutation: a mutated table may transiently violate a key,
/// and [`Table::find_unique_row`] already scans defensively, answering
/// `None` on ambiguity.
///
/// # Derived indexes
///
/// The table owns every index over its cells: a [`ValueIndex`] (value →
/// cells, the `GenerateStr_t` probe and the `Select` evaluator's candidate
/// rows) and a [`SubstringIndex`] (the §5.3 relaxed-reachability probe).
/// Both are built with the table, spliced by each mutation and rebuilt by
/// [`Table::compact`], so they always answer like a fresh build over the
/// live rows.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    /// Columnar cell storage: `cols[c][r]`, including dead slots.
    cols: Vec<Vec<Symbol>>,
    /// Liveness per row slot (`false` = tombstoned by `delete_rows`).
    live: Vec<bool>,
    /// Number of live slots (`live.iter().filter(|l| **l).count()`).
    live_rows: usize,
    candidate_keys: Vec<Vec<ColId>>,
    /// Value → live cells holding it, each list in `(row, col)` order.
    value_index: ValueIndex,
    /// Substring-relation postings over the live cell values.
    substring_index: SubstringIndex,
}

impl Table {
    /// Builds a table and infers minimal candidate keys up to width 2.
    ///
    /// Key inference can be overridden with [`Table::with_keys`] or widened
    /// with [`Table::new_with_key_width`].
    pub fn new<N, C, R>(name: N, columns: Vec<C>, rows: Vec<Vec<R>>) -> Result<Self, TableError>
    where
        N: Into<String>,
        C: Into<String>,
        R: Into<String>,
    {
        Self::new_with_key_width(name, columns, rows, 2)
    }

    /// Builds a table, inferring minimal candidate keys up to `max_width`
    /// columns.
    pub fn new_with_key_width<N, C, R>(
        name: N,
        columns: Vec<C>,
        rows: Vec<Vec<R>>,
        max_width: usize,
    ) -> Result<Self, TableError>
    where
        N: Into<String>,
        C: Into<String>,
        R: Into<String>,
    {
        let mut table = Self::build(name, columns, rows)?;
        table.candidate_keys = keys::infer_candidate_keys(&table, max_width);
        if table.candidate_keys.is_empty() {
            return Err(TableError::NoCandidateKey(table.name));
        }
        Ok(table)
    }

    /// Builds a table from CSV text whose first row is the header;
    /// candidate keys are inferred (width ≤ 2).
    pub fn from_csv(name: &str, csv_text: &str) -> Result<Self, TableError> {
        let mut rows = crate::csv::parse_csv(csv_text)
            .map_err(|_| TableError::EmptyTable(name.to_string()))?;
        if rows.is_empty() {
            return Err(TableError::EmptyTable(name.to_string()));
        }
        let header = rows.remove(0);
        Self::new(name.to_string(), header, rows)
    }

    /// Serializes the table (header + live rows) as CSV text; round-trips
    /// through [`Table::from_csv`] up to key inference.
    pub fn to_csv(&self) -> String {
        let mut all: Vec<Vec<String>> = Vec::with_capacity(self.live_rows + 1);
        all.push(self.columns.clone());
        all.extend(self.row_ids().map(|r| {
            self.cols
                .iter()
                .map(|col| col[r as usize].as_str().to_string())
                .collect()
        }));
        crate::csv::write_csv(&all)
    }

    /// Builds a table with explicitly declared candidate keys (validated).
    pub fn with_keys<N, C, R>(
        name: N,
        columns: Vec<C>,
        rows: Vec<Vec<R>>,
        declared_keys: Vec<Vec<&str>>,
    ) -> Result<Self, TableError>
    where
        N: Into<String>,
        C: Into<String>,
        R: Into<String>,
    {
        let mut table = Self::build(name, columns, rows)?;
        let mut resolved = Vec::with_capacity(declared_keys.len());
        for key in declared_keys {
            let cols: Vec<ColId> = key
                .iter()
                .map(|c| {
                    table
                        .column_id(c)
                        .ok_or_else(|| TableError::UnknownColumn((*c).to_string()))
                })
                .collect::<Result<_, _>>()?;
            if !keys::is_unique_key(&table, &cols) {
                return Err(TableError::NotAKey(
                    key.iter().map(|c| (*c).to_string()).collect(),
                ));
            }
            resolved.push(cols);
        }
        table.candidate_keys = resolved;
        Ok(table)
    }

    /// Rebuilds a table from snapshot parts: name, columns, live rows and
    /// already-resolved candidate keys (column ids, in key order).
    ///
    /// Key columns are bounds-checked but **not** re-verified for
    /// uniqueness: a snapshotted table may have been mutated past a
    /// declared key (in-place mutation never re-checks keys either), and
    /// [`Table::find_unique_row`] already scans defensively. The value and
    /// substring indexes are rebuilt from the rows.
    pub fn from_parts(
        name: String,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
        keys: Vec<Vec<ColId>>,
    ) -> Result<Self, TableError> {
        let width = columns.len();
        let mut table = Self::build(name, columns, rows)?;
        if keys.is_empty() {
            return Err(TableError::NoCandidateKey(table.name));
        }
        for key in &keys {
            for &c in key {
                if c as usize >= width {
                    return Err(TableError::UnknownColumn(format!("#{c}")));
                }
            }
        }
        table.candidate_keys = keys;
        Ok(table)
    }

    fn build<N, C, R>(name: N, columns: Vec<C>, rows: Vec<Vec<R>>) -> Result<Self, TableError>
    where
        N: Into<String>,
        C: Into<String>,
        R: Into<String>,
    {
        let name = name.into();
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        if columns.is_empty() {
            return Err(TableError::EmptyTable(name));
        }
        let mut seen = HashSet::with_capacity(columns.len());
        for col in &columns {
            if !seen.insert(col.as_str()) {
                return Err(TableError::DuplicateColumn(col.clone()));
            }
        }
        let n_rows = rows.len();
        let mut cols: Vec<Vec<Symbol>> =
            columns.iter().map(|_| Vec::with_capacity(n_rows)).collect();
        for (i, row) in rows.into_iter().enumerate() {
            let row: Vec<Symbol> = row
                .into_iter()
                .map(|cell| Symbol::intern(&cell.into()))
                .collect();
            if row.len() != columns.len() {
                return Err(TableError::RaggedRow {
                    row: i,
                    found: row.len(),
                    expected: columns.len(),
                });
            }
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        let mut table = Table {
            name,
            columns,
            cols,
            live: vec![true; n_rows],
            live_rows: n_rows,
            candidate_keys: Vec::new(),
            value_index: ValueIndex::default(),
            substring_index: SubstringIndex::default(),
        };
        table.rebuild_indexes();
        Ok(table)
    }

    fn rebuild_indexes(&mut self) {
        self.value_index = ValueIndex::build(self);
        self.substring_index = SubstringIndex::build(self);
    }

    fn check_live(&self, row: RowId) -> Result<(), TableError> {
        if row as usize >= self.live.len() {
            return Err(TableError::RowOutOfRange {
                row,
                slots: self.live.len(),
            });
        }
        if !self.live[row as usize] {
            return Err(TableError::DeadRow(row));
        }
        Ok(())
    }

    /// Appends rows, splicing their cells into both indexes; returns their
    /// (stable) row ids. Validates the whole batch first, so a ragged batch
    /// mutates nothing.
    pub fn insert_rows<R: Into<String>>(
        &mut self,
        rows: Vec<Vec<R>>,
    ) -> Result<Vec<RowId>, TableError> {
        let mut converted: Vec<Vec<Symbol>> = Vec::with_capacity(rows.len());
        for (i, row) in rows.into_iter().enumerate() {
            let row: Vec<Symbol> = row
                .into_iter()
                .map(|cell| Symbol::intern(&cell.into()))
                .collect();
            if row.len() != self.columns.len() {
                return Err(TableError::RaggedRow {
                    row: i,
                    found: row.len(),
                    expected: self.columns.len(),
                });
            }
            converted.push(row);
        }
        let mut ids = Vec::with_capacity(converted.len());
        for row in converted {
            let r = self.live.len() as RowId;
            self.live.push(true);
            self.live_rows += 1;
            for (c, &v) in row.iter().enumerate() {
                self.cols[c].push(v);
                self.value_index.insert_cell(
                    v,
                    CellRef {
                        col: c as ColId,
                        row: r,
                    },
                );
                self.substring_index.insert_value(v);
            }
            ids.push(r);
        }
        Ok(ids)
    }

    /// Overwrites one live cell, moving it between index entries; returns
    /// the previous value. Writing the value already present is a no-op
    /// (the old value is still returned).
    pub fn update_cell(
        &mut self,
        col: ColId,
        row: RowId,
        value: &str,
    ) -> Result<Symbol, TableError> {
        if col as usize >= self.columns.len() {
            return Err(TableError::ColumnOutOfRange {
                col,
                width: self.columns.len(),
            });
        }
        self.check_live(row)?;
        let old = self.cols[col as usize][row as usize];
        let new = Symbol::intern(value);
        if new == old {
            return Ok(old);
        }
        self.cols[col as usize][row as usize] = new;
        let cell = CellRef { col, row };
        self.value_index.remove_cell(old, cell);
        self.value_index.insert_cell(new, cell);
        self.substring_index.remove_value(old);
        self.substring_index.insert_value(new);
        Ok(old)
    }

    /// Tombstones rows and splices their cells out of both indexes,
    /// returning how many rows were removed. Validates the whole batch —
    /// including in-batch duplicates — before touching anything, so an
    /// invalid batch mutates nothing. Slots stay allocated until
    /// [`Table::compact`].
    pub fn delete_rows(&mut self, rows: &[RowId]) -> Result<usize, TableError> {
        let mut seen = HashSet::with_capacity(rows.len());
        for &r in rows {
            self.check_live(r)?;
            if !seen.insert(r) {
                return Err(TableError::DeadRow(r));
            }
        }
        for &r in rows {
            for (c, col) in self.cols.iter().enumerate() {
                let v = col[r as usize];
                self.value_index.remove_cell(
                    v,
                    CellRef {
                        col: c as ColId,
                        row: r,
                    },
                );
                self.substring_index.remove_value(v);
            }
            self.live[r as usize] = false;
            self.live_rows -= 1;
        }
        Ok(rows.len())
    }

    /// Whether enough tombstones have accumulated that [`Table::compact`]
    /// is worth running: dead slots both exceed a fixed floor and outnumber
    /// the live rows.
    pub fn should_compact(&self) -> bool {
        let dead = self.live.len() - self.live_rows;
        dead >= COMPACT_MIN_DEAD && dead > self.live_rows
    }

    /// Rewrites the columns densely, dropping tombstoned slots. Live rows
    /// keep their relative order but are **renumbered**, and both indexes
    /// are rebuilt. Returns whether anything moved.
    pub fn compact(&mut self) -> bool {
        if self.live_rows == self.live.len() {
            return false;
        }
        for col in &mut self.cols {
            let mut w = 0;
            for r in 0..self.live.len() {
                if self.live[r] {
                    col[w] = col[r];
                    w += 1;
                }
            }
            col.truncate(w);
            col.shrink_to_fit();
        }
        self.live = vec![true; self.live_rows];
        self.rebuild_indexes();
        true
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in declaration order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of **live** rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True iff the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Number of row slots, live and tombstoned — the exclusive upper bound
    /// of valid row ids. Equals [`Table::len`] when no deletes are pending
    /// compaction.
    pub fn slots(&self) -> usize {
        self.live.len()
    }

    /// Whether a row id names a live (in-range, non-tombstoned) row.
    pub fn is_live(&self, row: RowId) -> bool {
        (row as usize) < self.live.len() && self.live[row as usize]
    }

    /// Live row ids, ascending (original insertion order).
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.live.len() as RowId).filter(move |&r| self.live[r as usize])
    }

    /// Resolves a column name to its index.
    pub fn column_id(&self, name: &str) -> Option<ColId> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| i as ColId)
    }

    /// Column name for an index.
    pub fn column_name(&self, col: ColId) -> &str {
        &self.columns[col as usize]
    }

    /// Cell content at `(col, row)`.
    pub fn cell(&self, col: ColId, row: RowId) -> &'static str {
        self.cols[col as usize][row as usize].as_str()
    }

    /// Interned cell at `(col, row)` — the hot-path accessor: no string
    /// resolution, equality by id.
    pub fn cell_sym(&self, col: ColId, row: RowId) -> Symbol {
        self.cols[col as usize][row as usize]
    }

    /// A full row as interned cells (gathered across the column arrays).
    pub fn row(&self, row: RowId) -> Vec<Symbol> {
        self.cols.iter().map(|col| col[row as usize]).collect()
    }

    /// The value index over the live cells.
    pub fn value_index(&self) -> &ValueIndex {
        &self.value_index
    }

    /// The substring index over the live cell values.
    pub fn substring_index(&self) -> &SubstringIndex {
        &self.substring_index
    }

    /// Iterates every live cell as `(CellRef, &str)`, row-major.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellRef, &'static str)> + '_ {
        self.row_ids().flat_map(move |r| {
            self.cols.iter().enumerate().map(move |(c, col)| {
                (
                    CellRef {
                        col: c as ColId,
                        row: r,
                    },
                    col[r as usize].as_str(),
                )
            })
        })
    }

    /// The table's candidate keys (each an ordered column list).
    pub fn candidate_keys(&self) -> &[Vec<ColId>] {
        &self.candidate_keys
    }

    /// Cells whose content is a substring of `s` or contains `s`
    /// (the §5.3 relaxed-reachability relation), by full cell scan. Empty
    /// probes and empty cells never relate; empty probes short-circuit to
    /// an empty iterator without visiting any cell. Returned strings are
    /// interner-backed `&'static str`s — they borrow nothing from the
    /// table.
    ///
    /// This scan is the correctness *oracle* for the production query: the
    /// `GenerateStr_u` hot path asks [`crate::Database::cells_related_to`]
    /// instead, which answers from the table's [`SubstringIndex`]. The
    /// property tests pin the two to identical answer sets.
    #[inline]
    pub fn cells_related_to<'a>(
        &'a self,
        s: &'a str,
    ) -> impl Iterator<Item = (CellRef, &'static str)> + 'a {
        let slots = if s.is_empty() { 0 } else { self.live.len() };
        (0..slots as RowId)
            .filter(move |&r| self.live[r as usize])
            .flat_map(move |r| {
                self.cols.iter().enumerate().map(move |(c, col)| {
                    (
                        CellRef {
                            col: c as ColId,
                            row: r,
                        },
                        col[r as usize].as_str(),
                    )
                })
            })
            .filter(move |(_, v)| !v.is_empty() && (s.contains(v) || v.contains(s)))
    }

    /// Finds the unique live row where each `(col, value)` pair matches, if
    /// any.
    ///
    /// This is the evaluator for `Select` conditions: the paper guarantees
    /// conditions cover a candidate key, so at most one row can match; we
    /// nevertheless scan defensively and return `None` on ambiguity (which
    /// mutation can introduce — keys are not re-checked on writes).
    pub fn find_unique_row(&self, conds: &[(ColId, &str)]) -> Option<RowId> {
        // Resolve each probe string to a symbol once, without interning: a
        // value that was never interned cannot equal any cell (cells intern
        // on construction), so the scan below is pure integer compares.
        let mut resolved = Vec::with_capacity(conds.len());
        for (c, v) in conds {
            resolved.push((*c, Symbol::get(v)?));
        }
        self.find_unique_row_sym(&resolved)
    }

    /// [`Table::find_unique_row`] over interned probe values.
    ///
    /// Probes the value index: candidate rows are the first condition's
    /// value's cells in that condition's column (O(matches) instead of
    /// O(rows), and only live rows — tombstoned cells leave the index on
    /// delete), the remaining conditions are integer compares per
    /// candidate, and the defensive ambiguity check is preserved — two
    /// matching rows still return `None`.
    pub fn find_unique_row_sym(&self, conds: &[(ColId, Symbol)]) -> Option<RowId> {
        let Some((first, rest)) = conds.split_first() else {
            // No conditions: every row matches vacuously; unique iff the
            // table has exactly one live row (the seed scan's behavior).
            return if self.live_rows == 1 {
                self.row_ids().next()
            } else {
                None
            };
        };
        let (col, value) = *first;
        let mut found: Option<RowId> = None;
        for cell in self.value_index.cells_equal(value) {
            if cell.col == col
                && rest
                    .iter()
                    .all(|(c, v)| self.cols[*c as usize][cell.row as usize] == *v)
            {
                if found.is_some() {
                    return None;
                }
                found = Some(cell.row);
            }
        }
        found
    }
}

/// Equality over the **observable** table: name, columns, candidate keys
/// and the live row sequence. A table with pending tombstones equals its
/// compacted (or freshly rebuilt) form even though slot ids differ.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.candidate_keys == other.candidate_keys
            && self.live_rows == other.live_rows
            && self.row_ids().zip(other.row_ids()).all(|(a, b)| {
                self.cols
                    .iter()
                    .zip(&other.cols)
                    .all(|(ca, cb)| ca[a as usize] == cb[b as usize])
            })
    }
}

impl Eq for Table {}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in self.row_ids() {
            for (i, col) in self.cols.iter().enumerate() {
                widths[i] = widths[i].max(col[r as usize].as_str().len());
            }
        }
        writeln!(f, "{}:", self.name)?;
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "  {}", header.join(" | "))?;
        for r in self.row_ids() {
            let cells: Vec<String> = self
                .cols
                .iter()
                .enumerate()
                .map(|(i, col)| format!("{:w$}", col[r as usize].as_str(), w = widths[i]))
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp_table() -> Table {
        Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = comp_table();
        assert_eq!(t.name(), "Comp");
        assert_eq!(t.width(), 2);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.cell(1, 2), "Apple");
        assert_eq!(t.column_id("Name"), Some(1));
        assert_eq!(t.column_id("Nope"), None);
        assert_eq!(t.column_name(0), "Id");
        assert_eq!(
            t.row(1),
            vec![Symbol::intern("c2"), Symbol::intern("Google")]
        );
    }

    #[test]
    fn ragged_row_rejected() {
        let err = Table::new("T", vec!["A", "B"], vec![vec!["x"]]).unwrap_err();
        assert_eq!(
            err,
            TableError::RaggedRow {
                row: 0,
                found: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Table::new("T", vec!["A", "A"], Vec::<Vec<&str>>::new()).unwrap_err();
        assert_eq!(err, TableError::DuplicateColumn("A".into()));
    }

    #[test]
    fn empty_table_rejected() {
        let err = Table::new("T", Vec::<&str>::new(), Vec::<Vec<&str>>::new()).unwrap_err();
        assert_eq!(err, TableError::EmptyTable("T".into()));
    }

    #[test]
    fn declared_keys_validated() {
        let ok = Table::with_keys(
            "T",
            vec!["A", "B"],
            vec![vec!["x", "1"], vec!["y", "1"]],
            vec![vec!["A"]],
        );
        assert!(ok.is_ok());
        let err = Table::with_keys(
            "T",
            vec!["A", "B"],
            vec![vec!["x", "1"], vec!["y", "1"]],
            vec![vec!["B"]],
        )
        .unwrap_err();
        assert_eq!(err, TableError::NotAKey(vec!["B".into()]));
    }

    #[test]
    fn declared_key_unknown_column() {
        let err = Table::with_keys("T", vec!["A"], vec![vec!["x"]], vec![vec!["Z"]]).unwrap_err();
        assert_eq!(err, TableError::UnknownColumn("Z".into()));
    }

    #[test]
    fn find_unique_row_matches() {
        let t = comp_table();
        assert_eq!(t.find_unique_row(&[(0, "c2")]), Some(1));
        assert_eq!(t.find_unique_row(&[(0, "c9")]), None);
        assert_eq!(t.find_unique_row(&[(0, "c2"), (1, "Google")]), Some(1));
        assert_eq!(t.find_unique_row(&[(0, "c2"), (1, "Apple")]), None);
    }

    #[test]
    fn find_unique_row_rejects_ambiguity() {
        let t = Table::new("T", vec!["A", "B"], vec![vec!["x", "1"], vec!["y", "1"]]).unwrap();
        assert_eq!(t.find_unique_row(&[(1, "1")]), None);
        // A value held only in another column matches nothing.
        assert_eq!(t.find_unique_row(&[(1, "x")]), None);
        // Ambiguity on the index-probed first condition, disambiguated by
        // a later condition.
        assert_eq!(
            t.find_unique_row_sym(&[(1, Symbol::intern("1")), (0, Symbol::intern("y"))]),
            Some(1)
        );
    }

    #[test]
    fn find_unique_row_no_conditions_matches_seed_scan() {
        // Vacuous conditions match every row: unique only in a 1-row table.
        let one = Table::new_with_key_width("T", vec!["A"], vec![vec!["x"]], 1).unwrap();
        assert_eq!(one.find_unique_row_sym(&[]), Some(0));
        let two = Table::new("T", vec!["A"], vec![vec!["x"], vec!["y"]]).unwrap();
        assert_eq!(two.find_unique_row_sym(&[]), None);
    }

    #[test]
    fn substring_relation_cells() {
        let t = comp_table();
        let hits: Vec<&str> = t.cells_related_to("c1").map(|(_, v)| v).collect();
        assert_eq!(hits, vec!["c1"]);
        let hits: Vec<&str> = t.cells_related_to("soft").map(|(_, v)| v).collect();
        assert_eq!(hits, vec!["Microsoft"]);
        // A string containing a cell also relates.
        let hits: Vec<&str> = t.cells_related_to("c2 c3").map(|(_, v)| v).collect();
        assert_eq!(hits, vec!["c2", "c3"]);
        // Empty probe never relates.
        assert_eq!(t.cells_related_to("").count(), 0);
    }

    #[test]
    fn iter_cells_covers_table() {
        let t = comp_table();
        assert_eq!(t.iter_cells().count(), 6);
        let (cell, v) = t.iter_cells().last().unwrap();
        assert_eq!((cell.col, cell.row, v), (1, 2, "Apple"));
    }

    #[test]
    fn display_renders_all_cells() {
        let s = comp_table().to_string();
        assert!(s.contains("Comp:"));
        assert!(s.contains("Microsoft"));
        assert!(s.contains("Id"));
    }

    #[test]
    fn csv_roundtrip_preserves_table() {
        let t = comp_table();
        let csv = t.to_csv();
        let back = Table::from_csv("Comp", &csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_csv_parses_header_and_rows() {
        let t = Table::from_csv("T", "Code,Name\nc1,\"Big, Inc\"\nc2,Small\n").unwrap();
        assert_eq!(t.columns(), &["Code".to_string(), "Name".to_string()]);
        assert_eq!(t.cell(1, 0), "Big, Inc");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_csv_empty_is_error() {
        assert!(Table::from_csv("T", "").is_err());
    }

    #[test]
    fn insert_rows_appends_and_probes() {
        let mut t = comp_table();
        let ids = t
            .insert_rows(vec![vec!["c4", "Amazon"], vec!["c5", "Meta"]])
            .unwrap();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.cell(1, 4), "Meta");
        assert_eq!(t.find_unique_row(&[(0, "c4")]), Some(3));
        assert_eq!(
            t.value_index().cells_equal(Symbol::intern("Amazon")),
            &[CellRef { col: 1, row: 3 }]
        );
        // A ragged batch mutates nothing.
        let before = t.clone();
        assert!(t.insert_rows(vec![vec!["c6", "X"], vec!["short"]]).is_err());
        assert_eq!(t, before);
    }

    #[test]
    fn update_cell_moves_index_entries() {
        let mut t = comp_table();
        let old = t.update_cell(1, 1, "Alphabet").unwrap();
        assert_eq!(old.as_str(), "Google");
        assert_eq!(t.cell(1, 1), "Alphabet");
        assert_eq!(t.find_unique_row(&[(1, "Alphabet")]), Some(1));
        assert_eq!(t.find_unique_row(&[(1, "Google")]), None);
        assert!(t
            .value_index()
            .cells_equal(Symbol::intern("Google"))
            .is_empty());
        // No-op update returns the (unchanged) old value.
        assert_eq!(
            t.update_cell(1, 1, "Alphabet").unwrap().as_str(),
            "Alphabet"
        );
        // Out-of-range coordinates are rejected.
        assert!(matches!(
            t.update_cell(7, 0, "x"),
            Err(TableError::ColumnOutOfRange { .. })
        ));
        assert!(matches!(
            t.update_cell(0, 99, "x"),
            Err(TableError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn delete_rows_tombstones_and_hides() {
        let mut t = comp_table();
        assert_eq!(t.row(1)[1].as_str(), "Google");
        assert_eq!(t.delete_rows(&[1]).unwrap(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.slots(), 3);
        assert!(!t.is_live(1));
        assert_eq!(t.find_unique_row(&[(0, "c2")]), None);
        assert_eq!(t.row_ids().collect::<Vec<_>>(), vec![0, 2]);
        // Observables skip the tombstone.
        assert_eq!(t.iter_cells().count(), 4);
        assert!(!t.to_string().contains("Google"));
        assert_eq!(t.cells_related_to("c2 c3").count(), 1);
        // Deleting a dead row (or one row twice in a batch) is an error and
        // mutates nothing.
        assert!(matches!(t.delete_rows(&[1]), Err(TableError::DeadRow(1))));
        assert!(matches!(
            t.delete_rows(&[0, 0]),
            Err(TableError::DeadRow(0))
        ));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn tombstoned_equals_compacted_and_rebuilt() {
        let mut t = comp_table();
        t.delete_rows(&[1]).unwrap();
        let rebuilt = Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![vec!["c1", "Microsoft"], vec!["c3", "Apple"]],
        )
        .unwrap();
        assert_eq!(t, rebuilt);
        let mut compacted = t.clone();
        assert!(compacted.compact());
        assert_eq!(compacted.slots(), 2);
        assert_eq!(compacted, t);
        assert_eq!(compacted, rebuilt);
        assert_eq!(compacted.find_unique_row(&[(0, "c3")]), Some(1));
        // Compacting a dense table is a no-op.
        assert!(!compacted.compact());
    }

    #[test]
    fn compaction_threshold() {
        let rows: Vec<Vec<String>> = (0..100).map(|i| vec![format!("r{i}")]).collect();
        let mut t = Table::new("T", vec!["A"], rows).unwrap();
        let doomed: Vec<RowId> = (0..40).collect();
        t.delete_rows(&doomed).unwrap();
        assert!(!t.should_compact(), "40 dead of 100 is under half");
        t.delete_rows(&(40..55).collect::<Vec<RowId>>()).unwrap();
        assert!(t.should_compact(), "55 dead > 45 live and over the floor");
        t.compact();
        assert_eq!(t.len(), 45);
        assert_eq!(t.slots(), 45);
        assert_eq!(t.find_unique_row(&[(0, "r99")]), Some(44));
    }

    /// Asserts a table's own indexes answer like fresh builds over its live
    /// rows: the value index structurally, the substring index per probe.
    fn assert_indexes_match_rebuild(t: &Table, probes: &[&str]) {
        assert_eq!(t.value_index(), &ValueIndex::build(t));
        let fresh = SubstringIndex::build(t);
        for p in probes {
            let mut got = t.substring_index().related_values(p);
            let mut want = fresh.related_values(p);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "probe {p:?}");
        }
    }

    #[test]
    fn standalone_table_indexes_match_rebuild_after_every_mutation() {
        let probes = ["c1", "c4 c2", "Goo", "o", "Apple", "Microsoft", "Alpha", ""];
        let mut t = comp_table();
        assert_indexes_match_rebuild(&t, &probes);
        t.insert_rows(vec![vec!["c4", "Google"]]).unwrap();
        assert_indexes_match_rebuild(&t, &probes);
        t.update_cell(1, 0, "Google").unwrap();
        assert_indexes_match_rebuild(&t, &probes);
        t.update_cell(1, 2, "Alphabet").unwrap();
        assert_indexes_match_rebuild(&t, &probes);
        t.delete_rows(&[2]).unwrap();
        assert_indexes_match_rebuild(&t, &probes);
        // Live rows: (c1,Google), (c2,Google), (c4,Google); vacated values
        // left both indexes.
        for gone in ["Microsoft", "Apple", "Alphabet"] {
            assert!(t.value_index().cells_equal(Symbol::intern(gone)).is_empty());
            assert!(t.substring_index().related_values(gone).is_empty());
        }
        assert!(t.compact());
        assert_indexes_match_rebuild(&t, &probes);
        assert_eq!(t.find_unique_row(&[(0, "c4")]), Some(2));
        assert_eq!(t.find_unique_row(&[(1, "Google")]), None);
        let fresh = Table::with_keys(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Google"],
                vec!["c2", "Google"],
                vec!["c4", "Google"],
            ],
            vec![vec!["Id"]],
        )
        .unwrap();
        // Candidate keys were frozen at construction, so compare contents
        // and indexes, not whole-table equality.
        assert_eq!(t.to_csv(), fresh.to_csv());
        assert_eq!(t.value_index(), fresh.value_index());
    }
}
