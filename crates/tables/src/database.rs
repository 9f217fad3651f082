//! A named collection of tables with a mutation epoch.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::TableError;
use crate::intern::Symbol;
use crate::table::{CellRef, ColId, RowId, Table};

/// Index of a table within a [`Database`].
pub type TableId = u32;

/// Process-global source of fresh database epochs. Every mutation event on
/// any `Database` draws a new value, so two databases (or two states of one
/// database) never share an epoch unless one is an unmutated clone of the
/// other — in which case their contents are identical and serving cached
/// results across them is sound.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// The relational database the synthesizer runs against: the user's helper
/// tables plus any background-knowledge tables (§6).
///
/// # Mutation plane
///
/// Beyond [`Database::add_table`], rows can be changed in place:
/// [`Database::insert_rows`], [`Database::update_cell`] and
/// [`Database::delete_rows`] check the table id and delegate to the owning
/// table, which splices its own value and substring indexes *incrementally*
/// — no rebuild, so a single-row write into a million-row table is
/// microseconds, not the milliseconds a rebuild costs. Deletes tombstone;
/// once tombstones dominate ([`Table::should_compact`]) the table is
/// compacted, which rebuilds its indexes.
///
/// Every mutation draws a globally fresh [`Database::epoch`]; a cache
/// scoped to one database state re-derives what it served once it moves.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    /// Mutation epoch: bumped to a globally fresh value by every mutation
    /// (add_table, insert_rows, update_cell, delete_rows). Caches keyed on
    /// synthesis results (the `DagCache` upstream) compare epochs to
    /// detect background-table mutation between learning steps. `0` = the
    /// empty database.
    epoch: u64,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from tables; names must be unique.
    pub fn from_tables(tables: Vec<Table>) -> Result<Self, TableError> {
        let mut db = Database::new();
        for t in tables {
            db.add_table(t)?;
        }
        Ok(db)
    }

    /// Draws a fresh epoch: one mutation event.
    fn bump(&mut self) {
        self.epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
    }

    fn check_table(&self, id: TableId) -> Result<(), TableError> {
        if (id as usize) < self.tables.len() {
            Ok(())
        } else {
            Err(TableError::UnknownTable(format!("#{id}")))
        }
    }

    /// Adds a table; returns its id. Like every mutation it moves the
    /// epoch.
    pub fn add_table(&mut self, table: Table) -> Result<TableId, TableError> {
        if self.by_name.contains_key(table.name()) {
            return Err(TableError::DuplicateTable(table.name().to_string()));
        }
        let id = self.tables.len() as TableId;
        self.by_name.insert(table.name().to_string(), id);
        self.tables.push(table);
        self.bump();
        Ok(id)
    }

    /// Appends rows to a table; returns the new (stable) row ids. A ragged
    /// batch mutates nothing.
    pub fn insert_rows<R: Into<String>>(
        &mut self,
        table: TableId,
        rows: Vec<Vec<R>>,
    ) -> Result<Vec<RowId>, TableError> {
        self.check_table(table)?;
        let ids = self.tables[table as usize].insert_rows(rows)?;
        self.bump();
        Ok(ids)
    }

    /// Overwrites one cell; returns the previous value. Writing the value
    /// already present is a true no-op: no index work, no epoch bump.
    pub fn update_cell(
        &mut self,
        table: TableId,
        col: ColId,
        row: RowId,
        value: &str,
    ) -> Result<Symbol, TableError> {
        self.check_table(table)?;
        let t = &mut self.tables[table as usize];
        let old = t.update_cell(col, row, value)?;
        if t.cell_sym(col, row) != old {
            self.bump();
        }
        Ok(old)
    }

    /// Tombstones rows; returns how many rows were removed. An invalid
    /// batch (out-of-range, dead, or duplicated row id) mutates nothing.
    /// When tombstones come to dominate the table it is compacted — row ids
    /// renumber and the table rebuilds its indexes (the correctness
    /// fallback the incremental plane always keeps).
    pub fn delete_rows(&mut self, table: TableId, rows: &[RowId]) -> Result<usize, TableError> {
        self.check_table(table)?;
        let t = &mut self.tables[table as usize];
        let removed = t.delete_rows(rows)?;
        if t.should_compact() {
            t.compact();
        }
        self.bump();
        Ok(removed)
    }

    /// The database's mutation epoch: changes (to a process-globally fresh
    /// value) whenever any table is added or mutated. Equal epochs imply
    /// equal contents, which is the invariant result caches rely on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff the database holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id as usize]
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Table, TableError> {
        self.table_id(name)
            .map(|id| self.table(id))
            .ok_or_else(|| TableError::UnknownTable(name.to_string()))
    }

    /// Iterates `(TableId, &Table)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TableId, t))
    }

    /// All cells across all tables equal to the interned `value`. One hash
    /// of a `u32` per table — the `GenerateStr_t` frontier probe.
    pub fn cells_equal(&self, value: Symbol) -> impl Iterator<Item = (TableId, CellRef)> + '_ {
        self.iter().flat_map(move |(tid, t)| {
            t.value_index()
                .cells_equal(value)
                .iter()
                .map(move |&cell| (tid, cell))
        })
    }

    /// All cells across all tables in a substring relation with `s` (cell
    /// content ⊑ `s` or `s` ⊑ cell content) — the §5.3 relaxed-reachability
    /// frontier probe, answered by each table's
    /// [`SubstringIndex`](crate::SubstringIndex) instead of a full cell
    /// scan. Empty probes and empty cells never relate. Order is
    /// unspecified; callers canonicalize.
    pub fn cells_related_to<'a>(
        &'a self,
        s: &'a str,
    ) -> impl Iterator<Item = (TableId, CellRef)> + 'a {
        self.iter().flat_map(move |(tid, t)| {
            t.substring_index()
                .related_values(s)
                .into_iter()
                .flat_map(move |val| {
                    t.value_index()
                        .cells_equal(val)
                        .iter()
                        .map(move |&cell| (tid, cell))
                })
        })
    }

    /// Total number of live cells, used to bound the reachability
    /// iteration.
    pub fn total_cells(&self) -> usize {
        self.tables.iter().map(|t| t.len() * t.width()).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::from_tables(vec![
            Table::new("A", vec!["X"], vec![vec!["1"], vec!["2"]]).unwrap(),
            Table::new("B", vec!["Y", "Z"], vec![vec!["2", "3"]]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let db = db();
        assert_eq!(db.len(), 2);
        assert_eq!(db.table_id("B"), Some(1));
        assert_eq!(db.table(1).name(), "B");
        assert_eq!(db.table_by_name("A").unwrap().len(), 2);
        assert!(matches!(
            db.table_by_name("C"),
            Err(TableError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db
            .add_table(Table::new("A", vec!["Q"], vec![vec!["9"]]).unwrap())
            .unwrap_err();
        assert_eq!(err, TableError::DuplicateTable("A".into()));
    }

    #[test]
    fn cross_table_cell_query() {
        let db = db();
        let hits: Vec<(TableId, CellRef)> = db.cells_equal(Symbol::intern("2")).collect();
        assert_eq!(db.cells_equal(Symbol::intern("never-a-cell")).count(), 0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }

    #[test]
    fn cross_table_substring_query_matches_scan() {
        let db = Database::from_tables(vec![
            Table::new("C", vec!["Id", "Name"], vec![vec!["c1", "Microsoft"]]).unwrap(),
            Table::new("D", vec!["K", "V"], vec![vec!["soft", "c1 c2"]]).unwrap(),
        ])
        .unwrap();
        for probe in ["c1", "soft", "Microsoft Excel", "c1 c2 c3", "", "zz"] {
            let mut indexed: Vec<(TableId, CellRef)> = db.cells_related_to(probe).collect();
            indexed.sort_unstable();
            let mut scanned: Vec<(TableId, CellRef)> = db
                .iter()
                .flat_map(|(tid, t)| t.cells_related_to(probe).map(move |(c, _)| (tid, c)))
                .collect();
            scanned.sort_unstable();
            assert_eq!(indexed, scanned, "probe {probe:?}");
        }
    }

    #[test]
    fn epoch_bumps_on_every_add() {
        let mut d = Database::new();
        assert_eq!(d.epoch(), 0, "empty database has the zero epoch");
        d.add_table(Table::new("A", vec!["X"], vec![vec!["1"]]).unwrap())
            .unwrap();
        let e1 = d.epoch();
        assert_ne!(e1, 0);
        // An unmutated clone shares the epoch (contents are identical)...
        let clone = d.clone();
        assert_eq!(clone.epoch(), e1);
        // ...but any further mutation diverges, on either copy.
        d.add_table(Table::new("B", vec!["Y"], vec![vec!["2"]]).unwrap())
            .unwrap();
        assert_ne!(d.epoch(), e1);
        assert_eq!(clone.epoch(), e1);
        // Fresh epochs are globally unique, not per-instance counters.
        let other =
            Database::from_tables(vec![Table::new("A", vec!["X"], vec![vec!["1"]]).unwrap()])
                .unwrap();
        assert_ne!(other.epoch(), e1);
    }

    #[test]
    fn every_mutation_moves_the_epoch() {
        let mut d = db();
        let e = d.epoch();
        d.insert_rows(0, vec![vec!["7"]]).unwrap();
        assert_ne!(d.epoch(), e, "an insert moves the epoch");
        let e = d.epoch();
        // A no-op update bumps nothing.
        d.update_cell(1, 0, 0, "2").unwrap();
        assert_eq!(d.epoch(), e);
        d.update_cell(1, 0, 0, "9").unwrap();
        assert_ne!(d.epoch(), e, "a real update moves the epoch");
        let e = d.epoch();
        d.delete_rows(0, &[0]).unwrap();
        assert_ne!(d.epoch(), e, "a delete moves the epoch");
    }

    #[test]
    fn mutations_reach_cross_table_queries() {
        let mut d = db();
        d.insert_rows(1, vec![vec!["5", "6"]]).unwrap();
        d.update_cell(1, 0, 0, "8").unwrap();
        d.delete_rows(0, &[0]).unwrap();
        let hits: Vec<(TableId, CellRef)> = d.cells_equal(Symbol::intern("8")).collect();
        assert_eq!(hits, vec![(1, CellRef { col: 0, row: 0 })]);
        assert_eq!(d.cells_related_to("5 6").count(), 2);
        // The deleted cell no longer answers cross-table queries.
        let hits: Vec<(TableId, CellRef)> = db().cells_equal(Symbol::intern("1")).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(d.cells_equal(Symbol::intern("1")).count(), 0);
        assert_eq!(d.total_cells(), 1 + 4);
    }

    #[test]
    fn totals() {
        let db = db();
        assert_eq!(db.total_cells(), 2 + 2);
        assert!(!db.is_empty());
        assert_eq!(db.iter().count(), 2);
    }

    #[test]
    fn display_concatenates_tables() {
        let s = db().to_string();
        assert!(s.contains("A:"));
        assert!(s.contains("B:"));
    }
}
