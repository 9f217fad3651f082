//! A named collection of tables with per-table epochs and a mutation
//! journal.

use std::collections::{HashMap, VecDeque};
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

/// Mutation-journal depth: how far back [`Database::delta_since`] can
/// describe history. A cache whose epoch fell off the window simply gets
/// `None` (= invalidate fully), so the bound trades a little warm-cache
/// retention for a hard memory cap.
const JOURNAL_CAP: usize = 128;

/// One mutation event: which table moved, which cell values were involved,
/// and the epoch edge it created.
#[derive(Debug, Clone)]
struct JournalEntry {
    /// Epoch before this mutation (chains entries into a lineage).
    prev_epoch: u64,
    /// Epoch this mutation produced.
    epoch: u64,
    /// The mutated table.
    table: TableId,
    /// Cell values the mutation added or removed (old + new for updates).
    touched: Vec<Symbol>,
    /// Whether the mutation changed the database's *shape* (table count),
    /// which shifts depth bounds and invalidates everything.
    structural: bool,
}

/// What changed between two epochs of one database lineage — the answer
/// [`Database::delta_since`] assembles from the journal so caches can
/// invalidate *selectively* instead of wholesale.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbDelta {
    /// Whether any covered mutation was structural (`add_table`): depth
    /// bounds moved, nothing survives.
    pub structural: bool,
    /// Tables mutated over the span, ascending, deduplicated.
    pub tables: Vec<TableId>,
    /// Cell values added or removed over the span (old and new values of
    /// updates), deduplicated.
    pub touched: Vec<Symbol>,
}

impl DbDelta {
    /// True iff nothing changed (the two epochs are the same state).
    pub fn is_empty(&self) -> bool {
        !self.structural && self.tables.is_empty() && self.touched.is_empty()
    }

    /// Whether a cached result that read `tables_read` and whose reachable
    /// string set is `strings` could be changed by this delta.
    ///
    /// Conservative in exactly the right direction: `true` may be a false
    /// alarm (cache entry dropped needlessly), `false` is a guarantee —
    /// none of the entry's tables were written, and no added/removed cell
    /// value is in a substring relation with any string the entry's
    /// generation ever compared against cells, so replaying the
    /// computation against the mutated database reaches the same state.
    pub fn affects(&self, tables_read: &[TableId], strings: &[Symbol]) -> bool {
        if self.structural {
            return true;
        }
        if self.tables.iter().any(|t| tables_read.contains(t)) {
            return true;
        }
        self.touched.iter().any(|d| {
            let ds = d.as_str();
            !ds.is_empty()
                && strings.iter().any(|s| {
                    let ss = s.as_str();
                    !ss.is_empty() && (ss.contains(ds) || ds.contains(ss))
                })
        })
    }
}

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
/// Every mutation draws a globally fresh epoch, records it in the
/// journal, and stamps the mutated table's entry in
/// [`Database::table_epochs`]; [`Database::delta_since`] replays the
/// journal so caches can keep entries that provably didn't change.
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
    /// Per-table epochs: `table_epochs[t]` is the database epoch of the
    /// last mutation that touched table `t` (its creation, at minimum).
    table_epochs: Vec<u64>,
    /// Recent mutation events, oldest first, chained by `prev_epoch`.
    journal: VecDeque<JournalEntry>,
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

    /// Draws a fresh epoch and journals one mutation event against `table`.
    fn bump(&mut self, table: TableId, touched: Vec<Symbol>, structural: bool) {
        let prev_epoch = self.epoch;
        self.epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        self.table_epochs[table as usize] = self.epoch;
        self.journal.push_back(JournalEntry {
            prev_epoch,
            epoch: self.epoch,
            table,
            touched,
            structural,
        });
        if self.journal.len() > JOURNAL_CAP {
            self.journal.pop_front();
        }
    }

    fn check_table(&self, id: TableId) -> Result<(), TableError> {
        if (id as usize) < self.tables.len() {
            Ok(())
        } else {
            Err(TableError::UnknownTable(format!("#{id}")))
        }
    }

    /// Adds a table; returns its id. This is the one *structural* mutation:
    /// the table count feeds the synthesizer's depth bound, so caches treat
    /// it as invalidate-everything.
    pub fn add_table(&mut self, table: Table) -> Result<TableId, TableError> {
        if self.by_name.contains_key(table.name()) {
            return Err(TableError::DuplicateTable(table.name().to_string()));
        }
        let id = self.tables.len() as TableId;
        self.by_name.insert(table.name().to_string(), id);
        self.tables.push(table);
        self.table_epochs.push(0);
        self.bump(id, Vec::new(), true);
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
        let t = &mut self.tables[table as usize];
        let ids = t.insert_rows(rows)?;
        let mut touched: Vec<Symbol> = ids.iter().flat_map(|&r| t.row(r)).collect();
        touched.sort_unstable();
        touched.dedup();
        self.bump(table, touched, false);
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
        let new = t.cell_sym(col, row);
        if new != old {
            let mut touched = vec![old, new];
            touched.sort_unstable();
            self.bump(table, touched, false);
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
        let mut touched: Vec<Symbol> = removed.iter().flat_map(|(_, vals)| vals).copied().collect();
        touched.sort_unstable();
        touched.dedup();
        self.bump(table, touched, false);
        Ok(removed.len())
    }

    /// The database's mutation epoch: changes (to a process-globally fresh
    /// value) whenever any table is added or mutated. Equal epochs imply
    /// equal contents, which is the invariant result caches rely on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-table epochs, indexed by [`TableId`]: the database epoch of the
    /// last mutation touching each table. A cache entry that recorded
    /// which tables it read stays provably fresh while those tables'
    /// epochs haven't moved.
    pub fn table_epochs(&self) -> &[u64] {
        &self.table_epochs
    }

    /// The epoch of the last mutation touching one table.
    pub fn table_epoch(&self, id: TableId) -> u64 {
        self.table_epochs[id as usize]
    }

    /// Describes everything that changed since `epoch`, if the journal
    /// still covers the span: `Some(delta)` walks the mutation chain back
    /// to `epoch` (empty delta when `epoch` is current); `None` means the
    /// span is unknowable — `epoch` fell off the journal window or belongs
    /// to a diverged clone lineage (epochs are globally unique, so a
    /// foreign epoch never chains) — and callers must fall back to full
    /// invalidation.
    pub fn delta_since(&self, epoch: u64) -> Option<DbDelta> {
        if epoch == self.epoch {
            return Some(DbDelta::default());
        }
        let mut delta = DbDelta::default();
        let mut expect = self.epoch;
        for entry in self.journal.iter().rev() {
            if entry.epoch != expect {
                return None; // defensive: the chain must be gapless
            }
            expect = entry.prev_epoch;
            delta.structural |= entry.structural;
            delta.tables.push(entry.table);
            delta.touched.extend_from_slice(&entry.touched);
            if entry.prev_epoch == epoch {
                delta.tables.sort_unstable();
                delta.tables.dedup();
                delta.touched.sort_unstable();
                delta.touched.dedup();
                return Some(delta);
            }
        }
        None
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
    fn mutations_bump_only_their_table_epoch() {
        let mut d = db();
        let (ea, eb) = (d.table_epoch(0), d.table_epoch(1));
        d.insert_rows(0, vec![vec!["7"]]).unwrap();
        assert_ne!(d.table_epoch(0), ea, "mutated table's epoch moves");
        assert_eq!(d.table_epoch(1), eb, "other table's epoch is untouched");
        assert_eq!(
            d.epoch(),
            d.table_epoch(0),
            "generation tracks the last write"
        );
        let e = d.epoch();
        // A no-op update bumps nothing.
        d.update_cell(1, 0, 0, "2").unwrap();
        assert_eq!(d.epoch(), e);
        d.update_cell(1, 0, 0, "9").unwrap();
        assert_ne!(d.epoch(), e);
        assert_eq!(d.table_epochs().len(), 2);
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
    fn delta_since_describes_the_span() {
        let mut d = db();
        let e0 = d.epoch();
        assert_eq!(d.delta_since(e0), Some(DbDelta::default()));
        d.insert_rows(0, vec![vec!["7"]]).unwrap();
        let e1 = d.epoch();
        d.update_cell(1, 1, 0, "9").unwrap();
        let delta = d.delta_since(e0).unwrap();
        assert!(!delta.structural);
        assert_eq!(delta.tables, vec![0, 1]);
        let mut touched: Vec<&str> = delta.touched.iter().map(|s| s.as_str()).collect();
        touched.sort_unstable();
        assert_eq!(touched, vec!["3", "7", "9"]);
        // Mid-span queries see only the tail.
        let tail = d.delta_since(e1).unwrap();
        assert_eq!(tail.tables, vec![1]);
        // Structural mutations poison the whole span.
        d.add_table(Table::new("C", vec!["W"], vec![vec!["w"]]).unwrap())
            .unwrap();
        assert!(d.delta_since(e0).unwrap().structural);
        // Unknown epochs (foreign lineage) are unanswerable.
        assert_eq!(d.delta_since(999_999_999), None);
    }

    #[test]
    fn delta_affects_reads_and_substrings() {
        let mut d = db();
        let e0 = d.epoch();
        d.insert_rows(0, vec![vec!["abc"]]).unwrap();
        let delta = d.delta_since(e0).unwrap();
        // Reading the mutated table is affected; another table is not.
        assert!(delta.affects(&[0], &[]));
        assert!(!delta.affects(&[1], &[]));
        // A string substring-related to the new value is affected.
        assert!(delta.affects(&[1], &[Symbol::intern("xxabcxx")]));
        assert!(delta.affects(&[1], &[Symbol::intern("b")]));
        assert!(!delta.affects(&[1], &[Symbol::intern("zz")]));
        // Structural deltas affect everything.
        let all = DbDelta {
            structural: true,
            ..DbDelta::default()
        };
        assert!(all.affects(&[], &[]));
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
