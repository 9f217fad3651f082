//! Inverted value→cell index over interned symbols.
//!
//! `GenerateStr_t` (Fig. 5a, line 9) iterates over "each table T, col C,
//! row r s.t. `T[C,r] = val(η)`" for every frontier node η. Scanning all
//! tables per frontier string would be quadratic; this index answers the
//! query in O(1) per distinct value. Keys are [`Symbol`]s, so a cross-table
//! probe hashes one `u32` once — no per-table string hashing, no `String`
//! allocation.
//!
//! The index is **incrementally maintainable**: [`ValueIndex::insert_cell`]
//! and [`ValueIndex::remove_cell`] splice one `CellRef` in or out of its
//! value's (row, col)-sorted list — the same order a fresh
//! [`ValueIndex::build`] produces — so an incrementally-maintained index is
//! structurally equal to a rebuilt one (pinned by the `incremental_index`
//! differential harness).

use crate::intern::{Symbol, SymbolMap};
use crate::table::{CellRef, ColId, Table};

/// Inverted index from interned cell value to every cell holding it, each
/// list ascending by `(row, col)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueIndex {
    cells: SymbolMap<Vec<CellRef>>,
}

impl ValueIndex {
    /// Builds the index over one table's live cells.
    pub fn build(table: &Table) -> Self {
        let mut cells: SymbolMap<Vec<CellRef>> = SymbolMap::default();
        cells.reserve(table.len() * table.width());
        for r in table.row_ids() {
            for c in 0..table.width() {
                let v = table.cell_sym(c as ColId, r);
                cells.entry(v).or_default().push(CellRef {
                    col: c as ColId,
                    row: r,
                });
            }
        }
        ValueIndex { cells }
    }

    /// Records that `cell` now holds `value`, keeping the list's
    /// (row, col) order. Idempotent for an already-present cell.
    pub fn insert_cell(&mut self, value: Symbol, cell: CellRef) {
        let list = self.cells.entry(value).or_default();
        if let Err(pos) = list.binary_search_by_key(&(cell.row, cell.col), |c| (c.row, c.col)) {
            list.insert(pos, cell);
        }
    }

    /// Records that `cell` no longer holds `value`; a vacated value leaves
    /// the map entirely (so equality with a fresh build holds).
    pub fn remove_cell(&mut self, value: Symbol, cell: CellRef) {
        if let Some(list) = self.cells.get_mut(&value) {
            if let Ok(pos) = list.binary_search_by_key(&(cell.row, cell.col), |c| (c.row, c.col)) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.cells.remove(&value);
            }
        }
    }

    /// All cells whose content equals `value`.
    pub fn cells_equal(&self, value: Symbol) -> &[CellRef] {
        self.cells.get(&value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Distinct values stored in the table.
    pub fn distinct_values(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.cells.keys().map(|s| s.as_str())
    }

    /// Number of distinct values.
    pub fn distinct_len(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(
            "T",
            vec!["A", "B"],
            vec![vec!["x", "y"], vec!["y", "z"], vec!["x", "x"]],
        )
        .unwrap()
    }

    #[test]
    fn equal_lookup_finds_all_cells() {
        let idx = ValueIndex::build(&t());
        let mut hits = idx.cells_equal(Symbol::intern("x")).to_vec();
        hits.sort();
        assert_eq!(
            hits,
            vec![
                CellRef { col: 0, row: 0 },
                CellRef { col: 0, row: 2 },
                CellRef { col: 1, row: 2 },
            ]
        );
        assert_eq!(idx.cells_equal(Symbol::intern("nope")), &[]);
    }

    #[test]
    fn distinct_values_counted() {
        let idx = ValueIndex::build(&t());
        assert_eq!(idx.distinct_len(), 3);
        let mut vals: Vec<&str> = idx.distinct_values().collect();
        vals.sort();
        assert_eq!(vals, vec!["x", "y", "z"]);
    }

    #[test]
    fn empty_table_empty_index() {
        let t = Table::new_with_key_width("T", vec!["A"], Vec::<Vec<&str>>::new(), 1).unwrap();
        let idx = ValueIndex::build(&t);
        assert_eq!(idx.distinct_len(), 0);
    }

    #[test]
    fn incremental_edits_equal_rebuild() {
        let mut table = t();
        let mut idx = ValueIndex::build(&table);
        // Insert a row.
        let ids = table.insert_rows(vec![vec!["y", "w"]]).unwrap();
        let r = ids[0];
        idx.insert_cell(Symbol::intern("y"), CellRef { col: 0, row: r });
        idx.insert_cell(Symbol::intern("w"), CellRef { col: 1, row: r });
        assert_eq!(idx, ValueIndex::build(&table));
        // Update a cell.
        let old = table.update_cell(1, 0, "q").unwrap();
        idx.remove_cell(old, CellRef { col: 1, row: 0 });
        idx.insert_cell(Symbol::intern("q"), CellRef { col: 1, row: 0 });
        assert_eq!(idx, ValueIndex::build(&table));
        // Delete a row; the vacated value "z" leaves the map.
        let vals = table.row(1);
        assert_eq!(table.delete_rows(&[1]).unwrap(), 1);
        for (c, v) in vals.into_iter().enumerate() {
            idx.remove_cell(
                v,
                CellRef {
                    col: c as ColId,
                    row: 1,
                },
            );
        }
        assert_eq!(idx, ValueIndex::build(&table));
        assert!(idx.cells_equal(Symbol::intern("z")).is_empty());
    }
}
