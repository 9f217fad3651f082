//! Substring postings index over the interned value plane.
//!
//! The §5.3 relaxed-reachability gate asks, per frontier string `s`, for
//! every cell value `v` in a *substring relation* with `s` (`v ⊑ s` or
//! `s ⊑ v`). The seed answered it by scanning every cell of every table and
//! running two `contains` checks per cell — the dominant remaining cost of
//! `GenerateStr_u` after the interned value plane landed. This index
//! precomputes postings over each table's distinct values once, when the
//! [`crate::Table`] is built (alongside its [`crate::ValueIndex`]), so a
//! probe touches work proportional to `|s|` and the candidate set instead of
//! the table size — the same move BlinkFill's `InputDataGraph` makes for its
//! substring queries.
//!
//! Three structures answer the two directions of the relation:
//!
//! * **`v ⊑ s`** — an exact map from full value bytes to value id, plus the
//!   sorted set of distinct value lengths: slide a window of each indexed
//!   length over `s` and probe the map. Byte windows are safe for UTF-8:
//!   a window equal to a valid UTF-8 value necessarily starts on a char
//!   boundary (UTF-8 is self-synchronizing), matching `str::contains`.
//! * **`s ⊑ v`, `|s| ≥ q`** — classic q-gram postings (`q = 3`): every
//!   value of length ≥ q posts each of its q-grams. The probe takes the
//!   *rarest* of `s`'s q-grams as the candidate list (any missing gram
//!   proves no value contains `s`) and verifies candidates with one
//!   `contains` each.
//! * **`s ⊑ v`, `|s| < q`** — a short-gram side table: every value posts
//!   its grams of length `1..q` too, so a short probe is itself a gram key
//!   and the postings list *is* the exact answer, no verification needed.
//!   This also covers cells shorter than `q`, which post no q-grams.
//!
//! Empty values are never indexed and empty probes never relate, matching
//! the [`crate::Table::cells_related_to`] scan, which remains in the tree as
//! this index's correctness oracle (see the property tests).
//!
//! The index is **incrementally maintainable** for the row-mutation plane:
//! every distinct value carries a refcount of the live cells holding it
//! ([`SubstringIndex::insert_value`] / [`SubstringIndex::remove_value`]),
//! postings are kept sorted by binary insertion so entries can be spliced
//! out, and freed value ids go on a free list for reuse. Dense-id
//! *numbering* may therefore diverge from a fresh build's after
//! delete/reinsert churn — equivalence with a rebuild is pinned at the
//! answer level ([`SubstringIndex::related_values`] sets), which is all any
//! consumer observes (the `GenerateStr_u` gate canonicalizes candidate
//! order).

use std::collections::HashMap;

use crate::intern::Symbol;
use crate::table::{ColId, Table};

/// Gram width of the long-probe postings. Values shorter than `Q` are
/// covered by the short-gram side table.
pub const Q: usize = 3;

/// Substring-relation postings over one table's distinct cell values.
///
/// Keys borrow the interner's `&'static` bytes, so the index stores no
/// string data of its own.
#[derive(Debug, Clone, Default)]
pub struct SubstringIndex {
    /// Value per dense id; slots of freed ids are stale until reused.
    vals: Vec<Symbol>,
    /// Live cells holding each id's value; `0` = the id slot is free.
    refs: Vec<u32>,
    /// Freed ids awaiting reuse.
    free: Vec<u32>,
    /// Full value bytes → dense id (the `v ⊑ s` window probe); live values
    /// only.
    exact: HashMap<&'static [u8], u32>,
    /// `(byte length, distinct live values of that length)`, ascending by
    /// length.
    lens: Vec<(u32, u32)>,
    /// q-gram → ids of values (length ≥ `Q`) containing it, ascending.
    grams: HashMap<&'static [u8], Vec<u32>>,
    /// Short gram (length `1..Q`) → ids of values containing it, ascending.
    short: HashMap<&'static [u8], Vec<u32>>,
}

impl SubstringIndex {
    /// Builds the index over one table's live cells.
    pub fn build(table: &Table) -> Self {
        let mut idx = SubstringIndex::default();
        for r in table.row_ids() {
            for c in 0..table.width() {
                idx.insert_value(table.cell_sym(c as ColId, r));
            }
        }
        idx
    }

    /// Records one more live cell holding `v`, indexing the value if it is
    /// new. Empty values are never indexed.
    pub fn insert_value(&mut self, v: Symbol) {
        if v.is_empty() {
            return;
        }
        let bytes = v.as_str().as_bytes();
        if let Some(&id) = self.exact.get(bytes) {
            self.refs[id as usize] += 1;
            return;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.vals[id as usize] = v;
                self.refs[id as usize] = 1;
                id
            }
            None => {
                let id = self.vals.len() as u32;
                self.vals.push(v);
                self.refs.push(1);
                id
            }
        };
        self.exact.insert(bytes, id);
        let len = bytes.len() as u32;
        match self.lens.binary_search_by_key(&len, |&(l, _)| l) {
            Ok(pos) => self.lens[pos].1 += 1,
            Err(pos) => self.lens.insert(pos, (len, 1)),
        }
        if bytes.len() >= Q {
            for gram in bytes.windows(Q) {
                posting_insert(self.grams.entry(gram).or_default(), id);
            }
        }
        for glen in 1..Q.min(bytes.len() + 1) {
            for gram in bytes.windows(glen) {
                posting_insert(self.short.entry(gram).or_default(), id);
            }
        }
    }

    /// Records that one live cell holding `v` disappeared; the value is
    /// un-indexed (postings spliced out, id freed) when its last cell goes.
    /// A value never indexed is ignored.
    pub fn remove_value(&mut self, v: Symbol) {
        if v.is_empty() {
            return;
        }
        let bytes = v.as_str().as_bytes();
        let Some(&id) = self.exact.get(bytes) else {
            return;
        };
        self.refs[id as usize] -= 1;
        if self.refs[id as usize] > 0 {
            return;
        }
        self.exact.remove(bytes);
        let len = bytes.len() as u32;
        if let Ok(pos) = self.lens.binary_search_by_key(&len, |&(l, _)| l) {
            self.lens[pos].1 -= 1;
            if self.lens[pos].1 == 0 {
                self.lens.remove(pos);
            }
        }
        if bytes.len() >= Q {
            for gram in bytes.windows(Q) {
                posting_remove(&mut self.grams, gram, id);
            }
        }
        for glen in 1..Q.min(bytes.len() + 1) {
            for gram in bytes.windows(glen) {
                posting_remove(&mut self.short, gram, id);
            }
        }
        self.free.push(id);
    }

    /// Number of distinct indexed values.
    pub fn distinct_len(&self) -> usize {
        self.exact.len()
    }

    /// All distinct values in a substring relation with `s`: `v ⊑ s` or
    /// `s ⊑ v`, in unspecified order. Empty probes never relate.
    ///
    /// Work is proportional to `|s|` (window/gram hashing) plus the
    /// emitted candidate set — never the table's value count. Dedup needs
    /// no table-sized scratch: within direction 2 a postings list holds
    /// each id at most once, and the only id the two directions can share
    /// is the value equal to `s` itself (`v ⊑ s ∧ s ⊑ v ⇒ v = s`).
    pub fn related_values(&self, s: &str) -> Vec<Symbol> {
        let mut out = Vec::new();
        if s.is_empty() || self.exact.is_empty() {
            return out;
        }
        let sb = s.as_bytes();

        // Direction 1 (v ⊑ s): windows of every indexed length. Distinct
        // windows can hit the same value (repeated occurrence in `s`), so
        // dedup against the ids emitted so far — a list bounded by the
        // answer size, not the table.
        let mut emitted: Vec<u32> = Vec::new();
        for &(len, _) in &self.lens {
            let len = len as usize;
            if len > sb.len() {
                break; // lens ascend
            }
            for window in sb.windows(len) {
                if let Some(&id) = self.exact.get(window) {
                    if !emitted.contains(&id) {
                        emitted.push(id);
                        out.push(self.vals[id as usize]);
                    }
                }
            }
        }
        // The one id both directions can emit: the value equal to `s`.
        // Direction 1 always finds it when it exists (the full-width
        // window), so direction 2 below skips exactly this id.
        let self_id = self.exact.get(sb).copied();

        // Direction 2 (s ⊑ v).
        if sb.len() < Q {
            // The probe is itself a gram key: postings are the exact answer.
            if let Some(posting) = self.short.get(sb) {
                for &id in posting {
                    if Some(id) != self_id {
                        out.push(self.vals[id as usize]);
                    }
                }
            }
        } else {
            // Rarest q-gram of the probe; a value containing `s` contains
            // every gram of `s`, so one absent gram proves emptiness.
            let mut rarest: Option<&Vec<u32>> = None;
            for gram in sb.windows(Q) {
                match self.grams.get(gram) {
                    None => return out,
                    Some(p) => {
                        if rarest.is_none_or(|r| p.len() < r.len()) {
                            rarest = Some(p);
                        }
                    }
                }
            }
            if let Some(candidates) = rarest {
                for &id in candidates {
                    if Some(id) != self_id && self.vals[id as usize].as_str().contains(s) {
                        out.push(self.vals[id as usize]);
                    }
                }
            }
        }
        out
    }
}

/// Splices `id` into a sorted postings list; a gram repeated within one
/// value probes as already-present and is posted once.
fn posting_insert(posting: &mut Vec<u32>, id: u32) {
    if let Err(pos) = posting.binary_search(&id) {
        posting.insert(pos, id);
    }
}

/// Splices `id` out of a gram's postings, dropping the entry when it
/// empties (so churn never strands empty lists).
fn posting_remove(postings: &mut HashMap<&'static [u8], Vec<u32>>, gram: &[u8], id: u32) {
    if let Some(posting) = postings.get_mut(gram) {
        if let Ok(pos) = posting.binary_search(&id) {
            posting.remove(pos);
        }
        if posting.is_empty() {
            postings.remove(gram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(cells: &[&str]) -> SubstringIndex {
        let rows: Vec<Vec<&str>> = cells.iter().map(|c| vec![*c]).collect();
        let mut with_ids: Vec<Vec<String>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let mut r = vec![format!("id{i}")];
            r.extend(row.iter().map(|s| s.to_string()));
            with_ids.push(r);
        }
        let t = Table::new("T", vec!["Id", "V"], with_ids).unwrap();
        SubstringIndex::build(&t)
    }

    fn related(idx: &SubstringIndex, s: &str) -> Vec<&'static str> {
        let mut v: Vec<&str> = idx.related_values(s).iter().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn both_directions_found() {
        let idx = index(&["Microsoft", "Google", "c1"]);
        // v ⊑ s.
        assert_eq!(related(&idx, "c1 and Google"), vec!["Google", "c1"]);
        // s ⊑ v.
        assert_eq!(related(&idx, "soft"), vec!["Microsoft"]);
        // Equality relates both ways but reports once.
        assert_eq!(related(&idx, "Google"), vec!["Google"]);
    }

    #[test]
    fn short_probe_uses_side_table() {
        let idx = index(&["Microsoft", "ab", "b"]);
        // |s| = 1 < Q: values containing "b".
        assert_eq!(related(&idx, "b"), vec!["ab", "b"]);
        // |s| = 2 < Q.
        assert_eq!(related(&idx, "so"), vec!["Microsoft"]);
    }

    #[test]
    fn short_cells_relate_through_windows() {
        let idx = index(&["ab", "x"]);
        assert_eq!(related(&idx, "zabz"), vec!["ab"]);
        assert_eq!(related(&idx, "x"), vec!["x"]);
    }

    #[test]
    fn empty_probe_never_relates() {
        let idx = index(&["a", "bc"]);
        assert!(idx.related_values("").is_empty());
    }

    #[test]
    fn unrelated_probe_empty() {
        let idx = index(&["Microsoft", "Google"]);
        assert!(idx.related_values("zzzz").is_empty());
    }

    #[test]
    fn unicode_values_and_probes() {
        let idx = index(&["über", "ü", "naïve"]);
        assert_eq!(related(&idx, "über-naïve"), vec!["naïve", "ü", "über"]);
        assert_eq!(related(&idx, "ü"), vec!["ü", "über"]);
        // A probe slicing through multibyte chars still matches correctly.
        assert_eq!(related(&idx, "aï"), vec!["naïve"]);
    }

    #[test]
    fn duplicate_cells_index_once() {
        let idx = index(&["dup", "dup", "dup"]);
        assert_eq!(idx.distinct_len(), 3 + 1); // 3 ids + one "dup"
        assert_eq!(related(&idx, "dup"), vec!["dup"]);
    }

    #[test]
    fn repeated_grams_within_value_post_once() {
        let idx = index(&["aaaa"]);
        assert_eq!(related(&idx, "aa"), vec!["aaaa"]);
        assert_eq!(related(&idx, "aaaaaa"), vec!["aaaa"]);
    }

    #[test]
    fn refcounts_survive_duplicate_removal() {
        let mut idx = index(&["dup", "dup", "other"]);
        // Removing one of two "dup" cells keeps the value indexed.
        idx.remove_value(Symbol::intern("dup"));
        assert_eq!(related(&idx, "dup"), vec!["dup"]);
        // Removing the last strips it everywhere.
        idx.remove_value(Symbol::intern("dup"));
        assert!(idx.related_values("dup").is_empty());
        assert!(idx.related_values("du").is_empty());
        assert_eq!(related(&idx, "other"), vec!["other"]);
    }

    #[test]
    fn removed_then_reinserted_answers_like_rebuild() {
        let mut idx = index(&["Microsoft", "Google", "naïve"]);
        idx.remove_value(Symbol::intern("Google"));
        idx.insert_value(Symbol::intern("Alphabet"));
        idx.insert_value(Symbol::intern("Google"));
        let fresh = index(&["Microsoft", "naïve", "Alphabet", "Google"]);
        for probe in [
            "Google",
            "soft",
            "Alphabet Google",
            "aï",
            "zz",
            "",
            "Microsoft Office",
        ] {
            assert_eq!(related(&idx, probe), related(&fresh, probe), "{probe:?}");
        }
    }

    #[test]
    fn remove_unknown_value_is_noop() {
        let mut idx = index(&["abc"]);
        idx.remove_value(Symbol::intern("never-indexed"));
        idx.remove_value(Symbol::intern(""));
        assert_eq!(related(&idx, "abc"), vec!["abc"]);
    }
}
