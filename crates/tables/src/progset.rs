//! Insertion-ordered hashed set for generalized program lists.
//!
//! `Progs[η]` needs two things at once: stable enumeration order (the
//! learned node lists it drains into are counted, ranked and displayed in
//! that order) and duplicate-free insertion (the
//! reachability loop re-derives the same generalized `Select` whenever a row
//! is re-matched in a later step). The seed used `Vec::contains` — a linear
//! deep-compare per insert that dominated `GenerateStr_t` on wide
//! structures. A `ProgSet` keeps the stable `Vec` and adds a hash index
//! (hash → indices into the vec), so an insert is one hash of the new item
//! plus equality checks only against hash-colliding entries. The set is
//! write-then-drain: callers insert, then consume it in insertion order.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use crate::intern::IntHasher;

/// An insertion-ordered set with O(1) expected-time membership.
#[derive(Debug, Clone)]
pub struct ProgSet<T> {
    items: Vec<T>,
    index: HashMap<u64, Vec<u32>, BuildHasherDefault<IntHasher>>,
}

impl<T> Default for ProgSet<T> {
    fn default() -> Self {
        ProgSet {
            items: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<T: Hash + Eq> ProgSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        ProgSet::default()
    }

    /// Inserts `item` unless an equal one is present; returns whether it was
    /// added. Insertion order is preserved for iteration.
    pub fn insert(&mut self, item: T) -> bool {
        let h = self.index.hasher().hash_one(&item);
        let bucket = self.index.entry(h).or_default();
        if bucket.iter().any(|&i| self.items[i as usize] == item) {
            return false;
        }
        bucket.push(self.items.len() as u32);
        self.items.push(item);
        true
    }

    /// True iff no items are present.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> IntoIterator for ProgSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedupes_and_keeps_order() {
        let mut s: ProgSet<String> = ProgSet::new();
        assert!(s.is_empty());
        assert!(s.insert("b".into()));
        assert!(s.insert("a".into()));
        assert!(!s.insert("b".into()));
        assert!(s.insert("c".into()));
        assert!(!s.is_empty());
        assert_eq!(s.into_iter().collect::<Vec<_>>(), ["b", "a", "c"]);
    }
}
