//! The flat, hash-consed program arena — the on-disk form of the memoized
//! synthesis stack.
//!
//! Program sets in the `Lu` language reach counts like 1.5·10³⁵³; the tree
//! representation ([`Dag`]s over [`AtomSet`]s, nested predicate DAGs)
//! keeps that tractable through `Arc` sharing, but `Arc` identity is an
//! *address*, not a *value*: memo keys riding on pointer identity cannot
//! survive a process boundary, and two structurally equal subprograms
//! built on different code paths are stored twice.
//!
//! [`Arena`] fixes both. Every representation layer — position sets,
//! atoms, DAGs, generalized-lookup programs, lookup nodes, whole `Du`
//! structures — is stored **once per distinct structure** in an
//! append-only typed store ([`Store`]), addressed by a dense `u32` id.
//! Interning is hash-consed bottom-up: children are interned before
//! parents, so structural equality of arbitrarily large subtrees is one
//! id comparison, ids are stable names for *values* (never reused, never
//! rebound), and the whole arena serializes as a flat table walk — the
//! basis of the binary snapshot codec in [`codec`].
//!
//! Layering: this crate sits below `sst-core` (which owns the `Du` tree
//! types); `sst-core` converts trees to and from the arena reprs defined
//! here ([`AtomRepr`], [`DagRepr`], [`ProgRepr`], [`NodeRepr`],
//! [`StructRepr`]). Within one arena, equal ids ⇔ equal structures. The
//! `DagCache` builds a fresh arena only when it writes a snapshot (and
//! reads one back on restore); learning works on the tree form and never
//! interns.

use std::hash::Hash;

use sst_lookup::NodeId;
use sst_syntactic::{AtomSet, Dag, PosSet};
use sst_tables::{IntMap, Symbol};

pub mod codec;

pub use codec::{
    decode_database, encode_database, open_snapshot, seal_snapshot, Reader, SnapshotError,
    SymDecoder, SymEncoder, Writer, SNAPSHOT_VERSION,
};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);
    };
}

id_type!(
    /// Id of one interned [`PosSet`].
    PosId
);
id_type!(
    /// Id of one interned position-set list (a `SubStr` boundary's
    /// alternatives, in order).
    PosListId
);
id_type!(
    /// Id of one interned [`AtomRepr`].
    AtomId
);
id_type!(
    /// Id of one interned atom list (one DAG edge's alternatives, in
    /// order).
    AtomListId
);
id_type!(
    /// Id of one interned [`DagRepr`].
    DagId
);
id_type!(
    /// Id of one interned [`ProgRepr`].
    ProgId
);
id_type!(
    /// Id of one interned symbol list (a lookup node's per-example
    /// values, in order).
    SymListId
);
id_type!(
    /// Id of one interned [`NodeRepr`].
    NodeRepId
);
id_type!(
    /// Id of one interned [`StructRepr`] — the arena name of a whole `Du`
    /// structure *value*. Equal ids ⇔ structurally equal structures; the
    /// example-pair intersection memo keys on pairs of these.
    StructId
);

/// Flat form of one [`AtomSet<NodeId>`]: constants are interned
/// [`Symbol`]s, sources are raw node indices, position lists are
/// [`PosListId`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomRepr {
    /// `ConstStr(s)`.
    Const(Symbol),
    /// The whole source string of node `.0`.
    Whole(u32),
    /// `SubStr(src, p1, p2)`.
    SubStr {
        /// Subject node index.
        src: u32,
        /// Start-position alternatives.
        p1: PosListId,
        /// End-position alternatives.
        p2: PosListId,
    },
}

/// Flat form of one [`Dag<NodeId>`]: edges in `BTreeMap` order (keys
/// `(a, b)` with `a < b`, ascending), each edge naming its atom list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DagRepr {
    /// Number of DAG-internal nodes.
    pub num_nodes: u32,
    /// Source node.
    pub source: u32,
    /// Target node.
    pub target: u32,
    /// `(a, b, atoms)` in ascending key order.
    pub edges: Box<[(u32, u32, AtomListId)]>,
}

/// Flat form of one generalized condition: the candidate-key index plus
/// one `(column, predicate DAG)` per key column, in key order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CondRepr {
    /// Candidate-key index within the table's key list.
    pub key: u32,
    /// One `(constrained column, key-value DAG)` per key column.
    pub preds: Box<[(u32, DagId)]>,
}

/// Flat form of one generalized lookup program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProgRepr {
    /// The input variable `v_i`.
    Var(u32),
    /// Generalized `Select`.
    Select {
        /// Projected column.
        col: u32,
        /// Table identifier.
        table: u32,
        /// Conditions, in order.
        conds: Box<[CondRepr]>,
    },
}

/// Flat form of one lookup node: its per-example values and its program
/// list, both in order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeRepr {
    /// The node's interned value list.
    pub vals: SymListId,
    /// Generalized lookup programs, in generation order (order is part of
    /// the structural identity — counting and ranking observe it).
    pub progs: Box<[ProgId]>,
}

/// Flat form of one whole `Du` structure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructRepr {
    /// Lookup nodes, in node-id order.
    pub nodes: Box<[NodeRepId]>,
    /// Top-level output DAG; `None` when the intersection became empty.
    pub top: Option<DagId>,
}

/// One append-only hash-consed store: distinct values get dense ids in
/// insertion order; re-interning an equal value returns the existing id.
/// Ids are never reused or rebound (nothing is ever removed), so an id
/// held across arbitrary later interning still names the same value.
#[derive(Debug, Clone)]
pub struct Store<T> {
    items: Vec<T>,
    index: IntMap<T, u32>,
    interned: u64,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store {
            items: Vec::new(),
            index: IntMap::default(),
            interned: 0,
        }
    }
}

impl<T: Eq + Hash + Clone> Store<T> {
    /// Interns `value`, returning the id of the canonical copy.
    pub fn intern(&mut self, value: T) -> u32 {
        self.interned += 1;
        if let Some(&id) = self.index.get(&value) {
            return id;
        }
        let id = self.items.len() as u32;
        self.items.push(value.clone());
        self.index.insert(value, id);
        id
    }

    /// The canonical value of `id`.
    ///
    /// # Panics
    /// If `id` was not produced by this store.
    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Number of distinct stored values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total [`Store::intern`] calls (hash-cons hits included).
    pub fn interned(&self) -> u64 {
        self.interned
    }

    /// All stored values, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// Hash-cons hit/volume counters of one arena, for `/metrics` and the
/// `perf_snapshot` `arena` section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArenaStats {
    /// Distinct values stored, summed across all typed stores.
    pub stored: u64,
    /// Total intern calls (`stored` of them allocated; the rest were
    /// hash-cons hits on existing values).
    pub interned: u64,
    /// Estimated resident bytes of the stored values (items plus their
    /// heap allocations; the hash-cons index roughly doubles this).
    pub resident_bytes: u64,
    /// Distinct whole structures.
    pub structs: u64,
    /// Distinct DAGs.
    pub dags: u64,
}

impl ArenaStats {
    /// Hash-cons hits: intern calls answered by an existing value.
    pub fn hits(&self) -> u64 {
        self.interned - self.stored
    }

    /// Dedup ratio: intern traffic per distinct stored value (≥ 1.0; 2.0
    /// means half of all interned structures already existed).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored == 0 {
            return 1.0;
        }
        self.interned as f64 / self.stored as f64
    }
}

/// The typed stores of the id-plane, in dependency order: every id a
/// value references points at an *earlier* store (or a smaller id of the
/// same store), which is what lets the snapshot codec write the arena as
/// a flat forward-only table walk.
#[derive(Debug, Default, Clone)]
pub struct Arena {
    /// Position sets.
    pub pos: Store<PosSet>,
    /// Position-set lists (ids into [`Arena::pos`]).
    pub pos_lists: Store<Box<[u32]>>,
    /// Atoms.
    pub atoms: Store<AtomRepr>,
    /// Atom lists (ids into [`Arena::atoms`]).
    pub atom_lists: Store<Box<[u32]>>,
    /// DAGs.
    pub dags: Store<DagRepr>,
    /// Generalized lookup programs.
    pub progs: Store<ProgRepr>,
    /// Symbol lists (node values).
    pub sym_lists: Store<Box<[Symbol]>>,
    /// Lookup nodes.
    pub nodes: Store<NodeRepr>,
    /// Whole structures.
    pub structs: Store<StructRepr>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Interns one position-set list.
    pub fn intern_pos_list(&mut self, list: &[PosSet]) -> PosListId {
        let ids: Box<[u32]> = list.iter().map(|p| self.pos.intern(p.clone())).collect();
        PosListId(self.pos_lists.intern(ids))
    }

    /// Interns one atom.
    pub fn intern_atom(&mut self, atom: &AtomSet<NodeId>) -> AtomId {
        let repr = match atom {
            AtomSet::ConstStr(s) => AtomRepr::Const(Symbol::intern(s)),
            AtomSet::Whole(n) => AtomRepr::Whole(n.0),
            AtomSet::SubStr { src, p1, p2 } => AtomRepr::SubStr {
                src: src.0,
                p1: self.intern_pos_list(p1),
                p2: self.intern_pos_list(p2),
            },
        };
        AtomId(self.atoms.intern(repr))
    }

    /// Interns one DAG (its atoms and position sets bottom-up).
    pub fn intern_dag(&mut self, dag: &Dag<NodeId>) -> DagId {
        let mut edges = Vec::with_capacity(dag.edges.len());
        for (&(a, b), atoms) in &dag.edges {
            let ids: Box<[u32]> = atoms.iter().map(|atom| self.intern_atom(atom).0).collect();
            let list = AtomListId(self.atom_lists.intern(ids));
            edges.push((a, b, list));
        }
        DagId(self.dags.intern(DagRepr {
            num_nodes: dag.num_nodes,
            source: dag.source,
            target: dag.target,
            edges: edges.into(),
        }))
    }

    /// Rebuilds the tree form of one interned DAG.
    pub fn extract_dag(&self, id: DagId) -> Dag<NodeId> {
        let repr = self.dags.get(id.0);
        let mut edges = std::collections::BTreeMap::new();
        for &(a, b, list) in repr.edges.iter() {
            let atoms: Vec<AtomSet<NodeId>> = self
                .atom_lists
                .get(list.0)
                .iter()
                .map(|&atom| self.extract_atom(AtomId(atom)))
                .collect();
            edges.insert((a, b), atoms);
        }
        Dag {
            num_nodes: repr.num_nodes,
            source: repr.source,
            target: repr.target,
            edges,
        }
    }

    /// Rebuilds the tree form of one interned atom.
    pub fn extract_atom(&self, id: AtomId) -> AtomSet<NodeId> {
        match self.atoms.get(id.0) {
            AtomRepr::Const(s) => AtomSet::ConstStr(s.as_str().to_string()),
            AtomRepr::Whole(n) => AtomSet::Whole(NodeId(*n)),
            AtomRepr::SubStr { src, p1, p2 } => AtomSet::SubStr {
                src: NodeId(*src),
                p1: std::sync::Arc::new(self.extract_pos_list(*p1)),
                p2: std::sync::Arc::new(self.extract_pos_list(*p2)),
            },
        }
    }

    /// The position sets of one interned list, in order.
    pub fn extract_pos_list(&self, id: PosListId) -> Vec<PosSet> {
        self.pos_lists
            .get(id.0)
            .iter()
            .map(|&p| self.pos.get(p).clone())
            .collect()
    }

    /// Hash-cons counters and the resident-bytes estimate.
    pub fn stats(&self) -> ArenaStats {
        let stored = (self.pos.len()
            + self.pos_lists.len()
            + self.atoms.len()
            + self.atom_lists.len()
            + self.dags.len()
            + self.progs.len()
            + self.sym_lists.len()
            + self.nodes.len()
            + self.structs.len()) as u64;
        let interned = self.pos.interned()
            + self.pos_lists.interned()
            + self.atoms.interned()
            + self.atom_lists.interned()
            + self.dags.interned()
            + self.progs.interned()
            + self.sym_lists.interned()
            + self.nodes.interned()
            + self.structs.interned();
        ArenaStats {
            stored,
            interned,
            resident_bytes: self.resident_bytes(),
            structs: self.structs.len() as u64,
            dags: self.dags.len() as u64,
        }
    }

    /// Estimated bytes held by the stored values (inline size plus heap
    /// allocations reachable from them; index overhead excluded).
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn slice_bytes<T: Eq + Hash + Clone>(s: &Store<Box<[T]>>) -> u64 {
            s.iter()
                .map(|l| (std::mem::size_of_val::<[T]>(l) + size_of::<Box<[T]>>()) as u64)
                .sum()
        }
        let pos: u64 = self
            .pos
            .iter()
            .map(|p| {
                (size_of::<PosSet>()
                    + match p {
                        PosSet::CPos(_) => 0,
                        PosSet::Pos { r1s, r2s, cs } => {
                            r1s.iter()
                                .map(|r| std::mem::size_of_val(&r.0[..]))
                                .sum::<usize>()
                                + r2s
                                    .iter()
                                    .map(|r| std::mem::size_of_val(&r.0[..]))
                                    .sum::<usize>()
                                + std::mem::size_of_val(&cs[..])
                        }
                    }) as u64
            })
            .sum();
        let progs: u64 = self
            .progs
            .iter()
            .map(|p| {
                (size_of::<ProgRepr>()
                    + match p {
                        ProgRepr::Var(_) => 0,
                        ProgRepr::Select { conds, .. } => conds
                            .iter()
                            .map(|c| size_of::<CondRepr>() + std::mem::size_of_val(&c.preds[..]))
                            .sum::<usize>(),
                    }) as u64
            })
            .sum();
        let dags: u64 = self
            .dags
            .iter()
            .map(|d| (size_of::<DagRepr>() + std::mem::size_of_val(&d.edges[..])) as u64)
            .sum();
        let nodes: u64 = self
            .nodes
            .iter()
            .map(|n| (size_of::<NodeRepr>() + std::mem::size_of_val(&n.progs[..])) as u64)
            .sum();
        let structs: u64 = self
            .structs
            .iter()
            .map(|s| (size_of::<StructRepr>() + std::mem::size_of_val(&s.nodes[..])) as u64)
            .sum();
        pos + slice_bytes(&self.pos_lists)
            + (self.atoms.len() * size_of::<AtomRepr>()) as u64
            + slice_bytes(&self.atom_lists)
            + dags
            + progs
            + slice_bytes(&self.sym_lists)
            + nodes
            + structs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn small_dag(c: &str, n: u32) -> Dag<NodeId> {
        let mut edges = BTreeMap::new();
        edges.insert(
            (0u32, 1u32),
            vec![AtomSet::ConstStr(c.to_string()), AtomSet::Whole(NodeId(n))],
        );
        Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges,
        }
    }

    #[test]
    fn equal_structures_intern_to_equal_ids() {
        let mut arena = Arena::new();
        let a = arena.intern_dag(&small_dag("x", 0));
        let b = arena.intern_dag(&small_dag("x", 0));
        let c = arena.intern_dag(&small_dag("y", 0));
        assert_eq!(a, b, "structural equality is id equality");
        assert_ne!(a, c);
        assert_eq!(arena.dags.len(), 2);
        assert_eq!(arena.dags.interned(), 3);
    }

    #[test]
    fn extract_inverts_intern() {
        let mut arena = Arena::new();
        let dag = Dag {
            num_nodes: 3,
            source: 0,
            target: 2,
            edges: {
                let mut e = BTreeMap::new();
                e.insert((0u32, 1u32), vec![AtomSet::ConstStr("né".to_string())]);
                e.insert(
                    (1u32, 2u32),
                    vec![AtomSet::SubStr {
                        src: NodeId(4),
                        p1: Arc::new(vec![PosSet::CPos(-1)]),
                        p2: Arc::new(vec![PosSet::CPos(3), PosSet::CPos(0)]),
                    }],
                );
                e
            },
        };
        let id = arena.intern_dag(&dag);
        assert_eq!(arena.extract_dag(id), dag);
    }

    #[test]
    fn shared_subterms_stored_once() {
        let mut arena = Arena::new();
        // Two distinct DAGs sharing one position list and one atom.
        let p = Arc::new(vec![PosSet::CPos(0), PosSet::CPos(-2)]);
        let atom = AtomSet::SubStr {
            src: NodeId(0),
            p1: Arc::clone(&p),
            p2: Arc::clone(&p),
        };
        for target in [1u32, 2u32] {
            let mut edges = BTreeMap::new();
            edges.insert((0u32, target), vec![atom.clone()]);
            arena.intern_dag(&Dag {
                num_nodes: target + 1,
                source: 0,
                target,
                edges,
            });
        }
        assert_eq!(arena.dags.len(), 2);
        assert_eq!(arena.atoms.len(), 1, "shared atom stored once");
        assert_eq!(arena.pos_lists.len(), 1, "shared boundary list stored once");
        let stats = arena.stats();
        assert!(stats.hits() > 0);
        assert!(stats.dedup_ratio() > 1.0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn ids_are_stable_across_later_interning() {
        let mut arena = Arena::new();
        let a = arena.intern_dag(&small_dag("a", 0));
        let snapshot = arena.extract_dag(a);
        for i in 0..100u32 {
            arena.intern_dag(&small_dag(&format!("fill{i}"), i));
        }
        assert_eq!(arena.extract_dag(a), snapshot, "ids never rebind");
    }
}
