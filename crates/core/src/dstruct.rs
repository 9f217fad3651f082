//! The data structure `Du` for sets of `Lu` expressions (§5.2).
//!
//! `Du` glues the two succinct representations together:
//!
//! * a set of *lookup nodes* (`η̃`, shared with the input variables), each
//!   carrying generalized lookup programs whose predicate right-hand sides
//!   are **nested DAGs** over the known strings (`p̃_t := C = ẽ_s`), and
//! * a *top-level DAG* over the output string whose edge atoms reference
//!   lookup nodes (`f̃_s := ConstStr(s) | ẽ_t | SubStr(ẽ_t, p̃_1, p̃_2)`).
//!
//! Following the paper, a generalized predicate's constant alternative
//! (`C = s` of `Lt`) is *subsumed* by the nested DAG — the DAG always
//! contains the all-constant program — so predicates store only the DAG.
//! Counting therefore never double-counts, and constant conflicts die in
//! DAG intersection exactly as Fig. 5(b) prescribes.
//!
//! Like `Dt`, the node graph can be cyclic; all consumers are depth-bounded
//! DPs or fixpoints (see [`SemDStruct::prune`]).

use std::sync::Arc;

use sst_counting::BigUint;
use sst_syntactic::{AtomSet, Dag};
use sst_tables::{ColId, IntMap, Symbol, TableId};

use crate::language::VarId;

/// Handle of a lookup node (`η`) in a [`SemDStruct`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Generalized predicate: the key column plus the DAG of all syntactic
/// expressions (over known strings) producing the key value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenPredU {
    /// Constrained column.
    pub col: ColId,
    /// All `e_s` expressions producing the value of `col` in the selected
    /// row; sources are lookup-node handles. `Arc`-shared: repeated key
    /// values within a reachability step (and `DagCache` hits across
    /// steps) reference one DAG allocation, and intersection's nested-DAG
    /// memo keys on exactly this pointer identity.
    pub dag: Arc<Dag<NodeId>>,
}

/// Generalized condition for one candidate key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenCondU {
    /// Candidate-key index within the table's key list (alignment for
    /// intersection).
    pub key: usize,
    /// One predicate per key column, in key order.
    pub preds: Vec<GenPredU>,
}

/// A generalized lookup program of a node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GenLookupU {
    /// The input variable `v_i`.
    Var(VarId),
    /// Generalized `Select` with one condition per candidate key.
    Select {
        /// Projected column.
        col: ColId,
        /// Table identifier.
        table: TableId,
        /// Conditions (at least one). Shared: one allocation per activated
        /// row, referenced by every attached column.
        conds: Arc<Vec<GenCondU>>,
    },
}

/// One lookup node: a reachable string and its generalized programs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SemNode {
    /// The node's interned value under each example's input state.
    pub vals: Vec<Symbol>,
    /// Generalized lookup programs (`Progs[η]`). Deliberately a `Vec`, not
    /// a hashed set: `Intersect_u` has always pushed every intersected
    /// program without deduplication, and the counting metrics are pinned
    /// to that behavior — generation deduplicates at insert through its own
    /// hash index instead.
    pub progs: Vec<GenLookupU>,
}

/// The `Du` data structure: lookup nodes plus the top-level output DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SemDStruct {
    /// Lookup nodes (`η̃`), including one per distinct input value.
    pub nodes: Vec<SemNode>,
    /// DAG of all programs generating the output; `None` when the
    /// intersection across examples became empty. `Arc`-shared so a
    /// `DagCache` hit and the structure it produced alias one allocation;
    /// mutation (pruning) goes through copy-on-write.
    pub top: Option<Arc<Dag<NodeId>>>,
}

impl SemDStruct {
    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &SemNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of lookup nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True iff at least one consistent program is represented.
    pub fn has_programs(&self) -> bool {
        self.top.as_ref().is_some_and(|top| top.is_nonempty())
    }

    /// Exact number of programs with lookup depth ≤ `depth` (Figure 11(a)).
    pub fn count(&self, depth: usize) -> BigUint {
        let Some(top) = &self.top else {
            return BigUint::zero();
        };
        let mut memo: IntMap<(u32, usize), BigUint> = IntMap::default();
        memo.reserve(self.nodes.len().saturating_mul(depth + 1));
        top.count_programs(&mut |n: &NodeId| self.count_node(*n, depth, &mut memo))
    }

    /// Number of depth-bounded lookup programs at one node.
    fn count_node(
        &self,
        node: NodeId,
        depth: usize,
        memo: &mut IntMap<(u32, usize), BigUint>,
    ) -> BigUint {
        if let Some(c) = memo.get(&(node.0, depth)) {
            return c.clone();
        }
        // Seed to cut accidental re-entry on the same key.
        memo.insert((node.0, depth), BigUint::zero());
        let mut total = BigUint::zero();
        for prog in &self.node(node).progs {
            match prog {
                GenLookupU::Var(_) => total += 1u64,
                GenLookupU::Select { conds, .. } => {
                    if depth == 0 {
                        continue;
                    }
                    for cond in conds.iter() {
                        let mut product = BigUint::one();
                        for pred in &cond.preds {
                            let c = pred.dag.count_programs(&mut |n: &NodeId| {
                                self.count_node(*n, depth - 1, memo)
                            });
                            product = product * c;
                            if product.is_zero() {
                                break;
                            }
                        }
                        total += &product;
                    }
                }
            }
        }
        memo.insert((node.0, depth), total.clone());
        total
    }

    /// Size in terminal symbols (Figure 11(b)): node programs plus the
    /// top-level DAG; every node reference, token, integer, column, table
    /// and constant counts one.
    pub fn size(&self) -> usize {
        let node_sizes: usize = self
            .nodes
            .iter()
            .flat_map(|n| n.progs.iter())
            .map(|p| match p {
                GenLookupU::Var(_) => 1,
                GenLookupU::Select { conds, .. } => {
                    2 + conds
                        .iter()
                        .flat_map(|c| c.preds.iter())
                        .map(|pred| 1 + pred.dag.size(&mut |_| 1))
                        .sum::<usize>()
                }
            })
            .sum();
        let top_size = self.top.as_ref().map(|d| d.size(&mut |_| 1)).unwrap_or(0);
        node_sizes + top_size
    }

    /// Productivity pruning + garbage collection.
    ///
    /// A node is *productive* when some finite lookup program derives from
    /// it: a variable, or a `Select` with a condition whose every predicate
    /// DAG has a source→target path using only constants and productive
    /// nodes. After the fixpoint, dead program options and dead DAG atoms
    /// are removed, and nodes unreferenced by the target DAG are dropped.
    /// Returns `false` when no program survives at the top.
    pub fn prune(&mut self) -> bool {
        let n = self.nodes.len();
        let mut productive = vec![false; n];
        loop {
            let mut changed = false;
            for i in 0..n {
                if productive[i] {
                    continue;
                }
                let ok = self.nodes[i].progs.iter().any(|p| match p {
                    GenLookupU::Var(_) => true,
                    GenLookupU::Select { conds, .. } => conds.iter().any(|c| {
                        !c.preds.is_empty()
                            && c.preds
                                .iter()
                                .all(|pred| dag_derivable(&pred.dag, &productive))
                    }),
                });
                if ok {
                    productive[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Rewrite node programs: filter DAG atoms, drop dead conditions.
        // Predicate DAGs are `Arc`-shared (repeated key values, memoized
        // intersections), so filtering+pruning is memoized per pointer: one
        // distinct DAG is rewritten once and every referent re-shares the
        // result. Entries pin their key `Arc`, so a freed allocation can
        // never be confused with a later one at the same address.
        let mut dag_memo: PrunedDagMemo = IntMap::default();
        for i in 0..n {
            let progs = std::mem::take(&mut self.nodes[i].progs);
            self.nodes[i].progs = progs
                .into_iter()
                .filter_map(|p| match p {
                    GenLookupU::Var(v) => Some(GenLookupU::Var(v)),
                    GenLookupU::Select { col, table, conds } => {
                        let conds = Arc::try_unwrap(conds).unwrap_or_else(|a| (*a).clone());
                        let conds: Vec<GenCondU> = conds
                            .into_iter()
                            .filter_map(|c| {
                                let original = c.preds.len();
                                let preds: Vec<GenPredU> = c
                                    .preds
                                    .into_iter()
                                    .filter_map(|pred| {
                                        let dag =
                                            pruned_shared(&mut dag_memo, &pred.dag, &productive)?;
                                        Some(GenPredU { col: pred.col, dag })
                                    })
                                    .collect();
                                // All key columns must survive: a partial
                                // key no longer pins a unique row.
                                (preds.len() == original && original > 0)
                                    .then_some(GenCondU { key: c.key, preds })
                            })
                            .collect();
                        (!conds.is_empty()).then_some(GenLookupU::Select {
                            col,
                            table,
                            conds: Arc::new(conds),
                        })
                    }
                })
                .collect();
        }
        drop(dag_memo);

        // Top DAG: drop atoms referencing unproductive nodes. Copy-on-write
        // keeps any cache-shared original intact.
        let Some(top) = &mut self.top else {
            return false;
        };
        let top_mut = Arc::make_mut(top);
        filter_dag(top_mut, &productive);
        if !top_mut.prune() {
            self.top = None;
            return false;
        }

        // GC: keep nodes referenced (transitively) from the top DAG.
        let mut keep = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for atoms in self.top.as_ref().unwrap().edges.values() {
            for atom in atoms {
                collect_atom_nodes(atom, &mut |id| {
                    if !keep[id.0 as usize] {
                        keep[id.0 as usize] = true;
                        stack.push(id.0 as usize);
                    }
                });
            }
        }
        while let Some(i) = stack.pop() {
            for p in &self.nodes[i].progs {
                if let GenLookupU::Select { conds, .. } = p {
                    for pred in conds.iter().flat_map(|c| c.preds.iter()) {
                        for atoms in pred.dag.edges.values() {
                            for atom in atoms {
                                collect_atom_nodes(atom, &mut |id| {
                                    if !keep[id.0 as usize] {
                                        keep[id.0 as usize] = true;
                                        stack.push(id.0 as usize);
                                    }
                                });
                            }
                        }
                    }
                }
            }
        }
        let mut remap = vec![u32::MAX; n];
        let mut kept: Vec<SemNode> = Vec::new();
        for i in 0..n {
            if keep[i] {
                remap[i] = kept.len() as u32;
                kept.push(std::mem::take(&mut self.nodes[i]));
            }
        }
        let mut remap_memo: RemappedDagMemo = IntMap::default();
        for node in &mut kept {
            for p in &mut node.progs {
                if let GenLookupU::Select { conds, .. } = p {
                    // Clone-on-write: shared condition lists get one copy;
                    // shared DAGs are remapped once per pointer and
                    // re-shared.
                    for pred in Arc::make_mut(conds)
                        .iter_mut()
                        .flat_map(|c| c.preds.iter_mut())
                    {
                        pred.dag = remapped_shared(&mut remap_memo, &pred.dag, &remap);
                    }
                }
            }
        }
        remap_dag(Arc::make_mut(self.top.as_mut().unwrap()), &remap);
        self.nodes = kept;
        true
    }
}

/// Memo for [`pruned_shared`]: `Arc` address → (pinned key, rewritten DAG).
type PrunedDagMemo = IntMap<usize, (Arc<Dag<NodeId>>, Option<Arc<Dag<NodeId>>>)>;

/// Filters and prunes one (possibly shared) predicate DAG, once per
/// distinct allocation. `None` when no program survives.
fn pruned_shared(
    memo: &mut PrunedDagMemo,
    dag: &Arc<Dag<NodeId>>,
    productive: &[bool],
) -> Option<Arc<Dag<NodeId>>> {
    let key = Arc::as_ptr(dag) as usize;
    if let Some((_, hit)) = memo.get(&key) {
        return hit.clone();
    }
    let mut rewritten = (**dag).clone();
    filter_dag(&mut rewritten, productive);
    let out = rewritten.prune().then(|| Arc::new(rewritten));
    memo.insert(key, (Arc::clone(dag), out.clone()));
    out
}

/// Memo for [`remapped_shared`]: `Arc` address → (pinned key, remapped DAG).
type RemappedDagMemo = IntMap<usize, (Arc<Dag<NodeId>>, Arc<Dag<NodeId>>)>;

/// Remaps one (possibly shared) predicate DAG's node references, once per
/// distinct allocation.
fn remapped_shared(
    memo: &mut RemappedDagMemo,
    dag: &Arc<Dag<NodeId>>,
    remap: &[u32],
) -> Arc<Dag<NodeId>> {
    let key = Arc::as_ptr(dag) as usize;
    if let Some((_, hit)) = memo.get(&key) {
        return Arc::clone(hit);
    }
    let mut rewritten = (**dag).clone();
    remap_dag(&mut rewritten, remap);
    let out = Arc::new(rewritten);
    memo.insert(key, (Arc::clone(dag), Arc::clone(&out)));
    out
}

/// True iff the DAG has a source→target path whose every edge offers an
/// atom that is a constant or references a productive node.
fn dag_derivable(dag: &Dag<NodeId>, productive: &[bool]) -> bool {
    let mut reach = vec![false; dag.num_nodes as usize];
    reach[dag.target as usize] = true;
    for v in (0..dag.num_nodes).rev() {
        if v == dag.target {
            continue;
        }
        reach[v as usize] = dag.outgoing(v).any(|(&(_, next), atoms)| {
            reach[next as usize]
                && atoms.iter().any(|a| match a {
                    AtomSet::ConstStr(_) => true,
                    AtomSet::Whole(nid) | AtomSet::SubStr { src: nid, .. } => {
                        productive[nid.0 as usize]
                    }
                })
        });
    }
    reach[dag.source as usize]
}

/// Removes atoms referencing unproductive nodes from every edge.
fn filter_dag(dag: &mut Dag<NodeId>, productive: &[bool]) {
    for atoms in dag.edges.values_mut() {
        atoms.retain(|a| match a {
            AtomSet::ConstStr(_) => true,
            AtomSet::Whole(nid) | AtomSet::SubStr { src: nid, .. } => productive[nid.0 as usize],
        });
    }
    dag.edges.retain(|_, atoms| !atoms.is_empty());
}

fn remap_dag(dag: &mut Dag<NodeId>, remap: &[u32]) {
    for atoms in dag.edges.values_mut() {
        for atom in atoms {
            match atom {
                AtomSet::ConstStr(_) => {}
                AtomSet::Whole(nid) | AtomSet::SubStr { src: nid, .. } => {
                    *nid = NodeId(remap[nid.0 as usize]);
                }
            }
        }
    }
}

fn collect_atom_nodes(atom: &AtomSet<NodeId>, visit: &mut impl FnMut(NodeId)) {
    match atom {
        AtomSet::ConstStr(_) => {}
        AtomSet::Whole(nid) | AtomSet::SubStr { src: nid, .. } => visit(*nid),
    }
}

/// Exhaustive enumeration, a testing aid (exponential in general).
#[cfg(test)]
impl SemDStruct {
    /// Up to `limit` concrete programs of lookup depth ≤ `depth`, each
    /// once (so on a small structure the length equals [`Self::count`]).
    pub(crate) fn enumerate(&self, depth: usize, limit: usize) -> Vec<crate::SemExpr> {
        self.top
            .as_ref()
            .map_or_else(Vec::new, |top| self.enumerate_dag(top, depth, limit))
    }

    fn enumerate_dag(&self, dag: &Dag<NodeId>, depth: usize, limit: usize) -> Vec<crate::SemExpr> {
        use sst_syntactic::{AtomicExpr, StringExpr};
        let mut out = Vec::new();
        for skeleton in dag.enumerate_programs(limit) {
            let mut partial: Vec<Vec<crate::SemAtom>> = vec![Vec::new()];
            for atom in skeleton.atoms {
                let options: Vec<crate::SemAtom> = match &atom {
                    AtomicExpr::ConstStr(s) => vec![AtomicExpr::ConstStr(s.clone())],
                    AtomicExpr::Whole(n) | AtomicExpr::SubStr { src: n, .. } => self
                        .enumerate_node(*n, depth, limit)
                        .into_iter()
                        .map(|l| atom.clone().map_src(&mut |_| l.clone()))
                        .collect(),
                };
                partial = cross(&partial, &options, limit);
            }
            out.extend(partial.into_iter().map(|atoms| StringExpr { atoms }));
        }
        out.truncate(limit);
        out
    }

    fn enumerate_node(&self, node: NodeId, depth: usize, limit: usize) -> Vec<crate::LookupU> {
        use crate::{LookupU, PredRhsU, PredicateU};
        let mut out = Vec::new();
        for prog in &self.node(node).progs {
            match prog {
                GenLookupU::Var(v) => out.push(LookupU::Var(*v)),
                GenLookupU::Select { .. } if depth == 0 => {}
                GenLookupU::Select { col, table, conds } => {
                    for cond in conds.iter() {
                        let mut partial: Vec<Vec<PredicateU>> = vec![Vec::new()];
                        for pred in &cond.preds {
                            let options: Vec<PredicateU> = self
                                .enumerate_dag(&pred.dag, depth - 1, limit)
                                .into_iter()
                                .map(|e| PredicateU {
                                    col: pred.col,
                                    rhs: PredRhsU::Expr(e),
                                })
                                .collect();
                            partial = cross(&partial, &options, limit);
                        }
                        out.extend(partial.into_iter().map(|cond| LookupU::Select {
                            col: *col,
                            table: *table,
                            cond,
                        }));
                    }
                }
            }
        }
        out.truncate(limit);
        out
    }
}

/// Every prefix extended by every option, at most `limit` results.
#[cfg(test)]
fn cross<T: Clone>(prefixes: &[Vec<T>], options: &[T], limit: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    for prefix in prefixes {
        for option in options {
            if out.len() >= limit {
                return out;
            }
            let mut next = prefix.clone();
            next.push(option.clone());
            out.push(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn const_dag(s: &str) -> Dag<NodeId> {
        let mut edges = BTreeMap::new();
        edges.insert((0u32, 1u32), vec![AtomSet::ConstStr(s.to_string())]);
        Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges,
        }
    }

    fn node_dag(n: u32) -> Dag<NodeId> {
        let mut edges = BTreeMap::new();
        edges.insert((0u32, 1u32), vec![AtomSet::Whole(NodeId(n))]);
        Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges,
        }
    }

    /// The `Lt` predicate `C = {s, η}` as a one-edge DAG.
    fn lt_key(s: &str, node: u32) -> Dag<NodeId> {
        let mut dag = const_dag(s);
        dag.edges
            .get_mut(&(0, 1))
            .unwrap()
            .push(AtomSet::Whole(NodeId(node)));
        dag
    }

    fn select(conds_dags: Vec<Dag<NodeId>>) -> GenLookupU {
        select_in(1, 0, conds_dags)
    }

    fn select_in(col: ColId, table: TableId, conds_dags: Vec<Dag<NodeId>>) -> GenLookupU {
        GenLookupU::Select {
            col,
            table,
            conds: Arc::new(vec![GenCondU {
                key: 0,
                preds: conds_dags
                    .into_iter()
                    .map(|dag| GenPredU {
                        col: 0,
                        dag: Arc::new(dag),
                    })
                    .collect(),
            }]),
        }
    }

    /// A two-node structure: node 0 = input var, node 1 = Select keyed by a
    /// dag that can be the constant "c2" or node 0; top outputs node 1.
    fn simple() -> SemDStruct {
        let mut d = SemDStruct::default();
        d.nodes.push(SemNode {
            vals: vec!["c2".into()],
            progs: vec![GenLookupU::Var(0)],
        });
        d.nodes.push(SemNode {
            vals: vec!["Google".into()],
            progs: vec![select(vec![lt_key("c2", 0)])],
        });
        d.top = Some(Arc::new(node_dag(1)));
        d
    }

    #[test]
    fn count_depth_bounded() {
        let d = simple();
        // depth 0: Select unavailable -> top has no programs.
        assert_eq!(d.count(0).to_u64(), Some(0));
        // depth 1: Select with key = const "c2" or var node: 2 programs.
        assert_eq!(d.count(1).to_u64(), Some(2));
        assert_eq!(d.count(3).to_u64(), Some(2));
        // No top DAG, no programs.
        assert!(SemDStruct::default().count(5).is_zero());
    }

    #[test]
    fn size_includes_nested_dags() {
        let d = simple();
        // Node 0: Var = 1. Node 1: Select = 2 + pred(1 + dag(const 1 + node 1)).
        // Top: Whole = 1.
        assert_eq!(d.size(), 1 + (2 + 1 + 2) + 1);
    }

    #[test]
    fn prune_noop_on_healthy_structure() {
        let mut d = simple();
        assert!(d.prune());
        assert_eq!(d.len(), 2);
        assert_eq!(d.count(1).to_u64(), Some(2));
    }

    #[test]
    fn prune_kills_cyclic_only_nodes() {
        // Node 0's only program selects keyed by node 1; node 1 by node 0.
        let mut d = SemDStruct::default();
        d.nodes.push(SemNode {
            vals: vec!["a".into()],
            progs: vec![select(vec![node_dag(1)])],
        });
        d.nodes.push(SemNode {
            vals: vec!["b".into()],
            progs: vec![select(vec![node_dag(0)])],
        });
        d.top = Some(Arc::new(node_dag(0)));
        assert!(!d.prune());
        assert!(!d.has_programs());
    }

    #[test]
    fn prune_keeps_const_escape_in_cycle() {
        let mut d = SemDStruct::default();
        let mut dag0 = node_dag(1);
        dag0.edges
            .get_mut(&(0, 1))
            .unwrap()
            .push(AtomSet::ConstStr("k".into()));
        d.nodes.push(SemNode {
            vals: vec!["a".into()],
            progs: vec![select(vec![dag0])],
        });
        d.nodes.push(SemNode {
            vals: vec!["b".into()],
            progs: vec![select(vec![node_dag(0)])],
        });
        d.top = Some(Arc::new(node_dag(0)));
        assert!(d.prune());
        // Depth 2: Select(... "k"); the cycle unrolls further at depth 3+.
        assert_eq!(d.count(2).to_u64(), Some(1));
        assert!(d.count(6) > d.count(2));
    }

    #[test]
    fn prune_gc_drops_unreferenced_nodes() {
        let mut d = simple();
        d.nodes.push(SemNode {
            vals: vec!["orphan".into()],
            progs: vec![GenLookupU::Var(7)],
        });
        let before = d.count(1);
        assert!(d.prune());
        assert_eq!(d.len(), 2);
        assert_eq!(d.count(1), before);
    }

    #[test]
    fn prune_without_top_is_false() {
        let mut d = SemDStruct::default();
        d.nodes.push(SemNode {
            vals: vec!["x".into()],
            progs: vec![GenLookupU::Var(0)],
        });
        assert!(!d.prune());
    }

    #[test]
    fn top_const_only_still_has_programs() {
        let mut d = SemDStruct {
            top: Some(Arc::new(const_dag("out"))),
            ..Default::default()
        };
        assert!(d.prune());
        assert_eq!(d.count(0).to_u64(), Some(1));
    }

    /// The paper's Example 3 chain written as `Lt` predicates `C = {s, η}`
    /// (one-edge DAGs `{ConstStr(s), Whole(η)}`): `Progs[η_1] = {v1}`,
    /// `Progs[η_2] = {Select(C2,T1,{C1={s1,η1}})}`, and
    /// `Progs[η_i] = {Select(C2,T_{i-1},{C1={s_{i-1},η_{i-1}}}),
    ///                Select(C3,T_{i-2},{C1={s_{i-2},η_{i-2}}})}`.
    fn chain(m: usize) -> SemDStruct {
        let mut d = SemDStruct::default();
        for i in 0..m {
            d.nodes.push(SemNode {
                vals: vec![Symbol::intern(&format!("s{}", i + 1))],
                progs: Vec::new(),
            });
        }
        d.nodes[0].progs.push(GenLookupU::Var(0));
        let sel = |col: ColId, table: usize, from: usize| {
            let key = lt_key(&format!("s{}", from + 1), from as u32);
            select_in(col, table as TableId, vec![key])
        };
        if m > 1 {
            d.nodes[1].progs.push(sel(1, 0, 0));
        }
        for i in 2..m {
            d.nodes[i].progs.push(sel(1, i - 1, i - 1));
            d.nodes[i].progs.push(sel(2, i - 2, i - 2));
        }
        d.top = Some(Arc::new(node_dag(m as u32 - 1)));
        d
    }

    #[test]
    fn chain_counts_follow_paper_recurrence() {
        // N(1)=1; N(2)=1+N(1) (η₂ has a single Select whose predicate has a
        // const and a node option); N(i)=2+N(i-1)+N(i-2) for the two-Select
        // nodes, matching §4.2.
        let expect = |m: usize| -> u64 {
            let mut n = vec![0u64; m + 1];
            n[1] = 1;
            if m >= 2 {
                n[2] = 1 + n[1];
            }
            for i in 3..=m {
                n[i] = 2 + n[i - 1] + n[i - 2];
            }
            n[m]
        };
        for m in 1..=12 {
            assert_eq!(chain(m).count(m).to_u64(), Some(expect(m)), "chain {m}");
        }
        // The depth bound cuts counts; the target is not a variable.
        let d = chain(5);
        assert_eq!(d.count(0).to_u64(), Some(0));
        assert!(d.count(2) < d.count(5));
    }

    #[test]
    fn chain_count_grows_exponentially_size_linearly() {
        // Theorem 1: the chain of Example 3 represents Θ(φ^m) expressions
        // (Fibonacci-like recurrence) in O(m) space.
        let c9 = chain(9).count(9).to_u64().unwrap();
        let c18 = chain(18).count(18).to_u64().unwrap();
        assert!(c18 as f64 > 50.0 * c9 as f64, "c9={c9}, c18={c18}");
        // Size is exactly linear: Var(1) + first Select(5) + 10 per link,
        // plus the top DAG's Whole(1).
        for m in [4, 9, 18] {
            assert_eq!(chain(m).size(), 10 * m - 13, "size at m={m}");
        }
        // Var(1) + Select(col+table=2, pred col=1, const=1, node=1) + top(1).
        assert_eq!(chain(2).size(), 1 + 5 + 1);
    }

    #[test]
    fn enumerate_matches_count_small() {
        let d = chain(4);
        let total = d.count(4).to_u64().unwrap() as usize;
        let exprs = d.enumerate(4, 1000);
        assert_eq!(exprs.len(), total);
        let distinct: std::collections::HashSet<_> = exprs.iter().collect();
        assert_eq!(distinct.len(), total);
    }

    #[test]
    fn prune_drops_dead_node_refs_keeps_const() {
        // Node 0 has no programs; node 1's key offers the constant "k" or
        // node 0. Pruning keeps the constant and drops the dead reference.
        let mut d = SemDStruct::default();
        d.nodes.push(SemNode {
            vals: vec!["dead".into()],
            progs: Vec::new(),
        });
        d.nodes.push(SemNode {
            vals: vec!["out".into()],
            progs: vec![select(vec![lt_key("k", 0)])],
        });
        d.top = Some(Arc::new(node_dag(1)));
        assert!(d.prune());
        assert_eq!(d.len(), 1);
        let GenLookupU::Select { conds, .. } = &d.nodes[0].progs[0] else {
            panic!("the Select survives");
        };
        assert_eq!(*conds[0].preds[0].dag, const_dag("k"));
    }
}
