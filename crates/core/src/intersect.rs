//! `Intersect_u`: intersecting two `Du` structures (§5.3).
//!
//! The procedure is the union of the `Intersect_t` and `Intersect_s` rules
//! plus the four bridging rules of the paper:
//!
//! * top-level DAGs intersect like automata (`Dag × Dag`), with atom source
//!   handles intersected by *lookup-node pairing*;
//! * node pairs intersect their generalized lookups (`Var`/`Var` by index,
//!   `Select`/`Select` by column+table, conditions by candidate key);
//! * predicate DAGs (`C = ẽ_s`) intersect recursively with the same node
//!   pairing, closing the mutual recursion.
//!
//! Pairing is lazy (only pairs referenced from the intersected top DAG or
//! some predicate DAG are created) and the result is pruned for
//! productivity, which is where pairs whose only derivations are infinite
//! disappear.

use std::sync::Arc;

use sst_syntactic::{intersect_dags_memo, intersect_dags_memo_unpruned, Dag, PosMemo};
use sst_tables::IntMap;

use crate::dstruct::{GenCondU, GenLookupU, GenPredU, NodeId, SemDStruct, SemNode};
use crate::CancelToken;

/// Intersects two `Du` structures. The result's `top` is `None` when no
/// common program survives.
///
/// Three optimizations prune the §5.3 edge product, each invisible after
/// the final productivity prune (pinned against
/// [`intersect_du_unpruned`], the naive oracle, by the property tests):
///
/// * the DAG product walks forward from the source pair: an edge pair
///   whose source pair no nonempty atom product has reached skips its
///   O(atoms²) expansion, and never pairs a lookup node;
/// * node pairs where either side's program set is empty are never
///   created — they can only ever be unproductive;
/// * nested predicate-DAG intersections are memoized on the `Arc`
///   identity of the operand DAGs, which generation shares per repeated
///   key value — one row pair's predicate work serves every row pair
///   carrying the same values.
pub fn intersect_du(a: &SemDStruct, b: &SemDStruct) -> SemDStruct {
    intersect_du_impl(a, b, Product::Pruned, &CancelToken::default())
}

/// The unpruned, unmemoized `Intersect_u`: every edge pair expands its
/// atom products and every referenced node pair is materialized, exactly
/// as the pre-cache implementation did. Kept as the correctness oracle for
/// the differential property tests; counts, sizes and ranking must match
/// [`intersect_du`] bit for bit.
pub fn intersect_du_unpruned(a: &SemDStruct, b: &SemDStruct) -> SemDStruct {
    intersect_du_impl(a, b, Product::Oracle, &CancelToken::default())
}

/// Which product runs: [`intersect_du`]'s three optimizations together,
/// or none of them ([`intersect_du_unpruned`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Product {
    Pruned,
    Oracle,
}

/// The one `Intersect_u` worker, under a cooperative [`CancelToken`]
/// checked once per node pair and once per edge of the left operand in
/// every DAG product. When the token fires mid-intersection the return
/// value is an *empty* structure that the caller must discard after
/// checking the token — cancellation is a control signal, not a result.
/// An un-fired token changes nothing.
pub(crate) fn intersect_du_impl(
    a: &SemDStruct,
    b: &SemDStruct,
    product: Product,
    cancel: &CancelToken,
) -> SemDStruct {
    let (Some(ta), Some(tb)) = (&a.top, &b.top) else {
        return SemDStruct::default();
    };
    let mut memo: IntMap<(NodeId, NodeId), NodeId> = IntMap::default();
    memo.reserve(a.len().min(b.len()) * 2);
    // One position-intersection memo for the whole session: the top DAG and
    // every nested predicate DAG share position vectors from the same
    // generation caches, and `a`/`b` outlive the session, keeping the
    // identity keys valid.
    let pos_memo = PosMemo::new();
    let mut ctx = Ctx {
        a,
        b,
        pruned: product == Product::Pruned,
        out_nodes: Vec::new(),
        memo,
        dag_memo: IntMap::default(),
        pos_memo: &pos_memo,
        cancel,
    };
    let top = ctx.intersect_top(ta, tb);
    if cancel.is_cancelled() {
        // The product was abandoned mid-flight; hand back an empty
        // structure for the caller to discard.
        return SemDStruct::default();
    }
    let mut out = SemDStruct {
        nodes: ctx.out_nodes,
        top,
    };
    if !out.prune() {
        out.top = None;
    }
    out
}

/// Memo entry for nested predicate-DAG intersections: the two pinned
/// operand `Arc`s (their addresses are the key, so they must stay alive)
/// plus the cached result.
type NestedDagEntry = (Arc<Dag<NodeId>>, Arc<Dag<NodeId>>, Option<Arc<Dag<NodeId>>>);

struct Ctx<'a> {
    a: &'a SemDStruct,
    b: &'a SemDStruct,
    /// Whether [`intersect_du`]'s optimizations run.
    pruned: bool,
    out_nodes: Vec<SemNode>,
    memo: IntMap<(NodeId, NodeId), NodeId>,
    dag_memo: IntMap<(usize, usize), NestedDagEntry>,
    pos_memo: &'a PosMemo,
    /// Cooperative cancellation, checked once per source pair (the
    /// per-node-pair granularity of the §5.3 recursion) and once per edge
    /// of the left operand in every DAG product, so products over
    /// constant-only edges stop too. A fired token makes every remaining
    /// pairing and product refuse; the (invalid) partial result is
    /// discarded by the impl's final check.
    cancel: &'a CancelToken,
}

impl Ctx<'_> {
    /// Source-handle intersection for the DAG product: pairs the two
    /// lookup nodes, short-circuiting pairs that cannot be productive
    /// (either side has no generalized program) so their recursive
    /// intersection work never happens.
    fn pair_src(&mut self, na: NodeId, nb: NodeId) -> Option<NodeId> {
        if self.cancel.is_cancelled() {
            return None;
        }
        if self.pruned && (self.a.node(na).progs.is_empty() || self.b.node(nb).progs.is_empty()) {
            return None;
        }
        Some(self.pair(na, nb))
    }

    fn intersect_top(
        &mut self,
        ta: &Arc<Dag<NodeId>>,
        tb: &Arc<Dag<NodeId>>,
    ) -> Option<Arc<Dag<NodeId>>> {
        self.intersect_dag_pair(ta, tb, false)
    }

    /// Intersects two (possibly shared) DAGs with lookup-node pairing.
    /// With `memoize` (nested predicate DAGs), the result is cached on the
    /// operands' `Arc` identity: generation hands every repeated key value
    /// the same allocation, and re-intersecting identical operands only
    /// replays `pair` memo hits, so serving the cache is exact.
    fn intersect_dag_pair(
        &mut self,
        da: &Arc<Dag<NodeId>>,
        db: &Arc<Dag<NodeId>>,
        memoize: bool,
    ) -> Option<Arc<Dag<NodeId>>> {
        let memoize = memoize && self.pruned;
        let key = (Arc::as_ptr(da) as usize, Arc::as_ptr(db) as usize);
        if memoize {
            if let Some((_, _, hit)) = self.dag_memo.get(&key) {
                return hit.clone();
            }
        }
        let (pos_memo, cancel) = (self.pos_memo, self.cancel);
        let cancelled = || cancel.is_cancelled();
        let out = if self.pruned {
            intersect_dags_memo(
                &**da,
                &**db,
                &mut |x: &NodeId, y: &NodeId| self.pair_src(*x, *y),
                pos_memo,
                &cancelled,
            )
        } else {
            intersect_dags_memo_unpruned(
                &**da,
                &**db,
                &mut |x: &NodeId, y: &NodeId| self.pair_src(*x, *y),
                pos_memo,
                &cancelled,
            )
        }
        .map(Arc::new);
        if memoize {
            self.dag_memo
                .insert(key, (Arc::clone(da), Arc::clone(db), out.clone()));
        }
        out
    }

    fn pair(&mut self, na: NodeId, nb: NodeId) -> NodeId {
        if let Some(&id) = self.memo.get(&(na, nb)) {
            return id;
        }
        let id = NodeId(self.out_nodes.len() as u32);
        let (a, b) = (self.a, self.b);
        let mut vals = a.node(na).vals.clone();
        vals.extend(b.node(nb).vals.iter().copied());
        self.out_nodes.push(SemNode {
            vals,
            progs: Vec::new(),
        });
        self.memo.insert((na, nb), id);

        // `a`/`b` are shared borrows independent of `self`: iterate the
        // program lists (and their nested DAGs) in place — the seed deep-
        // cloned both lists for every created pair.
        let mut progs: Vec<GenLookupU> = Vec::new();
        for ga in &a.node(na).progs {
            for gb in &b.node(nb).progs {
                if let Some(g) = self.intersect_prog(ga, gb) {
                    progs.push(g);
                }
            }
        }
        self.out_nodes[id.0 as usize].progs = progs;
        id
    }

    fn intersect_prog(&mut self, ga: &GenLookupU, gb: &GenLookupU) -> Option<GenLookupU> {
        match (ga, gb) {
            (GenLookupU::Var(i), GenLookupU::Var(j)) if i == j => Some(GenLookupU::Var(*i)),
            (
                GenLookupU::Select {
                    col: c1,
                    table: t1,
                    conds: conds1,
                },
                GenLookupU::Select {
                    col: c2,
                    table: t2,
                    conds: conds2,
                },
            ) if c1 == c2 && t1 == t2 => {
                let mut conds = Vec::new();
                for x in conds1.iter() {
                    let Some(y) = conds2.iter().find(|y| y.key == x.key) else {
                        continue;
                    };
                    if let Some(c) = self.intersect_cond(x, y) {
                        conds.push(c);
                    }
                }
                if conds.is_empty() {
                    None
                } else {
                    Some(GenLookupU::Select {
                        col: *c1,
                        table: *t1,
                        conds: Arc::new(conds),
                    })
                }
            }
            _ => None,
        }
    }

    fn intersect_cond(&mut self, x: &GenCondU, y: &GenCondU) -> Option<GenCondU> {
        if x.preds.len() != y.preds.len() {
            return None;
        }
        let mut preds = Vec::with_capacity(x.preds.len());
        for (p, q) in x.preds.iter().zip(&y.preds) {
            if p.col != q.col {
                return None;
            }
            let dag = self.intersect_dag_pair(&p.dag, &q.dag, true)?;
            preds.push(GenPredU { col: p.col, dag });
        }
        Some(GenCondU { key: x.key, preds })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::eval::eval_sem;
    use crate::generate::tests::{comp_db, gen_t, join_db};
    use crate::generate::{generate_str_u, LuOptions};
    use crate::language::{LookupU, SemExpr};
    use crate::rank::LuRankWeights;
    use sst_syntactic::{AtomSet, AtomicExpr};
    use sst_tables::Database;

    fn gen(db: &Database, inputs: &[&str], output: &str) -> SemDStruct {
        generate_str_u(db, inputs, output, &LuOptions::default())
    }

    #[test]
    fn intersection_keeps_common_lookup_program() {
        let db = comp_db();
        let d1 = gen(&db, &["c2"], "Google");
        let d2 = gen(&db, &["c5"], "IBM");
        let inter = intersect_du(&d1, &d2);
        assert!(inter.has_programs());
        let prog = LuRankWeights::default().best(&inter, 2).unwrap();
        let tokens = LuOptions::default().syntactic.token_set;
        assert_eq!(
            eval_sem(&prog.expr, &db, &["c2"], &tokens).as_deref(),
            Some("Google")
        );
        assert_eq!(
            eval_sem(&prog.expr, &db, &["c6"], &tokens).as_deref(),
            Some("Xerox")
        );
    }

    #[test]
    fn intersection_of_incompatible_examples_dies() {
        let db = comp_db();
        // No program can map c2 -> Google and c2 -> Apple, in `Lu` or in
        // its `Lt` fragment.
        for gen in [gen, gen_t] {
            let d1 = gen(&db, &["c2"], "Google");
            let d2 = gen(&db, &["c2"], "Apple");
            assert!(!intersect_du(&d1, &d2).has_programs());
        }
    }

    #[test]
    fn const_program_survives_when_outputs_equal() {
        let db = comp_db();
        let d1 = gen(&db, &["c2"], "same");
        let d2 = gen(&db, &["c5"], "same");
        let inter = intersect_du(&d1, &d2);
        assert!(inter.has_programs());
        let prog = LuRankWeights::default().best(&inter, 2).unwrap();
        let tokens = LuOptions::default().syntactic.token_set;
        assert_eq!(
            eval_sem(&prog.expr, &db, &["c1"], &tokens).as_deref(),
            Some("same")
        );
    }

    #[test]
    fn intersection_size_does_not_blow_up() {
        // Fig. 12(b)'s claim: intersection typically shrinks the structure.
        let db = comp_db();
        let d1 = gen(&db, &["c4 c3 c1"], "Facebook Apple Microsoft");
        let d2 = gen(&db, &["c2 c5 c6"], "Google IBM Xerox");
        let s1 = d1.size();
        let inter = intersect_du(&d1, &d2);
        assert!(inter.has_programs());
        let si = inter.size();
        assert!(
            si < s1 * s1,
            "quadratic blowup: {si} vs first-example size {s1}"
        );
    }

    #[test]
    fn missing_top_on_either_side_gives_empty() {
        let db = comp_db();
        let d1 = gen(&db, &["c2"], "Google");
        let empty = SemDStruct::default();
        assert!(!intersect_du(&d1, &empty).has_programs());
        assert!(!intersect_du(&empty, &d1).has_programs());
        // `Lt`: an unreachable output has no top DAG.
        let (lt, unreachable) = (gen_t(&db, &["c2"], "Google"), gen_t(&db, &["c2"], "Amazon"));
        assert!(!intersect_du(&lt, &unreachable).has_programs());
        assert!(!intersect_du(&unreachable, &lt).has_programs());
    }

    #[test]
    fn three_example_chain_intersection() {
        let db = comp_db();
        let d1 = gen(&db, &["c2"], "Google");
        let d2 = gen(&db, &["c5"], "IBM");
        let d3 = gen(&db, &["c3"], "Apple");
        let inter = intersect_du(&intersect_du(&d1, &d2), &d3);
        assert!(inter.has_programs());
        let prog = LuRankWeights::default().best(&inter, 2).unwrap();
        let tokens = LuOptions::default().syntactic.token_set;
        assert_eq!(
            eval_sem(&prog.expr, &db, &["c1"], &tokens).as_deref(),
            Some("Microsoft")
        );
    }

    fn programs(d: &SemDStruct, depth: usize) -> HashSet<SemExpr> {
        d.enumerate(depth, 100_000).into_iter().collect()
    }

    /// Definition 2 (soundness + completeness of `Intersect_t`), checked
    /// extensionally on a bounded depth: the set of expressions in the
    /// intersection equals the set-intersection of the inputs' expressions.
    /// Each survivor maps both inputs right, and no predicate keeps the
    /// two examples' differing `Id` constants.
    #[test]
    fn lt_intersection_equals_set_intersection() {
        let db = comp_db();
        let d1 = gen_t(&db, &["c2"], "Google");
        let d2 = gen_t(&db, &["c1"], "Microsoft");
        let inter = intersect_du(&d1, &d2);
        let both: HashSet<SemExpr> = programs(&d1, 2)
            .intersection(&programs(&d2, 2))
            .cloned()
            .collect();
        assert!(!both.is_empty());
        assert_eq!(programs(&inter, 2), both);
        let tokens = LuOptions::default().syntactic.token_set;
        for e in &both {
            assert_eq!(
                eval_sem(e, &db, &["c2"], &tokens).as_deref(),
                Some("Google")
            );
            assert_eq!(
                eval_sem(e, &db, &["c1"], &tokens).as_deref(),
                Some("Microsoft")
            );
        }
        let pred_atoms = inter
            .nodes
            .iter()
            .flat_map(|n| &n.progs)
            .filter_map(|p| match p {
                GenLookupU::Select { conds, .. } => Some(conds),
                GenLookupU::Var(_) => None,
            })
            .flat_map(|conds| conds.iter().flat_map(|c| &c.preds))
            .flat_map(|pred| pred.dag.edges.values().flatten());
        for atom in pred_atoms {
            assert!(!matches!(atom, AtomSet::ConstStr(_)), "{atom:?} survived");
        }
    }

    #[test]
    fn lt_join_intersection_converges_to_join_program() {
        // Example 2: every program left by two examples generalizes to a
        // third customer, and the ranked one to all of them.
        let db = join_db();
        let d1 = gen_t(&db, &["Peter Shaw"], "110");
        let d2 = gen_t(&db, &["Gary Lamb"], "225");
        let inter = intersect_du(&d1, &d2);
        let exprs = inter.enumerate(2, 500);
        assert!(!exprs.is_empty());
        let tokens = LuOptions::default().syntactic.token_set;
        for e in &exprs {
            assert_eq!(
                eval_sem(e, &db, &["Mike Henry"], &tokens).as_deref(),
                Some("2015"),
                "non-generalizing program survived: {}",
                crate::display_sem(e, &db)
            );
        }
        let top = LuRankWeights::default().best(&inter, db.len()).unwrap();
        assert_eq!(
            eval_sem(&top.expr, &db, &["Sean Riley"], &tokens).as_deref(),
            Some("495")
        );
    }

    #[test]
    fn lt_disjoint_examples_empty_intersection() {
        let db = comp_db();
        let d1 = gen_t(&db, &["c2"], "Google");
        // Identity on an unrelated string: only program is Var, which does
        // not intersect with the Select-only structure.
        let d2 = gen_t(&db, &["zz"], "zz");
        assert!(!intersect_du(&d1, &d2).has_programs());
    }

    #[test]
    fn lt_var_programs_intersect_by_index() {
        let db = comp_db();
        let d1 = gen_t(&db, &["q", "c2"], "q");
        let d2 = gen_t(&db, &["r", "c9"], "r");
        let inter = intersect_du(&d1, &d2);
        assert_eq!(
            inter.enumerate(1, 10),
            vec![SemExpr::atom(AtomicExpr::Whole(LookupU::Var(0)))]
        );
    }

    #[test]
    fn lt_self_intersection_preserves_program_set() {
        let db = comp_db();
        let d = gen_t(&db, &["c2"], "Google");
        assert_eq!(programs(&intersect_du(&d, &d), 2), programs(&d, 2));
    }
}
