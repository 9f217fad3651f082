//! `Intersect_s`: intersecting two DAGs of `Ls` programs.
//!
//! As in §5.3, two DAGs intersect like finite automata: the product
//! construction pairs nodes, and an edge `((a1,a2),(b1,b2))` carries the
//! pairwise intersections of the two edges' atom sets. Source handles are
//! intersected through a caller-supplied callback so the semantic layer can
//! recursively intersect lookup nodes (`Intersect_u`'s fourth rule); plain
//! `Ls` passes variable equality.
//!
//! The product loop expands only edge pairs leaving a node pair already
//! reached from the source pair, the usual forward walk of an automaton
//! product. [`Dag::prune`] then drops pairs that cannot reach the target
//! pair, and the survivors are renumbered in lexicographic order, which
//! preserves the forward-edge invariant of [`Dag`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

use sst_tables::{IntMap, ProgSet};

use crate::dag::{AtomSet, Dag, PosSet};
use crate::language::RegexSeq;

/// Memo for position-list intersections, keyed by the *identity* of the two
/// input `Arc`s. Generation shares one position vector per (source,
/// boundary), so the same pair is intersected over and over across atom
/// pairs — and, through `Intersect_u`'s nested predicate DAGs, across whole
/// DAG intersections.
///
/// Identity keying is sound because position vectors are immutable once
/// created, and each entry stores clones of its two key `Arc`s: as long as
/// the memo lives, the keyed addresses cannot be freed and reused, so a
/// memo may even be shared across intersection sessions safely.
#[derive(Debug, Default)]
pub struct PosMemo {
    map: RefCell<PosMemoMap>,
}

/// Entry: the two pinned inputs plus the cached intersection.
type PosMemoEntry = (Arc<Vec<PosSet>>, Arc<Vec<PosSet>>, Option<Arc<Vec<PosSet>>>);
type PosMemoMap = IntMap<(usize, usize), PosMemoEntry>;

impl PosMemo {
    /// An empty memo.
    pub fn new() -> Self {
        PosMemo::default()
    }

    /// The memoized intersection of two position lists; `None` when empty.
    fn intersect_pos(
        &self,
        a: &Arc<Vec<PosSet>>,
        b: &Arc<Vec<PosSet>>,
    ) -> Option<Arc<Vec<PosSet>>> {
        let key = (Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize);
        if let Some((_, _, hit)) = self.map.borrow().get(&key) {
            return hit.clone();
        }
        let v = intersect_pos_lists(a, b);
        let out = if v.is_empty() {
            None
        } else {
            Some(Arc::new(v))
        };
        self.map
            .borrow_mut()
            .insert(key, (Arc::clone(a), Arc::clone(b), out.clone()));
        out
    }
}

/// Intersects two program DAGs. Returns `None` when the intersection is
/// empty (no common program).
pub fn intersect_dags<S1, S2, S3>(
    a: &Dag<S1>,
    b: &Dag<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
) -> Option<Dag<S3>>
where
    S3: Eq + Hash,
{
    intersect_dags_memo(a, b, src_intersect, &PosMemo::new(), &|| false)
}

/// [`intersect_dags`] with a caller-supplied [`PosMemo`], for sessions that
/// intersect many DAGs sharing position vectors (`Intersect_u`'s nested
/// predicate DAGs all draw from one per-step cache).
///
/// Only edge pairs whose source pair is reachable from the source pair
/// through nonempty atom products are expanded; the result is identical
/// to the unpruned construction ([`intersect_dags_memo_unpruned`], the
/// differential oracle) because the final productivity prune removes
/// every unreachable pair anyway.
///
/// `cancelled` is a cooperative cancellation predicate, checked once per
/// edge of `a`. When it fires the intersection returns `None`, which the
/// caller must treat as abandoned rather than empty. A predicate that
/// never fires changes nothing.
pub fn intersect_dags_memo<S1, S2, S3>(
    a: &Dag<S1>,
    b: &Dag<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
    pos_memo: &PosMemo,
    cancelled: &impl Fn() -> bool,
) -> Option<Dag<S3>>
where
    S3: Eq + Hash,
{
    intersect_dags_impl(a, b, src_intersect, pos_memo, true, cancelled)
}

/// The unpruned product construction: every edge pair expands its atom
/// products, reachable or not. Kept as the correctness oracle for the
/// differential property tests — the forward walk must never drop a
/// program this construction keeps. `cancelled` is checked as in
/// [`intersect_dags_memo`].
pub fn intersect_dags_memo_unpruned<S1, S2, S3>(
    a: &Dag<S1>,
    b: &Dag<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
    pos_memo: &PosMemo,
    cancelled: &impl Fn() -> bool,
) -> Option<Dag<S3>>
where
    S3: Eq + Hash,
{
    intersect_dags_impl(a, b, src_intersect, pos_memo, false, cancelled)
}

/// The §5.3 product loop. With `forward_only`, an edge pair is expanded
/// only when its source pair has been reached from `(a.source, b.source)`
/// by a nonempty atom product; without it every pair counts as reached.
fn intersect_dags_impl<S1, S2, S3>(
    a: &Dag<S1>,
    b: &Dag<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
    pos_memo: &PosMemo,
    forward_only: bool,
    cancelled: &impl Fn() -> bool,
) -> Option<Dag<S3>>
where
    S3: Eq + Hash,
{
    // Enumerate node pairs in lexicographic order; edges go forward in both
    // components, so this is a topological order of the product.
    let pair_id = |n1: u32, n2: u32| (n1 as u64) * b.num_nodes as u64 + n2 as u64;
    let mut edges: BTreeMap<(u64, u64), Vec<AtomSet<S3>>> = BTreeMap::new();
    // `a.edges` ascends by source and every edge goes forward, so a pair's
    // bit is final before its outgoing edge pairs are visited.
    let mut reached = vec![!forward_only; a.num_nodes as usize * b.num_nodes as usize];
    reached[pair_id(a.source, b.source) as usize] = true;

    for (&(a1, b1), atoms1) in &a.edges {
        if cancelled() {
            return None;
        }
        for x2 in 0..b.num_nodes {
            if !reached[pair_id(a1, x2) as usize] {
                continue;
            }
            for (&(_, b2), atoms2) in b.outgoing(x2) {
                if let Some(atoms) = product_edge_atoms(atoms1, atoms2, src_intersect, pos_memo) {
                    reached[pair_id(b1, b2) as usize] = true;
                    edges.insert((pair_id(a1, x2), pair_id(b1, b2)), atoms);
                }
            }
        }
    }
    assemble_product_dag(a, b, edges)
}

/// The atom-set products of one edge pair (the O(atoms²) inner loop of the
/// §5.3 product), hash-deduplicated in product order; `None` when every
/// product is empty.
fn product_edge_atoms<S1, S2, S3>(
    atoms1: &[AtomSet<S1>],
    atoms2: &[AtomSet<S2>],
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
    pos_memo: &PosMemo,
) -> Option<Vec<AtomSet<S3>>>
where
    S3: Eq + Hash,
{
    // Hashed dedup: products of large atom sets made the seed's
    // `Vec::contains` quadratic in deep comparisons.
    let mut atoms: ProgSet<AtomSet<S3>> = ProgSet::new();
    for x in atoms1 {
        for y in atoms2 {
            if let Some(z) = intersect_atom_sets_memo(x, y, src_intersect, pos_memo) {
                atoms.insert(z);
            }
        }
    }
    if atoms.is_empty() {
        None
    } else {
        Some(atoms.into_iter().collect())
    }
}

/// Assembles a product DAG from its surviving edge products, keyed by the
/// product pair ids `n1 * b.num_nodes + n2`: compacts the sparse pair ids
/// to dense node ids in lexicographic (topological) order and prunes.
fn assemble_product_dag<S1, S2, S3>(
    a: &Dag<S1>,
    b: &Dag<S2>,
    edges: BTreeMap<(u64, u64), Vec<AtomSet<S3>>>,
) -> Option<Dag<S3>>
where
    S3: Eq + Hash,
{
    let pair_id = |n1: u32, n2: u32| (n1 as u64) * b.num_nodes as u64 + n2 as u64;
    // Compact the sparse pair ids to dense node ids, keeping order.
    let mut used: Vec<u64> = edges
        .keys()
        .flat_map(|&(x, y)| [x, y])
        .chain([pair_id(a.source, b.source), pair_id(a.target, b.target)])
        .collect();
    used.sort_unstable();
    used.dedup();
    let dense: BTreeMap<u64, u32> = used
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();

    let mut dag = Dag {
        num_nodes: used.len() as u32,
        source: dense[&pair_id(a.source, b.source)],
        target: dense[&pair_id(a.target, b.target)],
        edges: edges
            .into_iter()
            .map(|((x, y), atoms)| ((dense[&x], dense[&y]), atoms))
            .collect(),
    };
    if dag.source == dag.target {
        // Both examples had empty outputs: the single empty program remains.
        return Some(Dag::empty_output());
    }
    dag.prune().then_some(dag)
}

/// Intersects two atom sets (Fig. 5(b) lifted to `Ls` atoms).
pub fn intersect_atom_sets<S1, S2, S3>(
    x: &AtomSet<S1>,
    y: &AtomSet<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
) -> Option<AtomSet<S3>> {
    intersect_atom_sets_memo(x, y, src_intersect, &PosMemo::new())
}

/// [`intersect_atom_sets`] with a shared [`PosMemo`].
pub fn intersect_atom_sets_memo<S1, S2, S3>(
    x: &AtomSet<S1>,
    y: &AtomSet<S2>,
    src_intersect: &mut impl FnMut(&S1, &S2) -> Option<S3>,
    pos_memo: &PosMemo,
) -> Option<AtomSet<S3>> {
    match (x, y) {
        (AtomSet::ConstStr(s1), AtomSet::ConstStr(s2)) if s1 == s2 => {
            Some(AtomSet::ConstStr(s1.clone()))
        }
        (AtomSet::Whole(s1), AtomSet::Whole(s2)) => src_intersect(s1, s2).map(AtomSet::Whole),
        (
            AtomSet::SubStr {
                src: src1,
                p1: p11,
                p2: p12,
            },
            AtomSet::SubStr {
                src: src2,
                p1: p21,
                p2: p22,
            },
        ) => {
            let src = src_intersect(src1, src2)?;
            let p1 = pos_memo.intersect_pos(p11, p21)?;
            let p2 = pos_memo.intersect_pos(p12, p22)?;
            Some(AtomSet::SubStr { src, p1, p2 })
        }
        _ => None,
    }
}

/// Pairwise-intersects two lists of position sets, dropping empty results.
pub fn intersect_pos_lists(a: &[PosSet], b: &[PosSet]) -> Vec<PosSet> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            if let Some(z) = intersect_pos_sets(x, y) {
                if !out.contains(&z) {
                    out.push(z);
                }
            }
        }
    }
    out
}

/// `IntersectPos` of POPL'11: component-wise set intersection.
pub fn intersect_pos_sets(x: &PosSet, y: &PosSet) -> Option<PosSet> {
    match (x, y) {
        (PosSet::CPos(k1), PosSet::CPos(k2)) if k1 == k2 => Some(PosSet::CPos(*k1)),
        (
            PosSet::Pos {
                r1s: a1,
                r2s: a2,
                cs: ac,
            },
            PosSet::Pos {
                r1s: b1,
                r2s: b2,
                cs: bc,
            },
        ) => {
            // Occurrence indices are the cheapest component: reject on them
            // before allocating sequence intersections.
            let cs: Vec<i32> = ac.iter().copied().filter(|c| bc.contains(c)).collect();
            if cs.is_empty() {
                return None;
            }
            let r1s = seq_intersection(a1, b1);
            if r1s.is_empty() {
                return None;
            }
            let r2s = seq_intersection(a2, b2);
            if r2s.is_empty() {
                return None;
            }
            Some(PosSet::Pos { r1s, r2s, cs })
        }
        _ => None,
    }
}

fn seq_intersection(a: &[RegexSeq], b: &[RegexSeq]) -> Vec<RegexSeq> {
    a.iter().filter(|r| b.contains(r)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_expr;
    use crate::generate::{generate_dag, GenOptions};
    use crate::language::Var;
    use crate::tokens::Token;
    use sst_counting::BigUint;

    fn gen(inputs: &[&str], output: &str) -> Dag<Var> {
        let sources: Vec<(Var, &str)> = inputs
            .iter()
            .enumerate()
            .map(|(i, w)| (Var(i as u32), *w))
            .collect();
        generate_dag(&sources, output, &GenOptions::default())
    }

    fn var_eq(a: &Var, b: &Var) -> Option<Var> {
        (a == b).then_some(*a)
    }

    #[test]
    fn intersect_keeps_generalizing_programs() {
        // Two examples of "extract the first number": the intersection must
        // still be sound on both.
        let d1 = gen(&["ab 12 cd"], "12");
        let d2 = gen(&["x 345 yz"], "345");
        let inter = intersect_dags(&d1, &d2, &mut var_eq).expect("nonempty");
        let opts = GenOptions::default();
        for prog in inter.enumerate_programs(200) {
            let got1 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| "ab 12 cd".to_string()),
                &opts.token_set,
            );
            assert_eq!(got1.as_deref(), Some("12"), "prog {prog}");
            let got2 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| "x 345 yz".to_string()),
                &opts.token_set,
            );
            assert_eq!(got2.as_deref(), Some("345"), "prog {prog}");
        }
        // Constants are gone: "12" != "345".
        assert!(inter.is_nonempty());
    }

    #[test]
    fn intersect_conflicting_constants_keeps_vars_only() {
        let d1 = gen(&["A"], "A");
        let d2 = gen(&["B"], "B");
        let inter = intersect_dags(&d1, &d2, &mut var_eq).expect("var program survives");
        let progs = inter.enumerate_programs(50);
        assert!(!progs.is_empty());
        for p in &progs {
            let rendered = p.to_string();
            assert!(
                !rendered.contains("ConstStr"),
                "constants should not survive: {rendered}"
            );
        }
    }

    #[test]
    fn intersect_no_common_program_is_none() {
        // Outputs unrelated to the (different) inputs: only constants exist,
        // and the constants differ.
        let d1 = gen(&["q"], "X");
        let d2 = gen(&["q"], "Y");
        assert!(intersect_dags(&d1, &d2, &mut var_eq).is_none());
    }

    #[test]
    fn intersect_is_commutative_in_count() {
        let d1 = gen(&["ab 12"], "12");
        let d2 = gen(&["cd 7 x"], "7");
        let i1 = intersect_dags(&d1, &d2, &mut var_eq).unwrap();
        let i2 = intersect_dags(&d2, &d1, &mut var_eq).unwrap();
        let c1 = i1.count_programs(&mut |_| BigUint::one());
        let c2 = i2.count_programs(&mut |_| BigUint::one());
        assert_eq!(c1, c2);
    }

    #[test]
    fn intersect_idempotent_on_counts() {
        let d = gen(&["ab 12"], "12");
        let i = intersect_dags(&d, &d, &mut var_eq).unwrap();
        assert_eq!(
            d.count_programs(&mut |_| BigUint::one()),
            i.count_programs(&mut |_| BigUint::one())
        );
    }

    #[test]
    fn pruned_product_matches_unpruned_oracle() {
        // Expanding only forward-reached edge pairs must not change what
        // is represented: counts and sizes agree with the unpruned product
        // on overlapping, disjoint and self intersections.
        let cases = [
            (vec!["ab 12 cd"], "12", vec!["x 345 yz"], "345"),
            (vec!["A"], "A", vec!["B"], "B"),
            (vec!["banana"], "an", vec!["canal"], "an"),
            (vec!["q"], "X", vec!["q"], "X"),
            (
                vec!["Honda", "125"],
                "Honda125",
                vec!["Ducati", "250"],
                "Ducati250",
            ),
        ];
        for (in1, out1, in2, out2) in cases {
            let d1 = gen(&in1, out1);
            let d2 = gen(&in2, out2);
            let pruned = intersect_dags(&d1, &d2, &mut var_eq);
            let oracle =
                intersect_dags_memo_unpruned(&d1, &d2, &mut var_eq, &PosMemo::new(), &|| false);
            match (&pruned, &oracle) {
                (Some(p), Some(o)) => {
                    assert_eq!(
                        p.count_programs(&mut |_| BigUint::one()),
                        o.count_programs(&mut |_| BigUint::one()),
                        "count drifted on {in1:?}->{out1} x {in2:?}->{out2}"
                    );
                    assert_eq!(p.size(&mut |_| 1), o.size(&mut |_| 1));
                }
                (None, None) => {}
                _ => panic!(
                    "emptiness drifted on {in1:?}->{out1} x {in2:?}->{out2}: \
                     pruned={} oracle={}",
                    pruned.is_some(),
                    oracle.is_some()
                ),
            }
        }
    }

    #[test]
    fn cancellation_is_checked_once_per_a_edge() {
        use std::cell::Cell;
        let d1 = gen(&["ab 12 cd"], "12");
        let d2 = gen(&["x 345 yz"], "345");
        let edges = d1.edges.len();
        // Never firing: the product loop asks once per edge of `a`, pruned
        // or not.
        let calls = Cell::new(0usize);
        let never = || {
            calls.set(calls.get() + 1);
            false
        };
        assert!(intersect_dags_memo(&d1, &d2, &mut var_eq, &PosMemo::new(), &never).is_some());
        assert_eq!(calls.replace(0), edges);
        let oracle = intersect_dags_memo_unpruned(&d1, &d2, &mut var_eq, &PosMemo::new(), &never);
        assert!(oracle.is_some());
        assert_eq!(calls.replace(0), edges);
        // Firing at any check abandons either product.
        for fire_at in 0..edges {
            let fires = || {
                calls.set(calls.get() + 1);
                calls.get() > fire_at
            };
            let pruned = intersect_dags_memo(&d1, &d2, &mut var_eq, &PosMemo::new(), &fires);
            assert!(pruned.is_none(), "fired after {fire_at} checks");
            calls.set(0);
            let oracle =
                intersect_dags_memo_unpruned(&d1, &d2, &mut var_eq, &PosMemo::new(), &fires);
            assert!(oracle.is_none(), "oracle fired after {fire_at} checks");
            calls.set(0);
        }
    }

    #[test]
    fn pos_set_intersection_rules() {
        assert_eq!(
            intersect_pos_sets(&PosSet::CPos(3), &PosSet::CPos(3)),
            Some(PosSet::CPos(3))
        );
        assert_eq!(intersect_pos_sets(&PosSet::CPos(3), &PosSet::CPos(4)), None);
        let p1 = PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num), RegexSeq::token(Token::AlphNum)],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![1, -2],
        };
        let p2 = PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num)],
            r2s: vec![RegexSeq::epsilon(), RegexSeq::token(Token::End)],
            cs: vec![-2, 4],
        };
        let inter = intersect_pos_sets(&p1, &p2).unwrap();
        assert_eq!(
            inter,
            PosSet::Pos {
                r1s: vec![RegexSeq::token(Token::Num)],
                r2s: vec![RegexSeq::epsilon()],
                cs: vec![-2],
            }
        );
        // Mixed kinds never intersect.
        assert_eq!(intersect_pos_sets(&PosSet::CPos(0), &p1), None);
    }

    #[test]
    fn atom_set_intersection_rules() {
        let c1: AtomSet<Var> = AtomSet::ConstStr("x".into());
        let c2: AtomSet<Var> = AtomSet::ConstStr("x".into());
        let c3: AtomSet<Var> = AtomSet::ConstStr("y".into());
        assert!(intersect_atom_sets(&c1, &c2, &mut var_eq).is_some());
        assert!(intersect_atom_sets(&c1, &c3, &mut var_eq).is_none());
        let w0: AtomSet<Var> = AtomSet::Whole(Var(0));
        let w1: AtomSet<Var> = AtomSet::Whole(Var(1));
        assert!(intersect_atom_sets(&w0, &w0.clone(), &mut var_eq).is_some());
        assert!(intersect_atom_sets(&w0, &w1, &mut var_eq).is_none());
        assert!(intersect_atom_sets(&c1, &w0, &mut var_eq).is_none());
    }

    #[test]
    fn empty_outputs_intersect_to_empty_program() {
        let d1 = gen(&["a"], "");
        let d2 = gen(&["b"], "");
        let inter = intersect_dags(&d1, &d2, &mut var_eq).unwrap();
        assert_eq!(
            inter.count_programs(&mut |_| BigUint::one()).to_u64(),
            Some(1)
        );
    }
}
