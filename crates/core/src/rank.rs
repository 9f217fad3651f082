//! Ranking of `Lu` programs (§5.4) and top-program extraction from `Du`.
//!
//! The ranking composes the partial orders of both sub-languages: the
//! syntactic weights choose among DAG paths/atoms/positions (fewer
//! concatenations, substrings over constants, robust positions), and the
//! lookup weights prefer shallow `Select` chains with narrow keys. On top,
//! §5.4's `Lu`-specific preferences fall out of the composition: lookup
//! atoms that cover longer output spans beat constants because constants
//! pay per character, and expression-indexed predicates beat constant
//! predicates because the nested DAG's non-constant programs are cheaper.
//!
//! Extraction is a pair of mutually recursive, depth-bounded DPs:
//! [`LuRankWeights::best`] runs the syntactic shortest-path DP on the top
//! DAG with source costs supplied by [`best_lookup`], which in turn prices
//! nested predicate DAGs the same way one level deeper.

use std::collections::HashMap;

use sst_lookup::NodeId;
use sst_syntactic::{AtomicExpr, RankWeights, StringExpr};

use crate::dstruct::{GenLookupU, SemDStruct};
use crate::language::{LookupU, PredRhsU, PredicateU, SemExpr};

/// Weights for the lookup layer of `Lu` ranking (the syntactic layer uses
/// [`RankWeights`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuRankWeights {
    /// Syntactic weights for DAGs (top level and nested predicates).
    pub syntactic: RankWeights,
    /// Cost of referencing an input variable.
    pub var: u64,
    /// Cost per `Select` constructor.
    pub select: u64,
    /// Cost per predicate in a condition.
    pub pred: u64,
}

impl Default for LuRankWeights {
    fn default() -> Self {
        LuRankWeights {
            syntactic: RankWeights::default(),
            var: 0,
            select: 12,
            pred: 2,
        }
    }
}

/// A ranked concrete `Lu` program.
#[derive(Debug, Clone)]
pub struct RankedSem {
    /// Total cost (lower is better).
    pub cost: u64,
    /// The program.
    pub expr: SemExpr,
}

type LookupMemo = HashMap<(u32, usize), Option<(u64, LookupU)>>;

impl LuRankWeights {
    /// Extracts the top-ranked program with lookup depth ≤ `depth`.
    pub fn best(&self, d: &SemDStruct, depth: usize) -> Option<RankedSem> {
        self.best_with(d, depth, &mut HashMap::new())
    }

    fn best_with(&self, d: &SemDStruct, depth: usize, memo: &mut LookupMemo) -> Option<RankedSem> {
        let top = d.top.as_ref()?;
        let (cost, skeleton) = self.syntactic.best_program(top, &mut |n: &NodeId| {
            best_lookup(self, d, *n, depth, memo).map(|(c, _)| c)
        })?;
        let expr = self.concretize(d, skeleton, depth, memo)?;
        Some(RankedSem { cost, expr })
    }

    /// Extracts up to `k` *behaviorally diverse* top programs, ascending
    /// cost. The first is always [`LuRankWeights::best`]'s program. The
    /// rest are skeletons enumerated from the top DAG, concretized with
    /// their best lookup choices, and collapsed by signature (atom kinds +
    /// sources): position-expression variants of the same extraction
    /// almost always behave identically, and the §3.2 interaction model
    /// wants programs that can actually *disagree* on new inputs. The
    /// enumeration is bounded, so it alone can miss the DP optimum.
    pub fn top_k(&self, d: &SemDStruct, depth: usize, k: usize) -> Vec<RankedSem> {
        let Some(top) = d.top.as_ref() else {
            return Vec::new();
        };
        let mut memo: LookupMemo = HashMap::new();
        let Some(best) = self.best_with(d, depth, &mut memo) else {
            return Vec::new();
        };
        let best_sig = signature(&best.expr);
        let mut out: Vec<(Vec<SigAtom>, RankedSem)> = Vec::new();
        for skeleton in top.enumerate_programs(k.saturating_mul(16).max(64)) {
            let mut cost = 0u64;
            let mut priced = true;
            for atom in &skeleton.atoms {
                let atom_cost = match atom {
                    AtomicExpr::ConstStr(_) | AtomicExpr::Whole(_) | AtomicExpr::SubStr { .. } => {
                        // Reuse the syntactic pricing through a singleton set.
                        let aset = match atom {
                            AtomicExpr::ConstStr(s) => sst_syntactic::AtomSet::ConstStr(s.clone()),
                            AtomicExpr::Whole(n) => sst_syntactic::AtomSet::Whole(*n),
                            AtomicExpr::SubStr { src, p1, p2 } => sst_syntactic::AtomSet::SubStr {
                                src: *src,
                                p1: std::sync::Arc::new(vec![pos_to_set(p1)]),
                                p2: std::sync::Arc::new(vec![pos_to_set(p2)]),
                            },
                        };
                        self.syntactic.best_atom(&aset, &mut |n: &NodeId| {
                            best_lookup(self, d, *n, depth, &mut memo).map(|(c, _)| c)
                        })
                    }
                };
                match atom_cost {
                    Some((c, _)) => cost += c + self.syntactic.per_atom,
                    None => {
                        priced = false;
                        break;
                    }
                }
            }
            if !priced {
                continue;
            }
            if let Some(expr) = self.concretize(d, skeleton, depth, &mut memo) {
                let sig = signature(&expr);
                if sig == best_sig {
                    continue;
                }
                match out.iter_mut().find(|(s, _)| *s == sig) {
                    Some((_, existing)) if cost < existing.cost => {
                        *existing = RankedSem { cost, expr };
                    }
                    Some(_) => {}
                    None => out.push((sig, RankedSem { cost, expr })),
                }
            }
        }
        let mut rest: Vec<RankedSem> = out.into_iter().map(|(_, r)| r).collect();
        rest.sort_by_key(|r| r.cost);
        std::iter::once(best).chain(rest).take(k).collect()
    }

    /// Replaces node handles in a skeleton with their best lookup programs.
    fn concretize(
        &self,
        d: &SemDStruct,
        skeleton: StringExpr<NodeId>,
        depth: usize,
        memo: &mut LookupMemo,
    ) -> Option<SemExpr> {
        let mut atoms = Vec::with_capacity(skeleton.atoms.len());
        for atom in skeleton.atoms {
            let converted = match atom {
                AtomicExpr::ConstStr(s) => AtomicExpr::ConstStr(s),
                AtomicExpr::Whole(n) => AtomicExpr::Whole(best_lookup(self, d, n, depth, memo)?.1),
                AtomicExpr::SubStr { src, p1, p2 } => AtomicExpr::SubStr {
                    src: best_lookup(self, d, src, depth, memo)?.1,
                    p1,
                    p2,
                },
            };
            atoms.push(converted);
        }
        Some(StringExpr { atoms })
    }
}

/// Behavioral signature atom: what is extracted and from where, ignoring
/// the exact position expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SigAtom {
    Const(String),
    Whole(LookupU),
    SubStr(LookupU),
}

fn signature(e: &SemExpr) -> Vec<SigAtom> {
    e.atoms
        .iter()
        .map(|a| match a {
            AtomicExpr::ConstStr(s) => SigAtom::Const(s.clone()),
            AtomicExpr::Whole(l) => SigAtom::Whole(l.clone()),
            AtomicExpr::SubStr { src, .. } => SigAtom::SubStr(src.clone()),
        })
        .collect()
}

fn pos_to_set(p: &sst_syntactic::PosExpr) -> sst_syntactic::PosSet {
    match p {
        sst_syntactic::PosExpr::CPos(k) => sst_syntactic::PosSet::CPos(*k),
        sst_syntactic::PosExpr::Pos { r1, r2, c } => sst_syntactic::PosSet::Pos {
            r1s: vec![r1.clone()],
            r2s: vec![r2.clone()],
            cs: vec![*c],
        },
    }
}

/// Best concrete lookup program at a node with `Select`-depth ≤ `depth`.
pub fn best_lookup(
    w: &LuRankWeights,
    d: &SemDStruct,
    node: NodeId,
    depth: usize,
    memo: &mut LookupMemo,
) -> Option<(u64, LookupU)> {
    if let Some(hit) = memo.get(&(node.0, depth)) {
        return hit.clone();
    }
    memo.insert((node.0, depth), None);
    let mut best: Option<(u64, LookupU)> = None;
    for prog in &d.node(node).progs {
        let candidate = match prog {
            GenLookupU::Var(v) => Some((w.var, LookupU::Var(*v))),
            GenLookupU::Select { col, table, conds } => {
                if depth == 0 {
                    None
                } else {
                    let mut best_sel: Option<(u64, LookupU)> = None;
                    for cond in conds.iter() {
                        let mut cost = w.select + w.pred * cond.preds.len() as u64;
                        let mut preds = Vec::with_capacity(cond.preds.len());
                        let mut viable = true;
                        for pred in &cond.preds {
                            let sub = w.syntactic.best_program(&pred.dag, &mut |n: &NodeId| {
                                best_lookup(w, d, *n, depth - 1, memo).map(|(c, _)| c)
                            });
                            let Some((pc, skeleton)) = sub else {
                                viable = false;
                                break;
                            };
                            let Some(expr) = w.concretize(d, skeleton, depth - 1, memo) else {
                                viable = false;
                                break;
                            };
                            cost += pc;
                            // Render pure constants in Lt's `C = s` form.
                            let rhs = match expr.atoms.as_slice() {
                                [AtomicExpr::ConstStr(s)] => PredRhsU::Const(s.clone()),
                                _ => PredRhsU::Expr(expr),
                            };
                            preds.push(PredicateU { col: pred.col, rhs });
                        }
                        if !viable || preds.is_empty() {
                            continue;
                        }
                        let candidate = (
                            cost,
                            LookupU::Select {
                                col: *col,
                                table: *table,
                                cond: preds,
                            },
                        );
                        if best_sel.as_ref().is_none_or(|(c, _)| candidate.0 < *c) {
                            best_sel = Some(candidate);
                        }
                    }
                    best_sel
                }
            }
        };
        if let Some(c) = candidate {
            if best.as_ref().is_none_or(|(bc, _)| c.0 < *bc) {
                best = Some(c);
            }
        }
    }
    memo.insert((node.0, depth), best.clone());
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_sem;
    use crate::generate::{generate_str_u, LuOptions};
    use crate::language::display_sem;
    use sst_tables::{Database, Table};

    fn comp_db() -> Database {
        Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    #[test]
    fn lookup_beats_constant() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        let best = LuRankWeights::default().best(&d, 2).unwrap();
        let shown = display_sem(&best.expr, &db);
        assert!(
            shown.contains("Select(Name, Comp"),
            "expected a lookup, got {shown}"
        );
        assert!(!shown.contains("ConstStr"), "got {shown}");
    }

    #[test]
    fn best_generalizes_to_unseen_input() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        let best = LuRankWeights::default().best(&d, 2).unwrap();
        let tokens = LuOptions::default().syntactic.token_set;
        assert_eq!(
            eval_sem(&best.expr, &db, &["c3"], &tokens).as_deref(),
            Some("Apple")
        );
    }

    #[test]
    fn depth_zero_blocks_lookups() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        let best = LuRankWeights::default().best(&d, 0).unwrap();
        // Only constants remain available.
        let shown = display_sem(&best.expr, &db);
        assert!(shown.contains("ConstStr"), "got {shown}");
    }

    #[test]
    fn top_k_returns_sorted_distinct() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        let w = LuRankWeights::default();
        let top = w.top_k(&d, 2, 5);
        assert!(!top.is_empty());
        for pair in top.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
            assert_ne!(pair[0].expr, pair[1].expr);
        }
        // The best of top_k agrees with best().
        let best = w.best(&d, 2).unwrap();
        assert_eq!(top[0].expr, best.expr);
    }

    #[test]
    fn const_pred_rendered_as_const() {
        // When only the constant path survives in a predicate DAG, the
        // surface syntax shows `C = "s"` (Lt style).
        let db = comp_db();
        // Input unrelated to c2's row: learn "Google" from "Google"-free
        // input is impossible via lookups, so craft: input c2 reaches the
        // row; predicate dag for "c2" contains const + var; best is var.
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        let best = LuRankWeights::default().best(&d, 2).unwrap();
        let shown = display_sem(&best.expr, &db);
        assert!(shown.contains("Id = v1"), "got {shown}");
    }
}
