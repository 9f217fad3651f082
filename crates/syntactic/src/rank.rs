//! Ranking of `Ls` programs (§3.1 "Ranking", §5.4).
//!
//! The data structure shares sub-expressions, so the paper requires any
//! ranking to be a partial order decomposable over that sharing: the score
//! of a path is the sum of its edge scores, the score of an edge is the best
//! score among its atoms, and atom scores only look at un-shared attributes.
//! That makes top-1 extraction a shortest-path DP over the DAG.
//!
//! The concrete weights implement the paper's stated preferences:
//! * fewer concatenation arguments (a fixed per-atom charge),
//! * substring/source atoms over constants (generalization),
//! * whole-source references over substrings,
//! * relative (`pos`) positions over interior absolute ones; the string
//!   edges `CPos(0)`/`CPos(-1)` are as robust as anchors,
//! * among `pos` expressions, shorter token sequences and smaller
//!   occurrence indices.

use crate::dag::{AtomSet, Dag, PosSet};
use crate::language::{AtomicExpr, PosExpr, RegexSeq, StringExpr};

/// Tunable score weights; lower cost = preferred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankWeights {
    /// Charge per concatenation argument (prefers fewer atoms).
    pub per_atom: u64,
    /// Base cost of a constant-string atom.
    pub const_str: u64,
    /// Cost per alphanumeric character of a constant. Content characters
    /// rarely belong in constants (they should generalize from the inputs
    /// or a lookup), so this is steep.
    pub const_char_alnum: u64,
    /// Cost per non-alphanumeric character of a constant. Separators and
    /// punctuation are legitimately constant, so this is mild.
    pub const_char_other: u64,
    /// Cost of referencing a whole source.
    pub whole: u64,
    /// Base cost of a substring atom (positions/source costs are added).
    pub substr: u64,
    /// Cost of `CPos(0)` / `CPos(-1)` (string edges).
    pub cpos_edge: u64,
    /// Cost of any other constant position.
    pub cpos_interior: u64,
    /// Base cost of a `pos(r1, r2, c)` position.
    pub pos: u64,
    /// Extra cost per token beyond the first in each context.
    pub pos_token: u64,
    /// Extra cost when `|c| > 1`.
    pub pos_far_count: u64,
}

impl Default for RankWeights {
    fn default() -> Self {
        RankWeights {
            per_atom: 20,
            const_str: 6,
            const_char_alnum: 40,
            const_char_other: 3,
            whole: 2,
            substr: 6,
            cpos_edge: 2,
            cpos_interior: 9,
            pos: 1,
            pos_token: 1,
            pos_far_count: 1,
        }
    }
}

impl RankWeights {
    /// Cost and best concrete expression of a position set.
    pub fn best_pos(&self, pset: &PosSet) -> (u64, PosExpr) {
        match pset {
            PosSet::CPos(k) => {
                let cost = if *k == 0 || *k == -1 {
                    self.cpos_edge
                } else {
                    self.cpos_interior
                };
                (cost, PosExpr::CPos(*k))
            }
            PosSet::Pos { r1s, r2s, cs } => {
                let pick_seq = |seqs: &[RegexSeq]| -> (u64, RegexSeq) {
                    seqs.iter()
                        .map(|r| {
                            let toks = r.0.len() as u64;
                            // ε is fine but a 1-token context is the most
                            // readable; extra tokens cost more.
                            let cost = toks.saturating_sub(1) * self.pos_token;
                            (cost, r.clone())
                        })
                        .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
                        .expect("non-empty seq list")
                };
                let (c1, r1) = pick_seq(r1s);
                let (c2, r2) = pick_seq(r2s);
                let &c = cs
                    .iter()
                    .min_by_key(|c| (c.unsigned_abs(), c.is_negative()))
                    .expect("non-empty count list");
                let far = if c.unsigned_abs() > 1 {
                    self.pos_far_count
                } else {
                    0
                };
                (self.pos + c1 + c2 + far, PosExpr::Pos { r1, r2, c })
            }
        }
    }

    /// Cost and best concrete position over a list of alternatives.
    pub fn best_pos_of(&self, psets: &[PosSet]) -> Option<(u64, PosExpr)> {
        psets
            .iter()
            .map(|p| self.best_pos(p))
            .min_by_key(|(c, _)| *c)
    }

    /// Cost and best concrete atom of an atom set. `src_cost` prices a
    /// source handle (0 for variables; lookup depth for `Lu` nodes) and may
    /// veto it with `None`.
    pub fn best_atom<S: Clone>(
        &self,
        aset: &AtomSet<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, AtomicExpr<S>)> {
        match aset {
            AtomSet::ConstStr(s) => {
                let chars = s
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() {
                            self.const_char_alnum
                        } else {
                            self.const_char_other
                        }
                    })
                    .sum::<u64>();
                Some((self.const_str + chars, AtomicExpr::ConstStr(s.clone())))
            }
            AtomSet::Whole(src) => {
                let c = src_cost(src)?;
                Some((self.whole + c, AtomicExpr::Whole(src.clone())))
            }
            AtomSet::SubStr { src, p1, p2 } => {
                let c = src_cost(src)?;
                let (c1, p1) = self.best_pos_of(p1)?;
                let (c2, p2) = self.best_pos_of(p2)?;
                Some((
                    self.substr + c + c1 + c2,
                    AtomicExpr::SubStr {
                        src: src.clone(),
                        p1,
                        p2,
                    },
                ))
            }
        }
    }

    /// Extracts the minimum-cost program from a DAG via a backward DP.
    ///
    /// Returns the cost and the program, or `None` when the DAG is empty
    /// (or every atom's source is vetoed by `src_cost`).
    pub fn best_program<S: Clone>(
        &self,
        dag: &Dag<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, StringExpr<S>)> {
        let n = dag.num_nodes as usize;
        // best[v] = min cost from v to target, with chosen (next, atom).
        type Choice<S> = Option<(u64, Option<(u32, AtomicExpr<S>)>)>;
        let mut best: Vec<Choice<S>> = vec![None; n];
        best[dag.target as usize] = Some((0, None));
        for node in (0..dag.num_nodes).rev() {
            if node == dag.target {
                continue;
            }
            let mut chosen: Choice<S> = None;
            for (&(_, next), atoms) in dag.outgoing(node) {
                let Some((next_cost, _)) = &best[next as usize] else {
                    continue;
                };
                let next_cost = *next_cost;
                for aset in atoms {
                    if let Some((atom_cost, atom)) = self.best_atom(aset, src_cost) {
                        let total = atom_cost + self.per_atom + next_cost;
                        if chosen.as_ref().is_none_or(|(c, _)| total < *c) {
                            chosen = Some((total, Some((next, atom))));
                        }
                    }
                }
            }
            best[node as usize] = chosen;
        }
        let (cost, _) = best[dag.source as usize].clone()?;
        // Walk the chosen chain.
        let mut atoms = Vec::new();
        let mut node = dag.source;
        while node != dag.target {
            let (_, step) = best[node as usize].clone()?;
            let (next, atom) = step?;
            atoms.push(atom);
            node = next;
        }
        Some((cost, StringExpr { atoms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dag, GenOptions};
    use crate::language::Var;
    use crate::tokens::Token;

    fn w() -> RankWeights {
        RankWeights::default()
    }

    fn gen(inputs: &[&str], output: &str) -> Dag<Var> {
        let sources: Vec<(Var, &str)> = inputs
            .iter()
            .enumerate()
            .map(|(i, s)| (Var(i as u32), *s))
            .collect();
        generate_dag(&sources, output, &GenOptions::default())
    }

    fn var_cost(_: &Var) -> Option<u64> {
        Some(0)
    }

    #[test]
    fn prefers_whole_var_over_const() {
        let dag = gen(&["abc"], "abc");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.to_string(), "v1");
    }

    #[test]
    fn prefers_substring_over_const() {
        let dag = gen(&["ab 12 cd"], "12");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert!(
            prog.to_string().starts_with("SubStr"),
            "expected a substring, got {prog}"
        );
    }

    #[test]
    fn unrelated_output_falls_back_to_const() {
        let dag = gen(&["xyz"], "Q");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.to_string(), "ConstStr(\"Q\")");
    }

    #[test]
    fn fewer_atoms_preferred() {
        // "abab" from "ab": whole-string duplication needs 2 atoms, but a
        // 4-char constant needs 1; the constant's per-char charge must still
        // favor the two source atoms.
        let dag = gen(&["ab"], "abab");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.arity(), 2, "got {prog}");
        assert!(!prog.to_string().contains("ConstStr"));
    }

    #[test]
    fn pos_preferred_over_interior_cpos() {
        let (cost_pos, _) = w().best_pos(&PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num)],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![1],
        });
        let (cost_interior, _) = w().best_pos(&PosSet::CPos(5));
        let (cost_edge, _) = w().best_pos(&PosSet::CPos(0));
        assert!(cost_pos < cost_interior);
        assert!(cost_edge < cost_interior);
    }

    #[test]
    fn smaller_count_preferred() {
        let pset = PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num)],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![3, -1],
        };
        let (_, p) = w().best_pos(&pset);
        match p {
            PosExpr::Pos { c, .. } => assert_eq!(c, -1),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn veto_source_falls_back() {
        let dag = gen(&["abc"], "abc");
        // Veto all sources: only the constant remains.
        let (_, prog) = w().best_program(&dag, &mut |_: &Var| None).unwrap();
        assert_eq!(prog.to_string(), "ConstStr(\"abc\")");
    }

    #[test]
    fn empty_dag_gives_empty_program() {
        let dag = Dag::<Var>::empty_output();
        let (cost, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(prog.arity(), 0);
    }
}
