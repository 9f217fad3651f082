//! Ranking of `Ls` programs (§3.1 "Ranking", §5.4).
//!
//! The data structure shares sub-expressions, so the paper requires any
//! ranking to be a partial order decomposable over that sharing: the score
//! of a path is the sum of its edge scores, the score of an edge is the best
//! score among its atoms, and atom scores only look at un-shared attributes.
//! That makes top-1 extraction a shortest-path DP over the DAG.
//!
//! The DP is cost-first: [`RankWeights::atom_cost`] and
//! [`RankWeights::pos_cost`] price an atom set or position set without
//! building anything, and each node keeps only its cheapest `(next, atom
//! set)`. Concrete atoms are materialized ([`RankWeights::best_atom`]) for
//! the winning path alone. Costs compare with a strict `<` in edge order,
//! so the first cheapest choice wins every tie.
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
    fn seq_cost(&self, seq: &RegexSeq) -> u64 {
        // ε is fine but a 1-token context is the most readable; extra
        // tokens cost more.
        (seq.0.len() as u64).saturating_sub(1) * self.pos_token
    }

    fn count_cost(&self, c: i32) -> u64 {
        u64::from(c.unsigned_abs() > 1) * self.pos_far_count
    }

    /// Cost of a concrete position expression.
    pub fn pos_expr_cost(&self, p: &PosExpr) -> u64 {
        match p {
            PosExpr::CPos(0 | -1) => self.cpos_edge,
            PosExpr::CPos(_) => self.cpos_interior,
            PosExpr::Pos { r1, r2, c } => {
                self.pos + self.seq_cost(r1) + self.seq_cost(r2) + self.count_cost(*c)
            }
        }
    }

    /// Cost of a position set's best expression, without building it:
    /// always `best_pos(pset).0`.
    pub fn pos_cost(&self, pset: &PosSet) -> u64 {
        match pset {
            PosSet::CPos(k) => self.pos_expr_cost(&PosExpr::CPos(*k)),
            PosSet::Pos { r1s, r2s, cs } => {
                let seqs = |rs: &[RegexSeq]| rs.iter().map(|r| self.seq_cost(r)).min();
                self.pos
                    + seqs(r1s).expect("non-empty seq list")
                    + seqs(r2s).expect("non-empty seq list")
                    + self.count_cost(best_count(cs))
            }
        }
    }

    /// Cost and best concrete expression of a position set. Ties between
    /// equally cheap contexts go to the smaller sequence; only the two
    /// winning sequences are cloned.
    pub fn best_pos(&self, pset: &PosSet) -> (u64, PosExpr) {
        let expr = match pset {
            PosSet::CPos(k) => PosExpr::CPos(*k),
            PosSet::Pos { r1s, r2s, cs } => {
                let pick = |seqs: &[RegexSeq]| {
                    seqs.iter()
                        .min_by(|a, b| self.seq_cost(a).cmp(&self.seq_cost(b)).then(a.cmp(b)))
                        .expect("non-empty seq list")
                        .clone()
                };
                PosExpr::Pos {
                    r1: pick(r1s),
                    r2: pick(r2s),
                    c: best_count(cs),
                }
            }
        };
        (self.pos_expr_cost(&expr), expr)
    }

    fn const_cost(&self, s: &str) -> u64 {
        let alnum = s.chars().filter(char::is_ascii_alphanumeric).count() as u64;
        let other = s.chars().count() as u64 - alnum;
        self.const_str + alnum * self.const_char_alnum + other * self.const_char_other
    }

    /// Cost of a concrete atom. `src_cost` prices a source handle (0 for
    /// variables; the best lookup's cost for `Lu` nodes) and may veto it
    /// with `None`.
    pub fn atom_expr_cost<S>(
        &self,
        atom: &AtomicExpr<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<u64> {
        Some(match atom {
            AtomicExpr::ConstStr(s) => self.const_cost(s),
            AtomicExpr::Whole(src) => self.whole + src_cost(src)?,
            AtomicExpr::SubStr { src, p1, p2 } => {
                self.substr + src_cost(src)? + self.pos_expr_cost(p1) + self.pos_expr_cost(p2)
            }
        })
    }

    /// Cost of an atom set's best atom, without building it: always
    /// `best_atom(aset, src_cost).map(|b| b.0)`. Calls `src_cost` at most
    /// once, before pricing any position.
    pub fn atom_cost<S>(
        &self,
        aset: &AtomSet<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<u64> {
        let cheapest = |ps: &[PosSet]| ps.iter().map(|p| self.pos_cost(p)).min();
        Some(match aset {
            AtomSet::ConstStr(s) => self.const_cost(s),
            AtomSet::Whole(src) => self.whole + src_cost(src)?,
            AtomSet::SubStr { src, p1, p2 } => {
                let c = src_cost(src)?;
                self.substr + c + cheapest(p1)? + cheapest(p2)?
            }
        })
    }

    /// Cost and best concrete atom of an atom set (see
    /// [`RankWeights::atom_cost`]).
    pub fn best_atom<S: Clone>(
        &self,
        aset: &AtomSet<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, AtomicExpr<S>)> {
        // The first cheapest alternative, built alone.
        let pick =
            |ps: &[PosSet]| Some(self.best_pos(ps.iter().min_by_key(|p| self.pos_cost(p))?).1);
        let atom = match aset {
            AtomSet::ConstStr(s) => AtomicExpr::ConstStr(s.clone()),
            AtomSet::Whole(src) => AtomicExpr::Whole(src.clone()),
            AtomSet::SubStr { src, p1, p2 } => AtomicExpr::SubStr {
                src: src.clone(),
                p1: pick(p1)?,
                p2: pick(p2)?,
            },
        };
        Some((self.atom_expr_cost(&atom, src_cost)?, atom))
    }

    /// Extracts the minimum-cost program from a DAG via a backward DP.
    ///
    /// The DP prices atom sets with [`RankWeights::atom_cost`] and keeps
    /// only the winning `(next, atom set)` per node; atoms are built for
    /// the chosen path alone. Returns the cost and the program, or `None`
    /// when the DAG is empty (or every atom's source is vetoed by
    /// `src_cost`).
    pub fn best_program<S: Clone>(
        &self,
        dag: &Dag<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, StringExpr<S>)> {
        // best[v] = min cost from v to target, with chosen (next, atom set).
        type Choice<'d, S> = Option<(u64, Option<(u32, &'d AtomSet<S>)>)>;
        let mut best: Vec<Choice<S>> = vec![None; dag.num_nodes as usize];
        best[dag.target as usize] = Some((0, None));
        for node in (0..dag.num_nodes).rev() {
            if node == dag.target {
                continue;
            }
            let mut chosen = None;
            for (&(_, next), atoms) in dag.outgoing(node) {
                let Some((next_cost, _)) = best[next as usize] else {
                    continue;
                };
                for aset in atoms {
                    if let Some(atom_cost) = self.atom_cost(aset, src_cost) {
                        let total = atom_cost + self.per_atom + next_cost;
                        if chosen.is_none_or(|(c, _)| total < c) {
                            chosen = Some((total, Some((next, aset))));
                        }
                    }
                }
            }
            best[node as usize] = chosen;
        }
        let (cost, _) = best[dag.source as usize]?;
        // Walk the chosen chain, building only its atoms.
        let mut atoms = Vec::new();
        let mut node = dag.source;
        while node != dag.target {
            let (next, aset) = best[node as usize]?.1?;
            atoms.push(self.best_atom(aset, src_cost)?.1);
            node = next;
        }
        Some((cost, StringExpr { atoms }))
    }
}

/// The preferred occurrence index: smallest magnitude, positive first.
fn best_count(cs: &[i32]) -> i32 {
    *cs.iter()
        .min_by_key(|c| (c.unsigned_abs(), c.is_negative()))
        .expect("non-empty count list")
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
