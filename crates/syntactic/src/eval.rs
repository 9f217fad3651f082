//! Evaluation of `Ls` expressions.
//!
//! Position evaluation follows §5 of the paper exactly: a constant `k ≥ 0`
//! is the `k`-th position, a negative `k` is position `len + 1 + k`, and
//! `pos(r1, r2, c)` is the `|c|`-th position (from the left if `c > 0`,
//! from the right if `c < 0`) where `r1` matches ending there and `r2`
//! matches starting there. An unmatched position makes the enclosing
//! expression undefined (`None`), mirroring FlashFill's `⊥`.

use crate::language::{AtomicExpr, PosExpr, StringExpr};
use crate::matches::Matcher;
use crate::tokens::{StringRuns, TokenSet};

/// Evaluates a position expression on a subject string; `None` if undefined.
pub fn eval_pos(pos: &PosExpr, subject: &str, set: &TokenSet) -> Option<u32> {
    let runs = StringRuns::compute(subject, set);
    eval_pos_with_runs(pos, &runs, set)
}

/// Evaluates a position expression against precomputed runs.
pub fn eval_pos_with_runs(pos: &PosExpr, runs: &StringRuns, set: &TokenSet) -> Option<u32> {
    let len = runs.len() as i64;
    match pos {
        PosExpr::CPos(k) => {
            let t = if *k >= 0 {
                *k as i64
            } else {
                len + 1 + *k as i64
            };
            (0..=len).contains(&t).then_some(t as u32)
        }
        PosExpr::Pos { r1, r2, c } => {
            if *c == 0 {
                return None;
            }
            let matcher = Matcher::new(runs, set);
            let positions = matcher.match_positions(r1, r2);
            let idx = if *c > 0 {
                (*c as usize).checked_sub(1)?
            } else {
                positions.len().checked_sub(c.unsigned_abs() as usize)?
            };
            positions.get(idx).copied()
        }
    }
}

/// Evaluates an atomic expression; `resolve` maps a source to its string
/// (`None` if the source itself is undefined).
pub fn eval_atom<S>(
    atom: &AtomicExpr<S>,
    resolve: &mut impl FnMut(&S) -> Option<String>,
    set: &TokenSet,
) -> Option<String> {
    match atom {
        AtomicExpr::ConstStr(s) => Some(s.clone()),
        AtomicExpr::Whole(src) => resolve(src),
        AtomicExpr::SubStr { src, p1, p2 } => {
            let subject = resolve(src)?;
            let runs = StringRuns::compute(&subject, set);
            let a = eval_pos_with_runs(p1, &runs, set)?;
            let b = eval_pos_with_runs(p2, &runs, set)?;
            if a > b {
                return None;
            }
            Some(runs.chars()[a as usize..b as usize].iter().collect())
        }
    }
}

/// Evaluates a full concatenation expression.
pub fn eval_expr<S>(
    expr: &StringExpr<S>,
    resolve: &mut impl FnMut(&S) -> Option<String>,
    set: &TokenSet,
) -> Option<String> {
    let mut out = String::new();
    for atom in &expr.atoms {
        out.push_str(&eval_atom(atom, resolve, set)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::{RegexSeq, Var};
    use crate::tokens::Token;

    fn set() -> TokenSet {
        TokenSet::standard()
    }

    /// Evaluates an `Ls` expression on one input row (`Var(i)` is column `i`).
    fn eval_on_row(expr: &StringExpr<Var>, inputs: &[&str]) -> Option<String> {
        eval_expr(
            expr,
            &mut |v: &Var| inputs.get(v.0 as usize).map(|s| (*s).to_string()),
            &set(),
        )
    }

    #[test]
    fn cpos_positive_and_negative() {
        assert_eq!(eval_pos(&PosExpr::CPos(0), "abc", &set()), Some(0));
        assert_eq!(eval_pos(&PosExpr::CPos(3), "abc", &set()), Some(3));
        assert_eq!(eval_pos(&PosExpr::CPos(-1), "abc", &set()), Some(3));
        assert_eq!(eval_pos(&PosExpr::CPos(-4), "abc", &set()), Some(0));
        assert_eq!(eval_pos(&PosExpr::CPos(4), "abc", &set()), None);
        assert_eq!(eval_pos(&PosExpr::CPos(-5), "abc", &set()), None);
    }

    #[test]
    fn pos_counts_from_left_and_right() {
        let slash_then = PosExpr::Pos {
            r1: RegexSeq::token(Token::Special('/')),
            r2: RegexSeq::epsilon(),
            c: 1,
        };
        assert_eq!(eval_pos(&slash_then, "10/12/2010", &set()), Some(3));
        let second = PosExpr::Pos {
            r1: RegexSeq::token(Token::Special('/')),
            r2: RegexSeq::epsilon(),
            c: 2,
        };
        assert_eq!(eval_pos(&second, "10/12/2010", &set()), Some(6));
        let last = PosExpr::Pos {
            r1: RegexSeq::token(Token::Special('/')),
            r2: RegexSeq::epsilon(),
            c: -1,
        };
        assert_eq!(eval_pos(&last, "10/12/2010", &set()), Some(6));
        let too_many = PosExpr::Pos {
            r1: RegexSeq::token(Token::Special('/')),
            r2: RegexSeq::epsilon(),
            c: 3,
        };
        assert_eq!(eval_pos(&too_many, "10/12/2010", &set()), None);
    }

    #[test]
    fn pos_zero_count_undefined() {
        let p = PosExpr::Pos {
            r1: RegexSeq::epsilon(),
            r2: RegexSeq::epsilon(),
            c: 0,
        };
        assert_eq!(eval_pos(&p, "abc", &set()), None);
    }

    #[test]
    fn substr_extracts_between_positions() {
        // SubStr(v1, pos(SlashTok, ε, 1), pos(EndTok, ε, 1)) on "10/12/2010"
        // = "12/2010" (paper Example 1's f5).
        let atom = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::token(Token::Special('/')),
                r2: RegexSeq::epsilon(),
                c: 1,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::End),
                c: 1,
            },
        };
        let expr = StringExpr::atom(atom);
        assert_eq!(eval_on_row(&expr, &["10/12/2010"]), Some("12/2010".into()));
    }

    #[test]
    fn substr2_second_alnum_word() {
        // SubStr2(v1, AlphTok, 2) ≡ SubStr(v1, pos(ε, AlphTok, 2), pos(AlphTok, ε, 2)).
        let atom = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::AlphNum),
                c: 2,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::AlphNum),
                r2: RegexSeq::epsilon(),
                c: 2,
            },
        };
        assert_eq!(
            eval_on_row(&StringExpr::atom(atom), &["Alan Turing"]),
            Some("Turing".into())
        );
    }

    #[test]
    fn example4_name_formatting() {
        // Concatenate(SubStr2(v1, AlphTok, 2), ConstStr(" "),
        //             SubStr2(v1, UpperTok, 1)): "Alan Turing" -> "Turing A".
        let word2 = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::AlphNum),
                c: 2,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::AlphNum),
                r2: RegexSeq::epsilon(),
                c: 2,
            },
        };
        let upper1 = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::Upper),
                c: 1,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::Upper),
                r2: RegexSeq::epsilon(),
                c: 1,
            },
        };
        let expr = StringExpr {
            atoms: vec![word2, AtomicExpr::ConstStr(" ".into()), upper1],
        };
        assert_eq!(
            eval_on_row(&expr, &["Alan Turing"]),
            Some("Turing A".into())
        );
    }

    #[test]
    fn undefined_propagates() {
        let atom: AtomicExpr<Var> = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::CPos(5),
            p2: PosExpr::CPos(-1),
        };
        assert_eq!(eval_on_row(&StringExpr::atom(atom), &["ab"]), None);
        // Unknown variable.
        let whole = StringExpr::atom(AtomicExpr::Whole(Var(7)));
        assert_eq!(eval_on_row(&whole, &["ab"]), None);
        // Crossed positions.
        let crossed: AtomicExpr<Var> = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::CPos(-1),
            p2: PosExpr::CPos(0),
        };
        assert_eq!(eval_on_row(&StringExpr::atom(crossed), &["ab"]), None);
    }

    #[test]
    fn negative_cpos_substr_paper_example7() {
        // SubStr(v1, -3, -1) extracts the minutes from "0815" -> "15".
        let atom: AtomicExpr<Var> = AtomicExpr::SubStr {
            src: Var(0),
            p1: PosExpr::CPos(-3),
            p2: PosExpr::CPos(-1),
        };
        assert_eq!(
            eval_on_row(&StringExpr::atom(atom), &["0815"]),
            Some("15".into())
        );
    }

    #[test]
    fn whole_var_and_const() {
        let expr = StringExpr {
            atoms: vec![AtomicExpr::Whole(Var(1)), AtomicExpr::ConstStr("!".into())],
        };
        assert_eq!(eval_on_row(&expr, &["a", "b"]), Some("b!".into()));
    }
}
