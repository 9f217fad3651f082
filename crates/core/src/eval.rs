//! Evaluation of `Lu` expressions.
//!
//! Combines the two sub-language semantics: lookups resolve through the
//! database (empty string when no row matches, as in `Lt`), and the
//! syntactic layer extracts substrings/concatenates (undefined positions
//! yield `None`, as in `Ls`).

use sst_syntactic::{eval_expr, TokenSet};
use sst_tables::Database;

use crate::language::{LookupU, PredRhsU, SemExpr};

/// Evaluates a semantic expression on an input row.
pub fn eval_sem(
    expr: &SemExpr,
    db: &Database,
    inputs: &[&str],
    tokens: &TokenSet,
) -> Option<String> {
    eval_expr(
        expr,
        &mut |src: &LookupU| eval_lookup_u(src, db, inputs, tokens),
        tokens,
    )
}

/// Evaluates a lookup expression of the unified language.
fn eval_lookup_u(
    expr: &LookupU,
    db: &Database,
    inputs: &[&str],
    tokens: &TokenSet,
) -> Option<String> {
    match expr {
        LookupU::Var(v) => inputs.get(*v as usize).map(|s| (*s).to_string()),
        LookupU::Select { col, table, cond } => {
            let t = db.table(*table);
            let mut resolved: Vec<(u32, String)> = Vec::with_capacity(cond.len());
            for p in cond {
                let value = match &p.rhs {
                    PredRhsU::Const(s) => s.clone(),
                    PredRhsU::Expr(e) => eval_sem(e, db, inputs, tokens)?,
                };
                resolved.push((p.col, value));
            }
            let conds: Vec<(u32, &str)> = resolved.iter().map(|(c, v)| (*c, v.as_str())).collect();
            Some(match t.find_unique_row(&conds) {
                Some(row) => t.cell(*col, row).to_string(),
                None => String::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::PredicateU;
    use sst_syntactic::{AtomicExpr, PosExpr, RegexSeq, Token};
    use sst_tables::Table;

    fn tokens() -> TokenSet {
        TokenSet::standard()
    }

    /// Example 5's database: indexing with concatenated strings.
    fn bike_db() -> Database {
        Database::from_tables(vec![Table::new(
            "BikePrices",
            vec!["Bike", "Price"],
            vec![
                vec!["Ducati100", "10,000"],
                vec!["Ducati125", "12,500"],
                vec!["Ducati250", "18,000"],
                vec!["Honda125", "11,500"],
                vec!["Honda250", "19,000"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    #[test]
    fn example5_concat_indexed_lookup() {
        // Select(Price, BikePrices, Bike = Concatenate(v1, v2)).
        let db = bike_db();
        let expr = SemExpr::atom(AtomicExpr::Whole(LookupU::Select {
            col: 1,
            table: 0,
            cond: vec![PredicateU {
                col: 0,
                rhs: PredRhsU::Expr(SemExpr {
                    atoms: vec![
                        AtomicExpr::Whole(LookupU::Var(0)),
                        AtomicExpr::Whole(LookupU::Var(1)),
                    ],
                }),
            }],
        }));
        assert_eq!(
            eval_sem(&expr, &db, &["Honda", "125"], &tokens()).as_deref(),
            Some("11,500")
        );
        assert_eq!(
            eval_sem(&expr, &db, &["Ducati", "250"], &tokens()).as_deref(),
            Some("18,000")
        );
        // Unknown bike: lookup misses, evaluates to empty string.
        assert_eq!(
            eval_sem(&expr, &db, &["Yamaha", "50"], &tokens()).as_deref(),
            Some("")
        );
    }

    /// Example 6's database and transformation: lookups indexed by
    /// substrings of the input, concatenated with spaces.
    #[test]
    fn example6_company_expansion() {
        let db = Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
                vec!["c4", "Facebook"],
                vec!["c5", "IBM"],
                vec!["c6", "Xerox"],
            ],
        )
        .unwrap()])
        .unwrap();
        // SubStr2(v1, AlphTok, i) = i-th alphanumeric word.
        let word = |i: i32| {
            SemExpr::atom(AtomicExpr::SubStr {
                src: LookupU::Var(0),
                p1: PosExpr::Pos {
                    r1: RegexSeq::epsilon(),
                    r2: RegexSeq::token(Token::AlphNum),
                    c: i,
                },
                p2: PosExpr::Pos {
                    r1: RegexSeq::token(Token::AlphNum),
                    r2: RegexSeq::epsilon(),
                    c: i,
                },
            })
        };
        let lookup = |i: i32| {
            AtomicExpr::Whole(LookupU::Select {
                col: 1,
                table: 0,
                cond: vec![PredicateU {
                    col: 0,
                    rhs: PredRhsU::Expr(word(i)),
                }],
            })
        };
        let expr = SemExpr {
            atoms: vec![
                lookup(1),
                AtomicExpr::ConstStr(" ".into()),
                lookup(2),
                AtomicExpr::ConstStr(" ".into()),
                lookup(3),
            ],
        };
        assert_eq!(
            eval_sem(&expr, &db, &["c4 c3 c1"], &tokens()).as_deref(),
            Some("Facebook Apple Microsoft")
        );
        assert_eq!(
            eval_sem(&expr, &db, &["c2 c5 c6"], &tokens()).as_deref(),
            Some("Google IBM Xerox")
        );
    }

    #[test]
    fn substring_of_lookup_result() {
        // SubStr(Select(...), 0, 3): first 3 chars of the looked-up name.
        let db = bike_db();
        let expr = SemExpr::atom(AtomicExpr::SubStr {
            src: LookupU::Select {
                col: 1,
                table: 0,
                cond: vec![PredicateU {
                    col: 0,
                    rhs: PredRhsU::Const("Honda250".into()),
                }],
            },
            p1: PosExpr::CPos(0),
            p2: PosExpr::CPos(2),
        });
        assert_eq!(eval_sem(&expr, &db, &[], &tokens()).as_deref(), Some("19"));
    }

    #[test]
    fn missing_variable_propagates_none() {
        let db = bike_db();
        let expr = SemExpr::atom(AtomicExpr::Whole(LookupU::Var(9)));
        assert_eq!(eval_sem(&expr, &db, &["x"], &tokens()), None);
    }
}
