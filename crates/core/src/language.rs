//! Abstract syntax of the semantic transformation language `Lu` (§5.1).
//!
//! `Lu` is `Lt` ⊕ `Ls` with the two couplings the paper highlights:
//!
//! ```text
//! e_s := Concatenate(f_s1, ..., f_sn) | f_s
//! f_s := ConstStr(s) | e_t | SubStr(e_t, p_s1, p_s2)     -- lookups as atoms
//! e_t := v_i | Select(C, T, p_t1 ∧ ... ∧ p_tn)
//! p_t := C = s | C = e_s                                  -- syntactic keys
//! ```
//!
//! We reuse `sst-syntactic`'s generic `StringExpr<S>`/`AtomicExpr<S>` with
//! the source type instantiated to [`LookupU`], which in turn nests
//! [`SemExpr`] inside predicates — giving the mutual recursion of the
//! grammar above for free.

use std::fmt;

use sst_syntactic::{AtomicExpr, StringExpr};
use sst_tables::{ColId, Database, TableId};

/// Index of an input string variable.
pub type VarId = u32;

/// A top-level `Lu` expression (`e_s`): a concatenation of atoms whose
/// sources are lookup expressions.
pub type SemExpr = StringExpr<LookupU>;

/// An atom of a [`SemExpr`].
pub type SemAtom = AtomicExpr<LookupU>;

/// A lookup expression (`e_t`) of the unified language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LookupU {
    /// An input variable `v_i`.
    Var(VarId),
    /// `Select(C, T, b)` with syntactic predicates.
    Select {
        /// Projected column.
        col: ColId,
        /// Table identifier.
        table: TableId,
        /// Conjunction of predicates covering a candidate key of `T`.
        cond: Vec<PredicateU>,
    },
}

/// One predicate of a `Select` condition (`p_t`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredicateU {
    /// Constrained column.
    pub col: ColId,
    /// Right-hand side.
    pub rhs: PredRhsU,
}

/// The right-hand side of a predicate: a constant or a full syntactic
/// expression (`C = e_s`), which is how `Lu` can index tables with
/// *manipulated* strings (paper Examples 1, 5, 6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredRhsU {
    /// `C = s`.
    Const(String),
    /// `C = e_s`.
    Expr(SemExpr),
}

impl fmt::Display for LookupU {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupU::Var(v) => write!(f, "v{}", v + 1),
            LookupU::Select { col, table, cond } => {
                write!(f, "Select(#c{col}, #t{table}")?;
                for p in cond {
                    write!(f, ", #c{} = ", p.col)?;
                    match &p.rhs {
                        PredRhsU::Const(s) => write!(f, "{s:?}")?,
                        PredRhsU::Expr(e) => write!(f, "{e}")?,
                    }
                }
                f.write_str(")")
            }
        }
    }
}

/// Pretty-prints a semantic expression with table/column names from `db`
/// (the paper's surface syntax).
pub fn display_sem(e: &SemExpr, db: &Database) -> String {
    let atoms: Vec<String> = e.atoms.iter().map(|a| display_atom(a, db)).collect();
    if atoms.len() == 1 {
        atoms.into_iter().next().unwrap()
    } else {
        format!("Concatenate({})", atoms.join(", "))
    }
}

fn display_atom(a: &SemAtom, db: &Database) -> String {
    match a {
        AtomicExpr::ConstStr(s) => format!("ConstStr({s:?})"),
        AtomicExpr::Whole(src) => display_lookup(src, db),
        AtomicExpr::SubStr { src, p1, p2 } => {
            format!("SubStr({}, {p1}, {p2})", display_lookup(src, db))
        }
    }
}

fn display_lookup(l: &LookupU, db: &Database) -> String {
    match l {
        LookupU::Var(v) => format!("v{}", v + 1),
        LookupU::Select { col, table, cond } => {
            let t = db.table(*table);
            let preds: Vec<String> = cond
                .iter()
                .map(|p| {
                    let c = t.column_name(p.col);
                    match &p.rhs {
                        PredRhsU::Const(s) => format!("{c} = {s:?}"),
                        PredRhsU::Expr(e) => format!("{c} = {}", display_sem(e, db)),
                    }
                })
                .collect();
            format!(
                "Select({}, {}, {})",
                t.column_name(*col),
                t.name(),
                preds.join(" ∧ ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_syntactic::PosExpr;
    use sst_tables::Table;

    fn db() -> Database {
        Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![vec!["c1", "Microsoft"], vec!["c2", "Google"]],
        )
        .unwrap()])
        .unwrap()
    }

    fn lookup_name_by_id() -> LookupU {
        LookupU::Select {
            col: 1,
            table: 0,
            cond: vec![PredicateU {
                col: 0,
                rhs: PredRhsU::Expr(SemExpr::atom(AtomicExpr::Whole(LookupU::Var(0)))),
            }],
        }
    }

    #[test]
    fn display_with_names() {
        let e = SemExpr::atom(AtomicExpr::Whole(lookup_name_by_id()));
        assert_eq!(display_sem(&e, &db()), "Select(Name, Comp, Id = v1)");
        let sub = SemExpr::atom(AtomicExpr::SubStr {
            src: lookup_name_by_id(),
            p1: PosExpr::CPos(0),
            p2: PosExpr::CPos(3),
        });
        assert_eq!(
            display_sem(&sub, &db()),
            "SubStr(Select(Name, Comp, Id = v1), 0, 3)"
        );
    }

    #[test]
    fn raw_display_is_stable() {
        let l = lookup_name_by_id();
        assert_eq!(l.to_string(), "Select(#c1, #t0, #c0 = v1)");
    }
}
