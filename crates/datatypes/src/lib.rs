//! Background-knowledge tables for standard data types (§6).
//!
//! Manipulating strings that denote dates, times, phone numbers or
//! currencies requires *semantic* knowledge ("month 2 is February", "90 is
//! Turkey's ISD code"). The paper encodes that knowledge, once and for
//! all, as relational tables the synthesizer can `Select` from — this crate
//! is that table library. Each builder returns an [`sst_tables::Table`]
//! with the candidate keys the paper's examples rely on.

#![forbid(unsafe_code)]

mod currency;
mod date;
mod geo;
mod phone;
mod time;

pub use currency::currency_table;
pub use date::{date_ord_table, month_table, weekday_table};
pub use geo::us_states_table;
pub use phone::isd_table;
pub use time::time_table;

use sst_tables::{Database, Table, TableError};

/// A database preloaded with every background table, to which user tables
/// can be added (mirrors the add-in's hard-coded helper tables).
pub fn standard_database(user_tables: Vec<Table>) -> Result<Database, TableError> {
    let mut db = Database::new();
    db.add_table(time_table())?;
    db.add_table(month_table())?;
    db.add_table(date_ord_table())?;
    db.add_table(weekday_table())?;
    db.add_table(currency_table())?;
    db.add_table(isd_table())?;
    db.add_table(us_states_table())?;
    for t in user_tables {
        db.add_table(t)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_database_contains_all_tables() {
        let db = standard_database(Vec::new()).unwrap();
        for name in [
            "Time", "Month", "DateOrd", "Weekday", "Currency", "IsdCodes", "UsStates",
        ] {
            assert!(db.table_id(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn user_tables_appended() {
        let t = Table::new("Mine", vec!["A"], vec![vec!["x"]]).unwrap();
        let db = standard_database(vec![t]).unwrap();
        assert!(db.table_id("Mine").is_some());
        assert_eq!(db.len(), 8);
    }
}
