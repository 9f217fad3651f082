//! End-to-end tests of the §6 background-knowledge tables through the full
//! synthesizer: the `standard_database` must let date/time/currency/state
//! tasks learn without any user-provided table.

use semantic_strings::core::SynthesisOptions;
use semantic_strings::datatypes::standard_database;
use semantic_strings::prelude::*;

/// The standard database has 7 tables, so the default reachability bound
/// `k = #tables` explores far deeper than these single-hop tasks need;
/// bound it like the Excel add-in would for responsiveness.
fn options(depth: usize) -> SynthesisOptions {
    let mut options = SynthesisOptions::default();
    options.lu.max_depth = Some(depth);
    options
}

fn standard_synth() -> Synthesizer {
    Synthesizer::with_options(
        std::sync::Arc::new(standard_database(Vec::new()).expect("standard database")),
        options(1),
    )
}

#[test]
fn month_number_to_name_with_standard_db() {
    let s = standard_synth();
    let learned = s
        .learn(&[
            Example::new(vec!["7"], "July"),
            Example::new(vec!["11"], "November"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["2"]).as_deref(), Some("February"));
    assert_eq!(top.run(&["12"]).as_deref(), Some("December"));
}

#[test]
fn state_round_trip_with_standard_db() {
    let s = standard_synth();
    let learned = s
        .learn(&[
            Example::new(vec!["WA"], "Washington"),
            Example::new(vec!["TX"], "Texas"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["VT"]).as_deref(), Some("Vermont"));

    let learned = s
        .learn(&[
            Example::new(vec!["Washington"], "WA"),
            Example::new(vec!["Texas"], "TX"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["Nevada"]).as_deref(), Some("NV"));
}

#[test]
fn currency_knowledge_with_standard_db() {
    let s = standard_synth();
    let learned = s
        .learn(&[
            Example::new(vec!["Japan"], "JPY"),
            Example::new(vec!["Turkey"], "TRY"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["Brazil"]).as_deref(), Some("BRL"));
}

#[test]
fn user_tables_compose_with_background_tables() {
    // A user table joins against the background Month table: the order id
    // maps to a month number, which the background knowledge names.
    let orders = Table::new(
        "OrderMonths",
        vec!["Order", "MonthNum"],
        vec![
            vec!["A-1", "1"],
            vec!["A-2", "4"],
            vec!["A-3", "9"],
            vec!["A-4", "12"],
        ],
    )
    .unwrap();
    let db = standard_database(vec![orders]).unwrap();
    let s = Synthesizer::with_options(std::sync::Arc::new(db), options(2));
    let learned = s
        .learn(&[
            Example::new(vec!["A-1"], "January"),
            Example::new(vec!["A-3"], "September"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["A-2"]).as_deref(), Some("April"));
    assert_eq!(top.run(&["A-4"]).as_deref(), Some("December"));
}

#[test]
fn ordinal_suffix_knowledge() {
    let s = standard_synth();
    let learned = s
        .learn(&[
            Example::new(vec!["3"], "3rd"),
            Example::new(vec!["11"], "11th"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["21"]).as_deref(), Some("21st"));
    assert_eq!(top.run(&["2"]).as_deref(), Some("2nd"));
    assert_eq!(top.run(&["13"]).as_deref(), Some("13th"));
}
