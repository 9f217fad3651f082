//! Failure-injection and robustness tests: hostile inputs must never
//! panic, and degraded situations must degrade predictably (empty program
//! sets, constant fallbacks) rather than silently mislearn.

use semantic_strings::core::{converge, Synthesizer};
use semantic_strings::prelude::*;
use semantic_strings::tables::Table;

fn synth(tables: Vec<Table>) -> Synthesizer {
    Synthesizer::new(std::sync::Arc::new(Database::from_tables(tables).unwrap()))
}

#[test]
fn empty_cells_in_tables_are_tolerated() {
    let t = Table::new(
        "T",
        vec!["K", "V"],
        vec![vec!["a", "Apple"], vec!["b", ""], vec!["c", "Cherry"]],
    )
    .unwrap();
    let s = synth(vec![t]);
    let learned = s.learn(&[Example::new(vec!["a"], "Apple")]).unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["c"]).as_deref(), Some("Cherry"));
    // The empty cell evaluates to empty, not a crash.
    let got = top.run(&["b"]);
    assert!(got.is_some());
}

#[test]
fn empty_input_columns_are_tolerated() {
    let t = Table::new(
        "T",
        vec!["K", "V"],
        vec![vec!["a", "Apple"], vec!["b", "Berry"]],
    )
    .unwrap();
    let s = synth(vec![t]);
    // Second input column is empty in the example.
    let learned = s.learn(&[Example::new(vec!["a", ""], "Apple")]).unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["b", ""]).as_deref(), Some("Berry"));
}

#[test]
fn unicode_inputs_use_character_positions() {
    // Multi-byte characters: substring extraction must count characters.
    let s = synth(Vec::new());
    let learned = s
        .learn(&[
            Example::new(vec!["héllo wörld"], "wörld"),
            Example::new(vec!["grüß dich"], "dich"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["käse brot"]).as_deref(), Some("brot"));
}

#[test]
fn regex_special_characters_in_data_are_literal() {
    // Token machinery must not interpret (, ), *, + or . as regex syntax.
    let s = synth(Vec::new());
    let learned = s
        .learn(&[
            Example::new(vec!["(a+b)*c"], "a+b"),
            Example::new(vec!["(x+y)*z"], "x+y"),
        ])
        .unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["(p+q)*r"]).as_deref(), Some("p+q"));
}

#[test]
fn long_inputs_do_not_blow_up() {
    let long_in = "ab ".repeat(20) + "42";
    let s = synth(Vec::new());
    let learned = s
        .learn(&[Example::new(vec![long_in.as_str()], "42")])
        .unwrap();
    let top = learned.top().unwrap();
    let other = "xy ".repeat(20) + "77";
    assert_eq!(top.run(&[other.as_str()]).as_deref(), Some("77"));
}

#[test]
fn output_unrelated_to_everything_still_learns_constant() {
    let t = Table::new("T", vec!["K", "V"], vec![vec!["a", "b"]]).unwrap();
    let s = synth(vec![t]);
    let learned = s
        .learn(&[Example::new(vec!["a"], "!!!")])
        .expect("constant program");
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["zzz"]).as_deref(), Some("!!!"));
}

#[test]
fn duplicate_examples_are_harmless() {
    let t = Table::new(
        "T",
        vec!["K", "V"],
        vec![vec!["a", "Apple"], vec!["b", "Berry"]],
    )
    .unwrap();
    let s = synth(vec![t]);
    let e = Example::new(vec!["a"], "Apple");
    let learned = s.learn(&[e.clone(), e.clone(), e]).unwrap();
    assert_eq!(learned.run(&["b"]).as_deref(), Some("Berry"));
}

#[test]
fn converge_with_single_row_spreadsheet() {
    let t = Table::new("T", vec!["K", "V"], vec![vec!["a", "Apple"]]).unwrap();
    let s = synth(vec![t]);
    let rows = vec![Example::new(vec!["a"], "Apple")];
    let report = converge(&s, &rows, 3).unwrap();
    assert!(report.converged);
    assert_eq!(report.examples.len(), 1);
}

#[test]
fn deep_depth_bound_is_safe_on_cyclic_tables() {
    // Two tables forming a reference cycle; a huge depth bound must not
    // hang (reachability saturates) and learned programs stay finite.
    let t1 = Table::new("A", vec!["X", "Y"], vec![vec!["p", "q"], vec!["r", "s"]]).unwrap();
    let t2 = Table::new("B", vec!["Y", "X"], vec![vec!["q", "p"], vec!["s", "r"]]).unwrap();
    let db = Database::from_tables(vec![t1, t2]).unwrap();
    let mut options = semantic_strings::core::SynthesisOptions::default();
    options.lu.max_depth = Some(40);
    let s = Synthesizer::with_options(std::sync::Arc::new(db), options);
    let learned = s.learn(&[Example::new(vec!["p"], "q")]).unwrap();
    let top = learned.top().unwrap();
    assert_eq!(top.run(&["r"]).as_deref(), Some("s"));
}

#[test]
fn whitespace_only_strings() {
    let s = synth(Vec::new());
    let learned = s
        .learn(&[Example::new(vec!["   "], " ")])
        .expect("learnable");
    let top = learned.top().unwrap();
    assert!(top.run(&["   "]).is_some());
}

#[test]
fn arity_one_vs_many_columns() {
    // Ten input columns, output uses the last one.
    let s = synth(Vec::new());
    let inputs: Vec<String> = (0..10).map(|i| format!("col{i}")).collect();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let learned = s.learn(&[Example::new(refs.clone(), "col9")]).unwrap();
    let top = learned.top().unwrap();
    let other: Vec<String> = (0..10).map(|i| format!("x{i}")).collect();
    let other_refs: Vec<&str> = other.iter().map(String::as_str).collect();
    assert_eq!(top.run(&other_refs).as_deref(), Some("x9"));
}
