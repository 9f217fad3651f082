//! Differential harness for the incremental index plane.
//!
//! Every row-level mutation path — insert, update, delete, and the
//! tombstone-compaction fallback — must leave each table's two
//! incrementally maintained indexes answering **identically** to indexes
//! rebuilt from scratch over the same mutated table, and the `Select`
//! evaluator built on them answering like a scan:
//!
//! * the [`ValueIndex`] (compared structurally — rebuild from the same
//!   table yields the same row ids, so `PartialEq` is exact);
//! * the [`SubstringIndex`] (compared at the *answer* level — sorted
//!   `related_values` over a probe set — because dense internal ids
//!   legitimately diverge after delete/reinsert churn);
//! * [`Table::find_unique_row_sym`] (compared against a live-row scan
//!   oracle: `Some(r)` iff exactly one live row holds the value).
//!
//! A scripted walk pins each mutation path deterministically (this is the
//! harness CI names), and a property test replays random
//! insert/update/delete sequences over unicode and short-gram cells,
//! reusing the oracle pattern from the substring-index tests.

use proptest::prelude::*;
use sst_tables::{ColId, Database, SubstringIndex, Symbol, Table, ValueIndex};

/// Grams and degenerate probes every answer-level comparison includes on
/// top of the values currently (or ever) in the table.
const FIXED_PROBES: &[&str] = &["a", "b", "z", "\u{3c8}", " ", "ab", "b\u{3c8}", ""];

/// Asserts every table's incrementally-maintained indexes are equivalent
/// to from-scratch rebuilds. `extra_probes` should hold every cell value
/// the mutation history ever touched, so vacated values are probed too.
fn check_matches_rebuild(db: &Database, extra_probes: &[String]) -> Result<(), String> {
    for (id, t) in db.iter() {
        // Value index: exact structural equality with a fresh build.
        let fresh_vidx = ValueIndex::build(t);
        if *t.value_index() != fresh_vidx {
            return Err(format!(
                "table {id} ({}): incremental ValueIndex != rebuilt\n incremental: {:?}\n rebuilt: {:?}",
                t.name(),
                t.value_index(),
                fresh_vidx
            ));
        }

        // Substring index: answer equality over current values, ever-seen
        // values and fixed grams.
        let fresh_sub = SubstringIndex::build(t);
        let mut probes: Vec<String> = extra_probes.to_vec();
        probes.extend(FIXED_PROBES.iter().map(|s| s.to_string()));
        probes.extend(t.value_index().distinct_values().map(str::to_string));
        probes.sort_unstable();
        probes.dedup();
        for p in &probes {
            let mut got = t.substring_index().related_values(p);
            let mut want = fresh_sub.related_values(p);
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                return Err(format!(
                    "table {id} ({}): related_values({p:?}) diverged\n incremental: {got:?}\n rebuilt: {want:?}",
                    t.name()
                ));
            }
        }

        // Select evaluation: live-row scan oracle, over every value present
        // in each column plus every value the history ever touched.
        for c in 0..t.width() as ColId {
            let mut vals: Vec<Symbol> = t.row_ids().map(|r| t.cell_sym(c, r)).collect();
            vals.extend(extra_probes.iter().filter_map(|p| Symbol::get(p)));
            vals.sort_unstable();
            vals.dedup();
            for v in vals {
                let matches: Vec<_> = t.row_ids().filter(|&r| t.cell_sym(c, r) == v).collect();
                let want = match matches[..] {
                    [r] => Some(r),
                    _ => None,
                };
                let got = t.find_unique_row_sym(&[(c, v)]);
                if got != want {
                    return Err(format!(
                        "table {id} ({}): find_unique_row_sym([({c}, {:?})]) = {got:?}, scan found rows {matches:?}",
                        t.name(),
                        v.as_str()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn harness_db() -> Database {
    let log = Table::with_keys(
        "Log",
        vec!["Id", "A", "B"],
        vec![
            vec!["r1", "ab", "\u{3c8} b"],
            vec!["r2", "a", "abab"],
            vec!["r3", "b a", "\u{3c8}"],
        ],
        vec![vec!["Id"]],
    )
    .expect("seed table");
    let frozen = Table::new(
        "Frozen",
        vec!["K", "V"],
        vec![vec!["k1", "ab"], vec!["k2", "\u{3c8}\u{3c8}"]],
    )
    .expect("static table");
    Database::from_tables(vec![log, frozen]).expect("db")
}

/// The scripted differential walk: one assertion after every mutation
/// step, covering insert batches, shared-value and no-op updates, delete
/// with vacated values, reinsert-after-delete, and a delete storm that
/// crosses the compaction threshold (the rebuild fallback).
#[test]
fn incremental_indexes_match_rebuild_after_scripted_mutations() {
    let mut db = harness_db();
    let log = db.table_id("Log").unwrap();
    let frozen = db.table_id("Frozen").unwrap();
    let frozen_before = db.table(frozen).to_string();
    let mut seen: Vec<String> = Vec::new();
    let note = |vals: &[&str], seen: &mut Vec<String>| {
        seen.extend(vals.iter().map(|s| s.to_string()));
    };

    // Insert: a batch sharing values with existing cells plus fresh ones.
    let ids = db
        .insert_rows(
            log,
            vec![vec!["r4", "ab", "b"], vec!["r5", "", "a b\u{3c8}"]],
        )
        .expect("insert");
    note(&["ab", "b", "", "a b\u{3c8}"], &mut seen);
    check_matches_rebuild(&db, &seen).unwrap();

    // Update: to a value another cell already holds, then to a brand-new
    // value, then a no-op rewrite (must change nothing, not even the epoch).
    db.update_cell(log, 1, ids[0], "a").expect("shared update");
    note(&["a"], &mut seen);
    check_matches_rebuild(&db, &seen).unwrap();
    db.update_cell(log, 2, ids[1], "zz\u{3c8}")
        .expect("fresh update");
    note(&["zz\u{3c8}"], &mut seen);
    check_matches_rebuild(&db, &seen).unwrap();
    let before = db.epoch();
    db.update_cell(log, 2, ids[1], "zz\u{3c8}")
        .expect("no-op update");
    assert_eq!(db.epoch(), before, "no-op update must not bump the epoch");
    check_matches_rebuild(&db, &seen).unwrap();

    // Delete: vacate values (including the last holder of "abab"), then
    // reinsert one of them — the index must treat it as brand new.
    db.delete_rows(log, &[1]).expect("delete r2");
    check_matches_rebuild(&db, &seen).unwrap();
    db.insert_rows(log, vec![vec!["r6", "abab", "a"]])
        .expect("reinsert vacated value");
    note(&["abab"], &mut seen);
    check_matches_rebuild(&db, &seen).unwrap();

    // Compaction: bulk-insert then delete enough rows that tombstones
    // dominate, forcing the rebuild fallback; answers must not move.
    let bulk: Vec<Vec<String>> = (0..40)
        .map(|i| vec![format!("bulk{i}"), format!("v{}", i % 5), "b".to_string()])
        .collect();
    for row in &bulk {
        seen.extend(row.iter().cloned());
    }
    let bulk_ids = db.insert_rows(log, bulk).expect("bulk insert");
    check_matches_rebuild(&db, &seen).unwrap();
    let slots_before = db.table(log).slots();
    db.delete_rows(log, &bulk_ids[..36]).expect("delete storm");
    assert!(
        db.table(log).slots() < slots_before,
        "36 tombstones past the threshold must trigger compaction"
    );
    check_matches_rebuild(&db, &seen).unwrap();

    // The untouched table's cells never moved and its indexes still equal
    // a rebuild.
    let frozen = db.table(frozen);
    assert_eq!(frozen.to_string(), frozen_before);
    assert_eq!(*frozen.value_index(), ValueIndex::build(frozen));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/update/delete sequences (unicode + short-gram cells)
    /// leave both indexes equivalent to a from-scratch rebuild, and `Select`
    /// evaluation equal to a scan, after **every** op.
    #[test]
    fn random_mutation_sequences_match_rebuild(
        kinds in prop::collection::vec(0u8..3, 24..25),
        sels in prop::collection::vec(0usize..1024, 24..25),
        cols in prop::collection::vec(1u32..3, 24..25),
        cells_a in prop::collection::vec("[ab\u{3c8} ]{0,6}", 24..25),
        cells_b in prop::collection::vec("[ab\u{3c8} cz]{0,9}", 24..25),
    ) {
        let mut db = harness_db();
        let log = db.table_id("Log").unwrap();
        let mut next_id = 0u32;
        let mut seen: Vec<String> = Vec::new();

        for i in 0..kinds.len() {
            let live: Vec<_> = db.table(log).row_ids().collect();
            seen.push(cells_a[i].clone());
            seen.push(cells_b[i].clone());
            match kinds[i] {
                // Insert one row with a fresh synthetic key (col 0 is the
                // declared candidate key, so it is never mutated).
                0 => {
                    next_id += 1;
                    db.insert_rows(
                        log,
                        vec![vec![
                            format!("p{next_id:04}"),
                            cells_a[i].clone(),
                            cells_b[i].clone(),
                        ]],
                    )
                    .expect("insert");
                }
                // Update one live cell in a data column.
                1 if !live.is_empty() => {
                    let row = live[sels[i] % live.len()];
                    db.update_cell(log, cols[i] as ColId, row, &cells_b[i])
                        .expect("update");
                }
                // Delete one live row.
                2 if !live.is_empty() => {
                    let row = live[sels[i] % live.len()];
                    db.delete_rows(log, &[row]).expect("delete");
                }
                _ => {}
            }
            let outcome = check_matches_rebuild(&db, &seen);
            prop_assert!(
                outcome.is_ok(),
                "after op {i} (kind {}): {}",
                kinds[i],
                outcome.unwrap_err()
            );
        }
    }
}
