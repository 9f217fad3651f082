//! The lookup language `Lt` is `Lu`'s exact-gate fragment: its programs
//! are learned by `generate_str_t` per example, folded with `Lu`'s own
//! `intersect_du`, and counted by `SemDStruct::count`.
//!
//! Every literal below was recorded from the standalone `Lt` synthesizer
//! (its own generate, intersect and count over a separate `Dt`
//! structure) before that synthesizer was replaced by the fragment. The
//! fragment must reproduce each value exactly: the 12 lookup tasks at
//! example prefixes 1..=3, and the two Theorem 1 families of §4.2.

use semantic_strings::benchmarks::{all_tasks, chain_database, wide_key_database, Category};
use semantic_strings::core::{generate_str_t, intersect_du, Example, SemDStruct};
use semantic_strings::tables::Database;

/// `GenerateStr_t` per example, intersected left to right.
fn learn_lt(db: &Database, examples: &[Example], depth: usize) -> SemDStruct {
    let mut learned = examples
        .iter()
        .map(|e| generate_str_t(db, &e.input_refs(), &e.output, depth));
    let first = learned.next().expect("at least one example");
    learned.fold(first, |d, next| intersect_du(&d, &next))
}

#[test]
fn lookup_task_counts_match_the_standalone_lt_learner() {
    // Task id, then the count after 1, 2 and 3 examples. Task 11's 0s are
    // prefixes where no consistent `Lt` program exists.
    const PINS: [(usize, [u64; 3]); 12] = [
        (1, [24, 1, 1]),
        (2, [3, 1, 1]),
        (3, [3, 1, 1]),
        (4, [7, 1, 1]),
        (5, [6, 1, 1]),
        (6, [3, 1, 1]),
        (7, [5, 1, 1]),
        (8, [4, 1, 1]),
        (9, [6, 1, 1]),
        (10, [3, 1, 1]),
        (11, [5, 0, 0]),
        (12, [3, 1, 1]),
    ];
    let tasks = all_tasks();
    let lookup: Vec<usize> = tasks
        .iter()
        .filter(|t| t.category == Category::Lookup)
        .map(|t| t.id)
        .collect();
    assert_eq!(lookup, PINS.map(|(id, _)| id));
    for (id, counts) in PINS {
        let task = &tasks[id - 1];
        // The default depth bound: the number of tables (§4.3).
        let depth = task.db.len().max(1);
        for (n, want) in (1..=3).zip(counts) {
            let d = learn_lt(&task.db, task.examples(n), depth);
            assert_eq!(
                d.count(depth).to_u64(),
                Some(want),
                "task {id} ({}) after {n} examples",
                task.name
            );
            assert_eq!(d.has_programs(), want > 0, "task {id} after {n} examples");
        }
    }
}

#[test]
fn chain_counts_match_the_standalone_lt_learner() {
    // Chain length m, then the count at depth bounds 0, 1, 2, 3 and the
    // default (m − 1 tables). Generation and counting share the bound.
    const PINS: [(usize, [u64; 5]); 17] = [
        (2, [0, 8, 48, 248, 8]),
        (3, [0, 4, 16, 52, 16]),
        (4, [0, 0, 70, 773, 773]),
        (5, [0, 0, 16, 146, 944]),
        (6, [0, 0, 0, 468, 64_697]),
        (7, [0, 0, 0, 73, 67_723]),
        (8, [0, 0, 0, 0, 5_319_166]),
        (9, [0, 0, 0, 0, 4_936_919]),
        (10, [0, 0, 0, 0, 433_681_685]),
        (11, [0, 0, 0, 0, 363_458_587]),
        (12, [0, 0, 0, 0, 35_227_743_752]),
        (13, [0, 0, 0, 0, 27_039_603_005]),
        (14, [0, 0, 0, 0, 2_856_932_269_815]),
        (15, [0, 0, 0, 0, 2_031_476_209_464]),
        (16, [0, 0, 0, 0, 231_533_640_639_149]),
        (17, [0, 0, 0, 0, 153_935_813_752_971]),
        (18, [0, 0, 0, 0, 18_758_515_127_677_421]),
    ];
    for (m, counts) in PINS {
        let (db, example) = chain_database(m);
        let examples = [example];
        for (depth, want) in [0, 1, 2, 3, db.len()].into_iter().zip(counts) {
            let d = learn_lt(&db, &examples, depth);
            assert_eq!(
                d.count(depth).to_u64(),
                Some(want),
                "chain m={m} depth {depth}"
            );
        }
    }
}

#[test]
fn wide_key_counts_match_the_standalone_lt_learner() {
    // Key width n, input variables m, then the count: (m + 1)^n.
    const PINS: [(usize, usize, u64); 7] = [
        (1, 1, 2),
        (2, 3, 16),
        (3, 2, 27),
        (4, 4, 625),
        (6, 5, 46_656),
        (8, 8, 43_046_721),
        (10, 10, 25_937_424_601),
    ];
    for (n, m, want) in PINS {
        let (db, example) = wide_key_database(n, m);
        let d = learn_lt(&db, &[example], db.len());
        assert_eq!(
            d.count(db.len()).to_u64(),
            Some(want),
            "wide key n={n} m={m}"
        );
    }
}
