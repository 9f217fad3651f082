//! Property tests of the snapshot plane: random engines — unicode cells,
//! empty cells, lookup misses — must round-trip through
//! `Engine::snapshot_to` / `Engine::restore_from` with byte-identical
//! observables and a memo-served replay, and *every* corruption of the
//! file (bit flips, truncations, version patches) must answer a typed
//! error, never a panic and never a silently different engine.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use semantic_strings::arena::{open_snapshot, SnapshotError, SNAPSHOT_VERSION};
use semantic_strings::prelude::*;

/// A fresh per-case snapshot path (proptest cases run in one process).
fn case_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sst-snap-prop-{tag}-{}-{seed}.snap",
        std::process::id()
    ))
}

/// A 2-column lookup table over random unicode-ish content. `gap`
/// controls empty cells in the free-text column (the paper's tables are
/// keyed, so the key column stays unique and non-empty).
fn unicode_table(n: usize, seed: u8, gap: usize) -> Table {
    let decor = ["α", "日本", "Ω≠", "é", "😀", ""];
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let text = if gap > 0 && i % (gap + 1) == gap {
                String::new()
            } else {
                format!(
                    "V{}{i}{}",
                    (b'A' + seed % 20) as char,
                    decor[i % decor.len()]
                )
            };
            vec![format!("k{seed}✓{i}"), text]
        })
        .collect();
    Table::new("T", vec!["Code", "Text"], rows).expect("valid random table")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Learn on a random unicode database, snapshot, restore: the
    /// restored engine reports byte-identical observables, answers the
    /// whole column identically (misses included), and serves the
    /// replayed learn from the restored memo plane.
    #[test]
    fn random_engines_round_trip_memo_warm(
        n in 3usize..8,
        seed in 0u8..20,
        gap in 0usize..3,
        pick in 0usize..8,
    ) {
        let table = unicode_table(n, seed, gap);
        let pick = pick % n;
        let input = table.cell(0, pick as u32).to_string();
        let output = table.cell(1, pick as u32).to_string();
        prop_assume!(!output.is_empty());
        let db = Database::from_tables(vec![table.clone()]).unwrap();
        let engine = Engine::new(Arc::new(db));
        let cold = engine.learn(&[Example::new(vec![input.clone()], output)]).expect("learnable");

        let path = case_path("roundtrip", seed as u64 * 100 + n as u64 * 10 + gap as u64);
        engine.snapshot_to(&path).expect("snapshot");
        let restored = Engine::restore_from(&path, SynthesisOptions::default()).expect("restore");
        std::fs::remove_file(&path).ok();

        // The restored database answers cell-for-cell.
        let rdb = restored.db();
        let rtable = rdb.table(0);
        prop_assert_eq!(rtable.name(), table.name());
        prop_assert_eq!(rtable.columns(), table.columns());
        prop_assert_eq!(rtable.len(), table.len());
        for r in 0..n as u32 {
            prop_assert_eq!(rtable.cell(0, r), table.cell(0, r));
            prop_assert_eq!(rtable.cell(1, r), table.cell(1, r));
        }

        // The replayed learn is byte-identical and memo-served.
        let warm = restored
            .learn(&[Example::new(vec![input], table.cell(1, pick as u32))])
            .expect("warm learnable");
        prop_assert_eq!(warm.count(), cold.count());
        prop_assert_eq!(warm.size(), cold.size());
        for r in 0..n as u32 {
            let (a, b) = (
                cold.top().unwrap().run(&[table.cell(0, r)]),
                warm.top().unwrap().run(&[table.cell(0, r)]),
            );
            prop_assert_eq!(a, b);
        }
        // A miss input too (the paper's empty-output semantics).
        prop_assert_eq!(
            cold.top().unwrap().run(&["no-such-key✗"]),
            warm.top().unwrap().run(&["no-such-key✗"])
        );
        prop_assert!(restored.cache_stats().example_hits > 0, "replay was not memo-served");
    }

    /// Any single flipped byte makes the restore fail *typed*.
    #[test]
    fn flipped_bytes_fail_typed(
        seed in 0u8..10,
        offset in 0usize..4096,
        mask in 1u8..255,
    ) {
        let table = unicode_table(4, seed, 1);
        let input = table.cell(0, 0).to_string();
        let output = table.cell(1, 0).to_string();
        let db = Database::from_tables(vec![table]).unwrap();
        let engine = Engine::new(Arc::new(db));
        engine.learn(&[Example::new(vec![input], output)]).expect("learnable");
        let path = case_path("flip", seed as u64 * 10000 + offset as u64);
        engine.snapshot_to(&path).expect("snapshot");

        let mut bytes = std::fs::read(&path).unwrap();
        let offset = offset % bytes.len();
        bytes[offset] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        let result = Engine::restore_from(&path, SynthesisOptions::default());
        std::fs::remove_file(&path).ok();
        let err = result.expect_err("flipped byte must not restore");
        prop_assert!(matches!(err, ServiceError::Snapshot(_)), "wrong error kind: {:?}", err);
    }

    /// Any truncation fails typed; so does trailing garbage.
    #[test]
    fn truncations_fail_typed(seed in 0u8..10, cut in 0usize..4096) {
        let table = unicode_table(4, seed, 0);
        let input = table.cell(0, 1).to_string();
        let output = table.cell(1, 1).to_string();
        let db = Database::from_tables(vec![table]).unwrap();
        let engine = Engine::new(Arc::new(db));
        engine.learn(&[Example::new(vec![input], output)]).expect("learnable");
        let path = case_path("cut", seed as u64 * 10000 + cut as u64);
        engine.snapshot_to(&path).expect("snapshot");

        let bytes = std::fs::read(&path).unwrap();
        let cut = cut % bytes.len();
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let truncated = Engine::restore_from(&path, SynthesisOptions::default());
        prop_assert!(matches!(
            truncated.expect_err("truncation must not restore"),
            ServiceError::Snapshot(_)
        ));

        let mut padded = bytes.clone();
        padded.extend_from_slice(b"garbage");
        std::fs::write(&path, &padded).unwrap();
        let padded = Engine::restore_from(&path, SynthesisOptions::default());
        std::fs::remove_file(&path).ok();
        prop_assert!(matches!(
            padded.expect_err("trailing garbage must not restore"),
            ServiceError::Snapshot(_)
        ));
    }
}

/// An unknown format version is its own typed error (the upgrade path:
/// an old binary refusing a newer file says *why*).
#[test]
fn wrong_version_is_typed() {
    let table = unicode_table(3, 1, 0);
    let db = Database::from_tables(vec![table.clone()]).unwrap();
    let engine = Engine::new(Arc::new(db));
    engine
        .learn(&[Example::new(
            vec![table.cell(0, 0).to_string()],
            table.cell(1, 0),
        )])
        .expect("learnable");
    let path = case_path("version", 0);
    engine.snapshot_to(&path).expect("snapshot");
    let mut bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The version field is the little-endian u32 right after the magic.
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match open_snapshot(&bytes) {
        Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, SNAPSHOT_VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Version 1 keyed the memo plane by arena ids; this build refuses it
    // typed rather than misreading its example and intersection entries.
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_ne!(SNAPSHOT_VERSION, 1);
    match open_snapshot(&bytes) {
        Err(SnapshotError::UnsupportedVersion(1)) => {}
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }

    // And a wrong magic is BadMagic, not a checksum complaint.
    bytes[0] ^= 0xff;
    assert!(matches!(
        open_snapshot(&bytes),
        Err(SnapshotError::BadMagic)
    ));
}

/// Work-counter pin: learning never interns — the arena exists only in
/// a snapshot. A suite task converged on a fresh engine reports zero
/// arena traffic; the snapshot then interns the memo plane with real
/// hash-consing payoff, and a restore reports the arena it read.
#[test]
fn only_snapshots_build_the_arena() {
    let task = semantic_strings::benchmarks::all_tasks()
        .into_iter()
        .find(|t| t.name == "ex1_selling_price")
        .expect("suite task");
    let engine = Engine::new(Arc::new(task.db.clone()));
    engine
        .session()
        .converge_with(&task.rows, 3)
        .expect("suite task converges");
    let learned = engine.arena_stats();
    assert_eq!(learned.interned, 0, "the learn path interned");
    assert_eq!(learned.stored, 0);

    let path = case_path("arena-pin", 0);
    engine.snapshot_to(&path).expect("snapshot");
    let snap = engine.arena_stats();
    assert!(snap.stored > 0 && snap.interned > 0 && snap.resident_bytes > 0);
    assert!(
        snap.dedup_ratio() >= 2.0,
        "hash-consing payoff: {}",
        snap.dedup_ratio()
    );
    let restored = Engine::restore_from(&path, SynthesisOptions::default());
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.expect("restore").arena_stats().stored, snap.stored);
}
