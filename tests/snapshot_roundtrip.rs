//! Property tests of the snapshot plane: random engines — unicode cells,
//! empty cells, lookup misses — must round-trip through
//! `Engine::snapshot_to` / `Engine::restore_from` with byte-identical
//! observables and a memo-served replay, and *every* corruption of the
//! file (bit flips, truncations, version patches) must answer a typed
//! error, never a panic and never a silently different engine. Files an
//! earlier build wrote (`tests/fixtures/`) must keep restoring warm, and a
//! snapshot's bytes must depend on the engine alone, not on what the
//! process interned before (checked across fresh child processes).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use proptest::prelude::*;

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask, Category};
use semantic_strings::core::snapshot::{open_snapshot, SnapshotError, SNAPSHOT_VERSION};
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

    // Versions 1 and 2 wrote the memo plane as a hash-consed arena (1
    // also keyed it by arena ids); this build refuses both typed rather
    // than misreading them.
    for old in [1u32, 2] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        assert_ne!(SNAPSHOT_VERSION, old);
        match open_snapshot(&bytes) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, old),
            other => panic!("expected UnsupportedVersion({old}), got {other:?}"),
        }
    }

    // And a wrong magic is BadMagic, not a checksum complaint.
    bytes[0] ^= 0xff;
    assert!(matches!(
        open_snapshot(&bytes),
        Err(SnapshotError::BadMagic)
    ));
}

/// Snapshot bytes `Engine::snapshot_to` wrote for the subset's tasks at
/// format version 2 (the hash-consed arena), measured through this test:
/// the tree codec must never write more for any of them.
const VERSION_2_BYTES: [(&str, u64); 6] = [
    ("ex2_customer_price_join", 25_296),
    ("company_code_to_name", 3_270),
    ("product_name_to_code", 5_781),
    ("ex1_selling_price", 55_472),
    ("ex5_bike_price_concat", 9_426),
    ("ex6_company_series", 19_742),
];

/// Work-counter pin: learning never writes a snapshot. Over the first
/// three tasks of each category, a task converged on a fresh engine
/// reports zero sharing traffic; its snapshot then writes the memo plane
/// with pointer-sharing payoff (`interned / stored` at least 2, per task
/// and summed over the subset) in no more bytes than format version 2
/// wrote, and a restore reports the allocations it read. Snapshotting the
/// restored engine again writes the same allocations and references: the
/// restore kept the live sharing.
#[test]
fn only_snapshots_build_the_arena() {
    let (mut lookup, mut semantic) = (0, 0);
    let mut tasks = all_tasks();
    tasks.retain(|t| {
        let seen = match t.category {
            Category::Lookup => &mut lookup,
            Category::Semantic => &mut semantic,
        };
        *seen += 1;
        *seen <= 3
    });
    assert_eq!(tasks.len(), 6);
    let (mut stored, mut interned) = (0, 0);
    for task in tasks {
        let engine = Engine::new(Arc::new(task.db.clone()));
        engine
            .session()
            .converge_with(&task.rows, 3)
            .expect("suite task converges");
        let learned = engine.arena_stats();
        assert_eq!(
            learned.interned, 0,
            "{}: the learn path interned",
            task.name
        );
        assert_eq!(learned.stored, 0, "{}", task.name);

        let path = case_path("arena-pin", task.id as u64);
        let bytes = engine.snapshot_to(&path).expect("snapshot");
        let snap = engine.arena_stats();
        assert!(
            snap.stored > 0 && snap.interned > 0 && snap.resident_bytes > 0,
            "{}: {snap:?}",
            task.name
        );
        assert!(
            snap.dedup_ratio() >= 2.0,
            "{}: sharing payoff {}",
            task.name,
            snap.dedup_ratio()
        );
        let (_, limit) = VERSION_2_BYTES
            .iter()
            .find(|(name, _)| *name == task.name)
            .expect("pinned task");
        assert!(
            bytes <= *limit,
            "{}: {bytes} snapshot bytes, version 2 wrote {limit}",
            task.name
        );
        let restored = Engine::restore_from(&path, SynthesisOptions::default());
        std::fs::remove_file(&path).ok();
        let restored = restored.expect("restore");
        assert_eq!(restored.arena_stats().stored, snap.stored);
        restored.snapshot_to(&path).expect("re-snapshot");
        std::fs::remove_file(&path).ok();
        let again = restored.arena_stats();
        assert_eq!(
            (again.stored, again.interned),
            (snap.stored, snap.interned),
            "{}: the restore did not keep the live sharing",
            task.name
        );
        stored += snap.stored;
        interned += snap.interned;
    }
    assert!(
        interned as f64 / stored as f64 >= 2.0,
        "sharing payoff: {interned} interned over {stored} stored"
    );
}

/// What one §3.2 conversation over `task` shows: examples used, program
/// count, size, and the top program's output on every row.
fn replay(engine: &Engine, task: &BenchmarkTask) -> (usize, String, usize, Vec<Option<String>>) {
    let mut session = engine.session();
    let outcome = session.converge_with(&task.rows, 3).expect("suite task");
    let outputs = task
        .rows
        .iter()
        .map(|row| {
            let inputs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
            session.run(&inputs).expect("a learned session")
        })
        .collect();
    (
        outcome.examples_used,
        session.count().unwrap().to_decimal(),
        session.size().unwrap(),
        outputs,
    )
}

/// Read compatibility: format-version-3 snapshots written by an earlier
/// build (a cold engine converged on the task, then `snapshot_to`)
/// restore under the default options and replay the conversation exactly
/// as a cold engine does, with every example and intersection served from
/// the file. Task 19's file holds two examples and one intersection chain.
#[test]
fn version_3_fixtures_restore_and_replay_warm() {
    let tasks = all_tasks();
    let fixtures = [
        (2, "task_2_company_code_to_name.v3.snap", (1, 0)),
        (19, "task_19_month_name_to_number.v3.snap", (2, 1)),
    ];
    for (id, file, (examples, chains)) in fixtures {
        let task = tasks.iter().find(|t| t.id == id).expect("suite task");
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let restored = Engine::restore_from(&path, SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let (_, restored_examples, restored_chains) = restored.cache_entries();
        assert_eq!(
            (restored_examples, restored_chains),
            (examples, chains),
            "{file}"
        );
        let cold = Engine::new(Arc::new(task.db.clone()));
        assert_eq!(replay(&restored, task), replay(&cold, task), "{file}");
        let stats = restored.cache_stats();
        assert_eq!(
            (stats.example_misses, stats.intersect_misses),
            (0, 0),
            "{file}: the replay missed the restored memo plane"
        );
    }
}

/// Carries the child's snapshot path from the parent; unset, the child
/// test does nothing.
const DETERMINISM_OUT_ENV: &str = "SST_SNAPSHOT_DETERMINISM_OUT";

/// Set when the child should learn tasks 1–12 before task 13.
const DETERMINISM_WARMUP_ENV: &str = "SST_SNAPSHOT_DETERMINISM_WARMUP";

/// The child half of [`snapshot_bytes_do_not_depend_on_process_history`]:
/// optionally converges and snapshots tasks 1–12 on their own engines, as
/// a suite run does (learning and snapshot writes intern strings into the
/// process), then converges task 13 on a cold engine and snapshots it to
/// `$SST_SNAPSHOT_DETERMINISM_OUT`.
#[test]
#[ignore = "run by snapshot_bytes_do_not_depend_on_process_history as a child process"]
fn determinism_child() {
    let Some(out) = std::env::var_os(DETERMINISM_OUT_ENV) else {
        return;
    };
    let warmup = std::env::var_os(DETERMINISM_WARMUP_ENV).is_some();
    for task in all_tasks() {
        if task.id == 13 || (warmup && task.id < 13) {
            let engine = Engine::new(Arc::new(task.db.clone()));
            replay(&engine, &task);
            engine.snapshot_to(Path::new(&out)).expect("snapshot");
        }
    }
}

/// Task 13's snapshot is byte-identical whether or not its process learned
/// tasks 1–12 first: the symbol table and every memo are written in an
/// order the engine decides, never in the order of process-global symbol
/// ids.
#[test]
fn snapshot_bytes_do_not_depend_on_process_history() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("snapshot_determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the snapshot directory");
    let snapshot = |warmup: bool| {
        let out = dir.join(format!("task_13_warmup_{warmup}.snap"));
        let mut child = Command::new(std::env::current_exe().expect("the test binary's path"));
        child
            .args(["--exact", "determinism_child", "--ignored"])
            .env(DETERMINISM_OUT_ENV, &out)
            .env_remove(DETERMINISM_WARMUP_ENV);
        if warmup {
            child.env(DETERMINISM_WARMUP_ENV, "1");
        }
        let run = child.output().expect("spawning the snapshot process");
        assert!(
            run.status.success(),
            "the snapshot process failed ({}):\n{}{}",
            run.status,
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read(&out).expect("the child's snapshot")
    };
    let (alone, after_others) = (snapshot(false), snapshot(true));
    assert!(
        alone == after_others,
        "task 13 snapshots {} bytes alone and {} bytes after tasks 1-12",
        alone.len(),
        after_others.len()
    );
    std::fs::remove_dir_all(&dir).expect("removing the snapshot directory");
}
