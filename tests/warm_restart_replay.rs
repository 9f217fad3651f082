//! Kill → restore → replay across a real process boundary.
//!
//! The parent test learns every suite task on a cold engine through the
//! §3.2 session loop, records its observables (examples used,
//! convergence, program count, size and the top program's output on every
//! row) and snapshots the engine. It then re-runs this test binary as a
//! child that restores each engine, replays the same conversation and
//! reports the same observables plus its memo hits and misses. The parent
//! asserts that every observable is bit-identical across the boundary;
//! that every replayed task was served with warm cache hits and without a
//! single example or intersection miss (a silently cold restore would
//! match byte for byte, just slowly; and a cold engine already hits its
//! own memos on multi-example tasks, so hits alone do not show warmth);
//! and that the 50 snapshots together stay at or below
//! [`SUITE_SNAPSHOT_BYTES`].
//!
//! Run it with `cargo test --test warm_restart_replay`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::core::SynthesisOptions;
use semantic_strings::service::Engine;

/// Carries the snapshot directory from the parent to the child; unset,
/// the child test does nothing.
const SNAPSHOT_DIR_ENV: &str = "SST_WARM_RESTART_SNAPSHOT_DIR";

/// The child test's name, for `--exact`.
const CHILD: &str = "replay_child";

/// The child's report, inside the snapshot directory.
const REPORT: &str = "replay.txt";

/// The paper's example budget.
const MAX_EXAMPLES: usize = 3;

/// What format version 2 (the hash-consed arena) wrote for the suite's
/// 50 snapshots; the pointer-shared tree must not write more.
const SUITE_SNAPSHOT_BYTES: u64 = 696_908;

fn snapshot_path(dir: &Path, task: &BenchmarkTask) -> PathBuf {
    dir.join(format!("task_{}.snap", task.id))
}

/// Runs the §3.2 conversation on `engine` and records what it shows, as
/// the one line that crosses the process boundary.
fn observe(engine: &Engine, task: &BenchmarkTask) -> String {
    let tag = format!("task {} ({})", task.id, task.name);
    let mut session = engine.session();
    let outcome = session
        .converge_with(&task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let outputs: Vec<Option<String>> = task
        .rows
        .iter()
        .map(|row| {
            let inputs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
            session.run(&inputs).ok().flatten()
        })
        .collect();
    format!(
        "{tag}: examples {}, converged {}, count {}, size {}, outputs {outputs:?}",
        outcome.examples_used,
        outcome.converged,
        session.count().expect("a learned session").to_decimal(),
        session.size().expect("a learned session"),
    )
}

/// Memo-plane traffic an engine has served so far: `<hits>\t<example
/// misses>\t<intersection misses>`.
fn memo_traffic(engine: &Engine) -> String {
    let stats = engine.cache_stats();
    let hits = stats.dag_hits + stats.example_hits + stats.intersect_hits;
    format!(
        "{hits}\t{}\t{}",
        stats.example_misses, stats.intersect_misses
    )
}

/// The child half: restores every engine from `$SST_WARM_RESTART_SNAPSHOT_DIR`
/// and writes one `<memo traffic>\t<observables>` line per task.
#[test]
#[ignore = "run by restored_engines_replay_bit_identical_and_warm as a child process"]
fn replay_child() {
    let Some(dir) = std::env::var_os(SNAPSHOT_DIR_ENV) else {
        return;
    };
    let dir = PathBuf::from(dir);
    let mut report = String::new();
    for task in all_tasks() {
        let engine = Engine::restore_from(&snapshot_path(&dir, &task), SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("task {} ({}) failed to restore: {e}", task.id, task.name));
        let observed = observe(&engine, &task);
        report.push_str(&format!("{}\t{observed}\n", memo_traffic(&engine)));
    }
    std::fs::write(dir.join(REPORT), report).expect("writing the replay report");
}

#[test]
fn restored_engines_replay_bit_identical_and_warm() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("warm_restart_replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the snapshot directory");

    let tasks = all_tasks();
    let mut learned = Vec::new();
    let mut snapshot_bytes = 0u64;
    for task in &tasks {
        let engine = Engine::new(Arc::new(task.db.clone()));
        learned.push(observe(&engine, task));
        snapshot_bytes += engine
            .snapshot_to(&snapshot_path(&dir, task))
            .unwrap_or_else(|e| panic!("task {} ({}) failed to snapshot: {e}", task.id, task.name));
    }

    let child = Command::new(std::env::current_exe().expect("the test binary's path"))
        .args(["--exact", CHILD, "--ignored"])
        .env(SNAPSHOT_DIR_ENV, &dir)
        .output()
        .expect("spawning the replay process");
    assert!(
        child.status.success(),
        "the replay process failed ({}):\n{}{}",
        child.status,
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
    let report = std::fs::read_to_string(dir.join(REPORT)).expect("the replay report");

    let mut replayed = Vec::new();
    let mut cold = Vec::new();
    let mut missed = Vec::new();
    let mut total_warm_hits = 0u64;
    for (task, line) in tasks.iter().zip(report.lines()) {
        let fields: Vec<&str> = line.splitn(4, '\t').collect();
        let [hits, example_misses, intersect_misses] =
            [0, 1, 2].map(|i| fields[i].parse::<u64>().expect("a memo counter"));
        let tag = format!("task {} ({})", task.id, task.name);
        if hits == 0 {
            cold.push(tag.clone());
        }
        if example_misses + intersect_misses > 0 {
            missed.push(format!(
                "{tag}: {example_misses} example, {intersect_misses} intersection"
            ));
        }
        total_warm_hits += hits;
        replayed.push(fields[3].to_string());
    }
    assert_eq!(
        replayed, learned,
        "kill-restore-replay observables drifted across the process boundary"
    );
    assert!(
        missed.is_empty(),
        "restored engines missed their memo plane on {} tasks: {}",
        missed.len(),
        missed.join("; ")
    );
    assert!(
        cold.is_empty(),
        "restored engines answered cold: {}",
        cold.join(", ")
    );
    assert!(total_warm_hits > 0, "the replay served no warm hits");
    assert!(
        snapshot_bytes <= SUITE_SNAPSHOT_BYTES,
        "suite snapshots grew to {snapshot_bytes} bytes (at most {SUITE_SNAPSHOT_BYTES})"
    );
    std::fs::remove_dir_all(&dir).expect("removing the snapshot directory");
}
