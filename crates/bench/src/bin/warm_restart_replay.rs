//! The kill → restore → replay harness: proves a snapshot taken in one
//! process warm-starts an engine in another, with byte-identical
//! observables and a memo-served replay.
//!
//! Two runs of this binary make one experiment:
//!
//! 1. `--mode learn` — for every suite task: boot a cold engine, run the
//!    §3.2 interaction protocol to convergence, record the observables
//!    (examples used, program count, structure size, and the top
//!    program's output on **every** spreadsheet row), then persist the
//!    engine to `<dir>/task_<id>.snap` via [`Engine::snapshot_to`].
//! 2. `--mode replay` — in a *fresh process*: restore each engine with
//!    [`Engine::restore_from`], run the identical protocol, and record
//!    the same observables plus the restored memo plane's hit counters.
//!
//! CI diffs the two JSON documents without the mode, snapshot-size and
//! warm-hit keys: every observable must be bit-identical, and the replay must show warm cache
//! hits on every task (the restored memo plane really served the work — a
//! silently cold restore would still match byte-for-byte, just slowly).
//!
//! Usage:
//!   `cargo run --release -p sst-bench --bin warm_restart_replay -- --mode learn --snapshot-dir /tmp/snaps > learn.json`
//!   `cargo run --release -p sst-bench --bin warm_restart_replay -- --mode replay --snapshot-dir /tmp/snaps > replay.json`
//!   `... -- --smoke` replays only the first 3 tasks of each category.

use std::path::PathBuf;
use std::sync::Arc;

use sst_bench::MAX_EXAMPLES;
use sst_benchmarks::Category;
use sst_core::SynthesisOptions;
use sst_service::Engine;

/// Tasks kept per category under `--smoke`.
const SMOKE_PER_CATEGORY: usize = 3;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let mode = flag("--mode").unwrap_or_else(|| "learn".to_string());
    assert!(
        mode == "learn" || mode == "replay",
        "--mode takes `learn` or `replay`"
    );
    let dir = PathBuf::from(
        flag("--snapshot-dir").expect("--snapshot-dir <dir> is required (shared by both modes)"),
    );
    let smoke = args.iter().any(|a| a == "--smoke");
    if mode == "learn" {
        std::fs::create_dir_all(&dir).expect("creating the snapshot directory");
    }

    let mut tasks = sst_benchmarks::all_tasks();
    if smoke {
        let (mut lookup, mut semantic) = (0usize, 0usize);
        tasks.retain(|t| {
            let kept = match t.category {
                Category::Lookup => &mut lookup,
                Category::Semantic => &mut semantic,
            };
            *kept += 1;
            *kept <= SMOKE_PER_CATEGORY
        });
    }

    println!("{{");
    println!(
        "  \"suite\": \"{}\",",
        if smoke {
            "vldb2012-smoke"
        } else {
            "vldb2012-50"
        }
    );
    println!("  \"mode\": \"{mode}\",");
    println!("  \"tasks\": [");
    let mut tasks_with_warm_hits = 0usize;
    let mut total_warm_hits = 0u64;
    for (i, task) in tasks.iter().enumerate() {
        let options = SynthesisOptions::default();
        let snap = dir.join(format!("task_{}.snap", task.id));
        let engine = if mode == "learn" {
            Engine::with_options(Arc::new(task.db.clone()), options)
        } else {
            Engine::restore_from(&snap, options).unwrap_or_else(|e| {
                panic!("task {} ({}) failed to restore: {e}", task.id, task.name)
            })
        };

        let mut session = engine.session();
        let outcome = session
            .converge_with(&task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
        let count = session.count().expect("converged session has programs");
        let size = session.size().expect("converged session has programs");
        let outputs: Vec<String> = task
            .rows
            .iter()
            .map(|row| {
                let inputs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
                match session.run(&inputs) {
                    Ok(Some(out)) => format!("\"{}\"", json_escape(&out)),
                    _ => "null".to_string(),
                }
            })
            .collect();

        let stats = engine.cache_stats();
        let warm_hits = stats.dag_hits + stats.example_hits + stats.intersect_hits;
        // In learn mode the protocol itself warms the cache mid-run; the
        // replay criterion is hits in *replay* mode, served by state that
        // crossed the process boundary.
        if mode == "replay" && warm_hits > 0 {
            tasks_with_warm_hits += 1;
        }
        if mode == "replay" {
            total_warm_hits += warm_hits;
        }

        let snapshot_bytes = if mode == "learn" {
            engine.snapshot_to(&snap).unwrap_or_else(|e| {
                panic!("task {} ({}) failed to snapshot: {e}", task.id, task.name)
            })
        } else {
            std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0)
        };

        let comma = if i + 1 < tasks.len() { "," } else { "" };
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", \
             \"examples_used\": {}, \"converged\": {}, \"count\": \"{}\", \
             \"size\": {}, \"outputs\": [{}], \"snapshot_bytes\": {}, \
             \"warm_hits\": {}}}{comma}",
            task.id,
            json_escape(task.name),
            task.category,
            outcome.examples_used,
            outcome.converged,
            count.to_decimal(),
            size,
            outputs.join(", "),
            snapshot_bytes,
            warm_hits,
        );
    }
    println!("  ],");
    println!("  \"replay\": {{");
    println!("    \"tasks\": {},", tasks.len());
    println!("    \"tasks_with_warm_hits\": {tasks_with_warm_hits},");
    println!("    \"total_warm_hits\": {total_warm_hits}");
    println!("  }}");
    println!("}}");
}
