//! The benchmark's own checks: work counters repeat exactly on one seed,
//! and `BENCHMARK.json` names every metric the binary prints.
//!
//! `learn_cold` and `apply_warm` drive the program from one caller thread,
//! so their counters are a function of the seed alone. `wire_mixed` is
//! exempt: its two connections interleave.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Runs one workload and returns its result line's metrics as
/// `(name, value)` pairs, in printed order.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
        "{workload}: {line}"
    );
    let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let value = rest.split(',').next().expect("value");
            (name.trim_start_matches('"').to_string(), value.to_string())
        })
        .collect()
}

fn is_counter(name: &str) -> bool {
    ["cache.", "arena.", "dstruct.", "quality."]
        .iter()
        .any(|prefix| name.starts_with(prefix))
        && name != "cache.entries_retained_pct"
}

#[test]
fn work_counters_repeat_on_one_seed() {
    for workload in ["learn_cold", "apply_warm"] {
        let first: Vec<_> = run(workload, 7, true)
            .into_iter()
            .filter(|(name, _)| is_counter(name))
            .collect();
        let second: Vec<_> = run(workload, 7, true)
            .into_iter()
            .filter(|(name, _)| is_counter(name))
            .collect();
        assert_eq!(first.len(), 13, "{workload}: {first:?}");
        assert_eq!(first, second, "{workload} counters moved between runs");
    }
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for workload in ["learn_cold", "apply_warm", "wire_mixed"] {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} missing"
        );
    }
    for trace in [false, true] {
        for (name, _) in run("learn_cold", 1, trace) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} is printed but not in BENCHMARK.json"
            );
        }
    }
}
