//! Emits a JSON perf snapshot of the whole §7 suite: per-task learn times,
//! convergence metrics and structure sizes, totals, a
//! `relaxed_reachability` micro-section timing one `GenerateStr_u` call per
//! task (the §5.3 hot loop the `SubstringIndex` postings serve), a
//! `dag_cache` micro-section timing cold vs warm learns through the
//! memoized DAG plane, a `parallel_micro` section timing one warm
//! `Intersect_u` per task at 1, 2 and N worker threads (the parallel
//! intersection plane), and an `apply` section measuring the compiled
//! bytecode plane — interpreted vs compiled single-row nanoseconds and
//! `run_column` rows/sec at each pool width over a synthesized
//! `--apply-rows`-row column, with an `outputs_match` bit CI asserts.
//! An `arena` section reports the hash-consed arena a snapshot of each
//! task's memo plane builds: per-task intern traffic, distinct stored
//! values, the dedup ratio, and resident bytes.
//! Two sections probe the incremental database plane over a
//! `--scale-rows`-row lookup table: `mutate` (index rebuild ms vs
//! per-row incremental insert/update/delete µs, and warm-`DagCache`
//! preservation across an unrelated-table mutation) and `reach_at_scale`
//! (index build plus cold/warm learn wall-clock at 10⁵–10⁶ rows).
//! Future PRs diff their snapshot against the committed
//! `BENCH_PR<n>.json` to track the performance trajectory.
//!
//! Usage:
//!   `cargo run --release -p sst-bench --bin perf_snapshot > BENCH.json`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --smoke`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --no-dag-cache`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --threads 4`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --serve`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --edge-product-min 512`
//!   `cargo run --release -p sst-bench --bin perf_snapshot -- --apply-rows 1000000`
//!
//! `--smoke` evaluates only the first [`SMOKE_PER_CATEGORY`] tasks of
//! *each* category (`Lt` and `Lu`), so CI exercises both learn paths —
//! including the semantic one the substring index serves — and proves the
//! snapshot stays generatable without replaying the suite. `--no-dag-cache`
//! runs the per-task reports with the `DagCache` disabled; `--threads N`
//! sizes the `Intersect_u` worker pool (default: machine parallelism; `1`
//! is the serial execution); `--edge-product-min N` sets the parallel
//! dispatch threshold (`SynthesisOptions::parallel_edge_product_min`);
//! `--serve` replays the per-task protocol through the service plane
//! (`Engine` sessions + `learn_batch`) instead of direct `Synthesizer`
//! calls; `--scale-rows N` sizes the scaled lookup table of the `mutate`
//! and `reach_at_scale` sections; `--mutate-roundtrip` runs a benign
//! insert-then-delete through every task database before evaluation —
//! the incremental index paths must leave every observable bit-identical
//! to a run without the flag. CI runs the smoke snapshot across cache
//! modes, thread counts, both serving paths and the mutation round-trip,
//! and checks that everything but the timings agrees.

use std::time::Duration;

use sst_bench::{
    apply_micro, arena_micro, dag_cache_times, evaluate_tasks_served_with_options,
    evaluate_tasks_with_options, generate_u_time, intersect_micro_times, mutate_micro,
    reach_at_scale, ApplyReport, ArenaReport,
};
use sst_benchmarks::Category;
use sst_core::SynthesisOptions;

/// Tasks evaluated per category under `--smoke`.
const SMOKE_PER_CATEGORY: usize = 3;

/// Default synthesized apply-column length (`--apply-rows`).
const APPLY_ROWS_DEFAULT: usize = 100_000;

/// Default apply-column length under `--smoke` (still large enough to
/// cross the parallel chunking threshold).
const APPLY_ROWS_SMOKE: usize = 20_000;

/// Default scaled-lookup table size for the `mutate` and
/// `reach_at_scale` sections (`--scale-rows`; push to 1 000 000 for the
/// full memory-bandwidth probe).
const SCALE_ROWS_DEFAULT: usize = 100_000;

/// Default scaled-lookup size under `--smoke`.
const SCALE_ROWS_SMOKE: usize = 20_000;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let serve = args.iter().any(|a| a == "--serve");
    let dag_cache = !args.iter().any(|a| a == "--no-dag-cache");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"))
        .unwrap_or(0);
    let edge_product_min: Option<usize> = args
        .iter()
        .position(|a| a == "--edge-product-min")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .expect("--edge-product-min takes a non-negative integer")
        });
    let apply_rows: usize = args
        .iter()
        .position(|a| a == "--apply-rows")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--apply-rows takes a positive integer"))
        .unwrap_or(if smoke {
            APPLY_ROWS_SMOKE
        } else {
            APPLY_ROWS_DEFAULT
        });
    let scale_rows: usize = args
        .iter()
        .position(|a| a == "--scale-rows")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--scale-rows takes a positive integer"))
        .unwrap_or(if smoke {
            SCALE_ROWS_SMOKE
        } else {
            SCALE_ROWS_DEFAULT
        });
    let mutate_roundtrip = args.iter().any(|a| a == "--mutate-roundtrip");
    let mut builder = SynthesisOptions::builder()
        .dag_cache(dag_cache)
        .threads(threads);
    if let Some(min_product) = edge_product_min {
        builder = builder.parallel_edge_product_min(min_product);
    }
    let options = builder.build();
    let effective_threads = options.threads;
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
    if mutate_roundtrip {
        // A no-op mutation round-trip on every task database: insert one
        // benign row into its first table, then delete it. The lone
        // tombstone stays far below the compaction threshold, so the
        // incremental index paths (not the rebuild fallback) carry the
        // whole trip — and every observable downstream must be
        // bit-identical to a run without the flag (CI diffs the two).
        for task in &mut tasks {
            let width = task.db.table(0).width();
            let row: Vec<String> = (0..width)
                .map(|c| format!("\u{2047}noop{c}\u{2047}"))
                .collect();
            let ids = task.db.insert_rows(0, vec![row]).expect("roundtrip insert");
            task.db.delete_rows(0, &ids).expect("roundtrip delete");
        }
    }
    let reports = if serve {
        evaluate_tasks_served_with_options(&tasks, &options)
    } else {
        evaluate_tasks_with_options(&tasks, &options)
    };
    let total_learn: Duration = reports.iter().map(|r| r.learn_time).sum();
    let converged = reports.iter().filter(|r| r.converged).count();
    let total_size_final: usize = reports.iter().map(|r| r.size_final).sum();
    let micro: Vec<Duration> = tasks.iter().map(generate_u_time).collect();
    let total_generate_u: Duration = micro.iter().sum();
    let cache_micro: Vec<(Duration, Duration)> = tasks
        .iter()
        .map(|t| dag_cache_times(t, dag_cache))
        .collect();
    let total_cold: Duration = cache_micro.iter().map(|(c, _)| *c).sum();
    let total_warm: Duration = cache_micro.iter().map(|(_, w)| *w).sum();
    // Warm-intersection widths: serial, two workers, the configured width
    // (deduplicated, ascending).
    let mut widths: Vec<usize> = vec![1, 2, effective_threads];
    widths.sort_unstable();
    widths.dedup();
    let par_micro: Vec<Vec<Duration>> = tasks
        .iter()
        .map(|t| intersect_micro_times(t, &widths))
        .collect();
    let par_totals: Vec<Duration> = widths
        .iter()
        .enumerate()
        .map(|(i, _)| par_micro.iter().map(|row| row[i]).sum())
        .collect();
    let apply: Vec<ApplyReport> = tasks
        .iter()
        .map(|t| apply_micro(t, apply_rows, &widths))
        .collect();
    let total_interp_ns: f64 = apply.iter().map(|a| a.interp_row_ns * a.rows as f64).sum();
    let total_compiled_ns: f64 = apply
        .iter()
        .map(|a| a.compiled_row_ns * a.rows as f64)
        .sum();
    // Suite-level column throughput per width: total rows over total time.
    let apply_totals: Vec<(usize, f64)> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let total_secs: f64 = apply
                .iter()
                .map(|a| a.rows as f64 / a.column_rows_per_sec[i].1)
                .sum();
            let total_rows: usize = apply.iter().map(|a| a.rows).sum();
            (w, total_rows as f64 / total_secs)
        })
        .collect();

    let mutate = mutate_micro(scale_rows);
    let scale = reach_at_scale(scale_rows);
    // Arena hash-consing per task, measured on a snapshot of the memo
    // plane (only meaningful with it on — with `--no-dag-cache` the
    // snapshot carries no memo entries).
    let arena: Vec<ArenaReport> = tasks
        .iter()
        .map(|t| arena_micro(t, options.clone()))
        .collect();
    let arena_stored: u64 = arena.iter().map(|a| a.stored).sum();
    let arena_interned: u64 = arena.iter().map(|a| a.interned).sum();
    let arena_resident: u64 = arena.iter().map(|a| a.resident_bytes).sum();

    println!("{{");
    println!(
        "  \"suite\": \"{}\",",
        if smoke {
            "vldb2012-smoke"
        } else {
            "vldb2012-50"
        }
    );
    println!("  \"dag_cache\": {dag_cache},");
    println!("  \"threads\": {effective_threads},");
    println!("  \"serve\": {serve},");
    println!(
        "  \"parallel_edge_product_min\": {},",
        options.parallel_edge_product_min
    );
    println!("  \"tasks\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", \
             \"examples_used\": {}, \"converged\": {}, \"count\": \"{}\", \
             \"size_first\": {}, \"size_final\": {}, \"learn_ms\": {:.3}}}{comma}",
            r.id,
            json_escape(r.name),
            r.category,
            r.examples_used,
            r.converged,
            r.count.to_scientific(),
            r.size_first,
            r.size_final,
            r.learn_time.as_secs_f64() * 1e3,
        );
    }
    println!("  ],");
    println!("  \"relaxed_reachability\": [");
    for (i, (task, t)) in tasks.iter().zip(&micro).enumerate() {
        let comma = if i + 1 < tasks.len() { "," } else { "" };
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", \
             \"generate_u_ms\": {:.3}}}{comma}",
            task.id,
            json_escape(task.name),
            task.category,
            t.as_secs_f64() * 1e3,
        );
    }
    println!("  ],");
    println!("  \"dag_cache_micro\": [");
    for (i, (task, (cold, warm))) in tasks.iter().zip(&cache_micro).enumerate() {
        let comma = if i + 1 < tasks.len() { "," } else { "" };
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", \
             \"learn_cold_ms\": {:.3}, \"learn_warm_ms\": {:.3}}}{comma}",
            task.id,
            json_escape(task.name),
            task.category,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
        );
    }
    println!("  ],");
    println!("  \"parallel_micro\": [");
    for (i, (task, times)) in tasks.iter().zip(&par_micro).enumerate() {
        let comma = if i + 1 < tasks.len() { "," } else { "" };
        let cols: Vec<String> = widths
            .iter()
            .zip(times)
            .map(|(w, t)| format!("\"intersect_t{}_ms\": {:.3}", w, t.as_secs_f64() * 1e3))
            .collect();
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", {}}}{comma}",
            task.id,
            json_escape(task.name),
            task.category,
            cols.join(", "),
        );
    }
    println!("  ],");
    println!("  \"apply_rows\": {apply_rows},");
    println!("  \"apply\": [");
    for (i, a) in apply.iter().enumerate() {
        let comma = if i + 1 < apply.len() { "," } else { "" };
        let cols: Vec<String> = a
            .column_rows_per_sec
            .iter()
            .map(|(w, rps)| format!("\"apply_t{w}_rows_per_sec\": {rps:.0}"))
            .collect();
        println!(
            "    {{\"id\": {}, \"name\": \"{}\", \"category\": \"{:?}\", \
             \"interp_row_ns\": {:.1}, \"compiled_row_ns\": {:.1}, \
             \"speedup\": {:.2}, {}, \"outputs_match\": {}}}{comma}",
            a.id,
            json_escape(a.name),
            a.category,
            a.interp_row_ns,
            a.compiled_row_ns,
            a.speedup(),
            cols.join(", "),
            a.outputs_match,
        );
    }
    println!("  ],");
    println!("  \"scale_rows\": {scale_rows},");
    println!("  \"mutate_roundtrip\": {mutate_roundtrip},");
    println!(
        "  \"mutate\": {{\"rows\": {}, \"index_build_ms\": {:.3}, \
         \"insert_row_us\": {:.3}, \"update_cell_us\": {:.3}, \
         \"delete_row_us\": {:.3}, \"insert_vs_rebuild_ratio\": {:.6}, \
         \"warm_entries_before\": {}, \"warm_entries_after\": {}, \
         \"warm_preserved_pct\": {:.1}, \
         \"unrelated_mutation_relearn_warm\": {}, \
         \"observables_identical\": {}}},",
        mutate.rows,
        mutate.index_build_ms,
        mutate.insert_row_us,
        mutate.update_cell_us,
        mutate.delete_row_us,
        mutate.insert_vs_rebuild_ratio,
        mutate.warm_entries_before,
        mutate.warm_entries_after,
        mutate.warm_preserved_pct,
        mutate.unrelated_mutation_relearn_warm,
        mutate.observables_identical,
    );
    println!(
        "  \"reach_at_scale\": {{\"rows\": {}, \"index_build_ms\": {:.3}, \
         \"learn_cold_ms\": {:.3}, \"learn_warm_ms\": {:.3}, \
         \"count\": \"{}\", \"size\": {}, \"top_correct\": {}}},",
        scale.rows,
        scale.index_build_ms,
        scale.learn_cold_ms,
        scale.learn_warm_ms,
        scale.count,
        scale.size,
        scale.top_correct,
    );
    println!("  \"arena\": {{");
    println!("    \"tasks\": [");
    for (i, a) in arena.iter().enumerate() {
        let comma = if i + 1 < arena.len() { "," } else { "" };
        println!(
            "      {{\"id\": {}, \"name\": \"{}\", \"stored\": {}, \
             \"interned\": {}, \"hashcons_hits\": {}, \"dedup_ratio\": {:.3}, \
             \"session_resident_bytes\": {}}}{comma}",
            a.id,
            json_escape(a.name),
            a.stored,
            a.interned,
            a.hashcons_hits,
            a.dedup_ratio,
            a.resident_bytes,
        );
    }
    println!("    ],");
    println!("    \"stored\": {arena_stored},");
    println!("    \"interned\": {arena_interned},");
    println!("    \"hashcons_hits\": {},", arena_interned - arena_stored);
    println!(
        "    \"dedup_ratio\": {:.3},",
        if arena_stored == 0 {
            1.0
        } else {
            arena_interned as f64 / arena_stored as f64
        }
    );
    println!("    \"resident_bytes\": {arena_resident}");
    println!("  }},");
    println!("  \"totals\": {{");
    println!("    \"tasks\": {},", reports.len());
    println!("    \"converged\": {converged},");
    println!("    \"total_size_final\": {total_size_final},");
    println!(
        "    \"total_generate_u_ms\": {:.3},",
        total_generate_u.as_secs_f64() * 1e3
    );
    println!(
        "    \"total_learn_cold_ms\": {:.3},",
        total_cold.as_secs_f64() * 1e3
    );
    println!(
        "    \"total_learn_warm_ms\": {:.3},",
        total_warm.as_secs_f64() * 1e3
    );
    for (w, t) in widths.iter().zip(&par_totals) {
        println!(
            "    \"total_intersect_t{}_ms\": {:.3},",
            w,
            t.as_secs_f64() * 1e3
        );
    }
    println!(
        "    \"apply_interp_row_ns\": {:.1},",
        total_interp_ns / apply.iter().map(|a| a.rows as f64).sum::<f64>()
    );
    println!(
        "    \"apply_compiled_row_ns\": {:.1},",
        total_compiled_ns / apply.iter().map(|a| a.rows as f64).sum::<f64>()
    );
    println!(
        "    \"apply_speedup\": {:.2},",
        total_interp_ns / total_compiled_ns
    );
    for (w, rps) in &apply_totals {
        println!("    \"apply_t{w}_rows_per_sec\": {rps:.0},");
    }
    println!(
        "    \"apply_outputs_match\": {},",
        apply.iter().all(|a| a.outputs_match)
    );
    println!(
        "    \"total_learn_ms\": {:.3}",
        total_learn.as_secs_f64() * 1e3
    );
    println!("  }}");
    println!("}}");
}
