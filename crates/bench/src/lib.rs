//! Evaluation harness for the §7 experiments.
//!
//! [`evaluate_task`] replays the paper's measurement protocol on one
//! benchmark: run the §3.2 interaction loop against ground truth to find
//! how many examples the user must give, then report the metrics of the
//! converged structure — program-set cardinality (Fig. 11a), data-structure
//! size (Fig. 11b), learn time (Fig. 12a) and first-example vs intersected
//! size (Fig. 12b). The `src/bin/fig*` binaries print one paper artifact
//! each from these reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_benchmarks::{
    apply_column, scaled_lookup_database, scaled_lookup_row, BenchmarkTask, Category,
};
use sst_core::{
    converge, generate_str_u, intersect_du_with, LuOptions, Pool, SemDStruct, SynthesisOptions,
    Synthesizer,
};
use sst_counting::BigUint;
use sst_service::{Engine, LearnRequest};
use sst_tables::{Database, SubstringIndex, Table, ValueIndex};

/// Maximum examples the simulated user provides (the paper's tasks all
/// converge within 3).
pub const MAX_EXAMPLES: usize = 3;

/// Metrics for one benchmark task.
#[derive(Debug)]
pub struct TaskReport {
    /// Task id (1..=50).
    pub id: usize,
    /// Task name.
    pub name: &'static str,
    /// `Lt` or `Lu` (paper split: 12/38).
    pub category: Category,
    /// Examples needed for the top-ranked program to be correct on every
    /// spreadsheet row.
    pub examples_used: usize,
    /// Whether it converged within [`MAX_EXAMPLES`].
    pub converged: bool,
    /// Number of consistent programs after convergence (Fig. 11a).
    pub count: BigUint,
    /// Data-structure size after the *first* example (Fig. 12b, x-axis).
    pub size_first: usize,
    /// Data-structure size after intersecting all examples (Fig. 11b and
    /// Fig. 12b's second series).
    pub size_final: usize,
    /// Wall-clock time of one `learn` call on the converged example set
    /// (Fig. 12a).
    pub learn_time: Duration,
}

/// Runs the full measurement protocol on one task (memoized DAG plane
/// enabled, the production default).
pub fn evaluate_task(task: &BenchmarkTask) -> TaskReport {
    evaluate_task_with(task, true)
}

/// [`evaluate_task`] with the `DagCache` toggled, so CI and the
/// differential harness can replay the suite on both paths. Note the
/// protocol itself makes the cache matter: `converge` warms the session
/// memo, so the timed `learn` below measures warm-path work (intersection
/// and ranking) when the cache is on, and full regeneration when off.
pub fn evaluate_task_with(task: &BenchmarkTask, dag_cache: bool) -> TaskReport {
    evaluate_task_opts(task, dag_cache, 0)
}

/// [`evaluate_task_with`] at an explicit `Intersect_u` pool width
/// (`0` = the machine default), the `--threads` axis of `perf_snapshot`.
pub fn evaluate_task_opts(task: &BenchmarkTask, dag_cache: bool, threads: usize) -> TaskReport {
    evaluate_task_with_options(
        task,
        SynthesisOptions::builder()
            .dag_cache(dag_cache)
            .threads(threads)
            .build(),
    )
}

/// The fully general per-task protocol: any [`SynthesisOptions`] (built
/// with the builder — e.g. an explicit `parallel_edge_product_min`).
pub fn evaluate_task_with_options(task: &BenchmarkTask, options: SynthesisOptions) -> TaskReport {
    let synthesizer = Synthesizer::with_options(Arc::new(task.db.clone()), options);
    let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
    let learned = report
        .learned
        .as_ref()
        .expect("converge returns a learned set on Ok");

    let first = synthesizer
        .learn(&report.examples[..1])
        .expect("first example must be learnable");

    let start = Instant::now();
    let relearned = synthesizer
        .learn(&report.examples)
        .expect("converged example set must be learnable");
    let learn_time = start.elapsed();
    drop(relearned);

    TaskReport {
        id: task.id,
        name: task.name,
        category: task.category,
        examples_used: report.examples_used,
        converged: report.converged,
        count: learned.count(),
        size_first: first.size(),
        size_final: learned.size(),
        learn_time,
    }
}

/// Evaluates the whole suite in task order.
pub fn evaluate_suite() -> Vec<TaskReport> {
    evaluate_tasks(&sst_benchmarks::all_tasks())
}

/// Evaluates a slice of tasks in order (the `--smoke` subset path).
pub fn evaluate_tasks(tasks: &[BenchmarkTask]) -> Vec<TaskReport> {
    evaluate_tasks_with(tasks, true)
}

/// [`evaluate_tasks`] with the `DagCache` toggled.
pub fn evaluate_tasks_with(tasks: &[BenchmarkTask], dag_cache: bool) -> Vec<TaskReport> {
    evaluate_tasks_opts(tasks, dag_cache, 0)
}

/// [`evaluate_tasks_with`] at an explicit pool width (`0` = default).
pub fn evaluate_tasks_opts(
    tasks: &[BenchmarkTask],
    dag_cache: bool,
    threads: usize,
) -> Vec<TaskReport> {
    tasks
        .iter()
        .map(|t| evaluate_task_opts(t, dag_cache, threads))
        .collect()
}

/// [`evaluate_task_opts`] replayed through the **service plane**: the
/// interaction loop runs on an [`Engine`] session
/// (`Session::converge_with`, no caller-side re-learn loop) and the
/// metric learns go through [`Engine::learn_batch`] — one batch carrying
/// the first-example prefix and the converged set, timed as a whole. CI
/// diffs the non-timing fields of this report against the direct
/// [`Synthesizer`] protocol's (`perf_snapshot --serve`): the two paths
/// must be bit-identical.
pub fn evaluate_task_served(task: &BenchmarkTask, dag_cache: bool, threads: usize) -> TaskReport {
    evaluate_task_served_options(
        task,
        SynthesisOptions::builder()
            .dag_cache(dag_cache)
            .threads(threads)
            .build(),
    )
}

/// [`evaluate_task_served`] with fully general options.
pub fn evaluate_task_served_options(task: &BenchmarkTask, options: SynthesisOptions) -> TaskReport {
    let engine = Engine::with_options(Arc::new(task.db.clone()), options);
    let mut session = engine.session();
    let outcome = session
        .converge_with(&task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
    let count = session.count().expect("converged session has programs");

    let requests = [
        LearnRequest::new(session.examples()[..1].to_vec()),
        LearnRequest::new(session.examples().to_vec()),
    ];
    let start = Instant::now();
    let responses = engine.learn_batch(&requests);
    let learn_time = start.elapsed();
    let fail = |r: &sst_service::LearnResponse| {
        panic!(
            "task {} ({}) batch request {} failed: {:?}",
            task.id, task.name, r.request, r.result
        )
    };
    let size_first = responses[0]
        .programs()
        .unwrap_or_else(|| fail(&responses[0]))
        .size();
    let size_final = responses[1]
        .programs()
        .unwrap_or_else(|| fail(&responses[1]))
        .size();

    TaskReport {
        id: task.id,
        name: task.name,
        category: task.category,
        examples_used: outcome.examples_used,
        converged: outcome.converged,
        count,
        size_first,
        size_final,
        learn_time,
    }
}

/// [`evaluate_task_served`] over a task slice, in order.
pub fn evaluate_tasks_served(
    tasks: &[BenchmarkTask],
    dag_cache: bool,
    threads: usize,
) -> Vec<TaskReport> {
    tasks
        .iter()
        .map(|t| evaluate_task_served(t, dag_cache, threads))
        .collect()
}

/// [`evaluate_task_with_options`] over a task slice, in order.
pub fn evaluate_tasks_with_options(
    tasks: &[BenchmarkTask],
    options: &SynthesisOptions,
) -> Vec<TaskReport> {
    tasks
        .iter()
        .map(|t| evaluate_task_with_options(t, options.clone()))
        .collect()
}

/// [`evaluate_task_served_options`] over a task slice, in order.
pub fn evaluate_tasks_served_with_options(
    tasks: &[BenchmarkTask],
    options: &SynthesisOptions,
) -> Vec<TaskReport> {
    tasks
        .iter()
        .map(|t| evaluate_task_served_options(t, options.clone()))
        .collect()
}

/// Cold/warm learn times of one task through the memoized DAG plane: one
/// synthesizer, the converged example protocol (2 examples), learned
/// twice. With `dag_cache` on, the first call fills the
/// `(sources_epoch, value)` DAG memo and the whole-example memo and the
/// second is served from them — the spread is the `dag_cache_micro`
/// section of the perf snapshot. With it off (`--no-dag-cache`
/// snapshots), both calls pay full generation, so the emitted baseline
/// really is cache-free.
pub fn dag_cache_times(task: &BenchmarkTask, dag_cache: bool) -> (Duration, Duration) {
    let synthesizer = Synthesizer::with_options(
        Arc::new(task.db.clone()),
        SynthesisOptions::builder().dag_cache(dag_cache).build(),
    );
    let examples = task.examples(2);
    let fail = |e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name);
    let cold_start = Instant::now();
    let cold = synthesizer.learn(examples).unwrap_or_else(fail);
    let cold_time = cold_start.elapsed();
    drop(cold);
    let warm_start = Instant::now();
    let warm = synthesizer.learn(examples).unwrap_or_else(fail);
    let warm_time = warm_start.elapsed();
    drop(warm);
    (cold_time, warm_time)
}

/// Timing iterations per intersection micro-measurement; the minimum is
/// reported (warm times are sub-millisecond and scheduler noise dominates
/// single shots).
const INTERSECT_MICRO_ITERS: usize = 3;

/// Warm `Intersect_u` wall-clock on one task at each pool width: the two
/// example structures are generated once (so timing isolates intersection
/// from generation and memo traffic — the `Synthesizer`'s example-pair
/// memo is deliberately *not* in this loop), then `d₁ ∩ d₂` runs
/// [`INTERSECT_MICRO_ITERS`] times per width and the minimum is reported.
/// This is the `parallel_micro` section of the perf snapshot — the direct
/// measurement of the parallel intersection plane.
pub fn intersect_micro_times(task: &BenchmarkTask, widths: &[usize]) -> Vec<Duration> {
    let examples = task.examples(2);
    let opts = LuOptions::default();
    let structures: Vec<SemDStruct> = examples
        .iter()
        .map(|e| generate_str_u(&task.db, &e.input_refs(), &e.output, &opts))
        .collect();
    let (d1, d2) = (&structures[0], &structures[1]);
    widths
        .iter()
        .map(|&w| {
            let pool = Pool::new(w);
            (0..INTERSECT_MICRO_ITERS)
                .map(|_| {
                    let start = Instant::now();
                    let r = intersect_du_with(d1, d2, &pool);
                    let elapsed = start.elapsed();
                    drop(r);
                    elapsed
                })
                .min()
                .expect("at least one iteration")
        })
        .collect()
}

/// Wall-clock time of one `GenerateStr_u` call on a task's first example —
/// the §5.3 relaxed-reachability micro-benchmark. Isolates the frontier →
/// substring-relation → assemblability loop from intersection and ranking,
/// so snapshots can track the gate's cost on its own.
pub fn generate_u_time(task: &BenchmarkTask) -> Duration {
    let example = &task.rows[0];
    let inputs = example.input_refs();
    let opts = LuOptions::default();
    let start = Instant::now();
    let d = generate_str_u(&task.db, &inputs, &example.output, &opts);
    let elapsed = start.elapsed();
    drop(d);
    elapsed
}

/// Apply-plane metrics for one task — the `apply` section of the perf
/// snapshot, measuring the compiled bytecode plane against the tree
/// interpreter it replaces.
#[derive(Debug)]
pub struct ApplyReport {
    /// Task id (1..=50).
    pub id: usize,
    /// Task name.
    pub name: &'static str,
    /// `Lt` or `Lu`.
    pub category: Category,
    /// Rows in the synthesized apply column.
    pub rows: usize,
    /// Mean per-row nanoseconds interpreting the top program's tree
    /// (`Program::run`) over the whole column.
    pub interp_row_ns: f64,
    /// Mean per-row nanoseconds through the compiled bytecode
    /// (`CompiledProgram::run_row_with`, one reused scratch).
    pub compiled_row_ns: f64,
    /// `(pool width, rows/sec)` of `run_column` over the whole column,
    /// one entry per measured width (best of
    /// [`APPLY_COLUMN_ITERS`] runs).
    pub column_rows_per_sec: Vec<(usize, f64)>,
    /// Whether every compiled output — per-row and per-column at every
    /// width — was bit-identical to the interpreter. Any drift here is a
    /// compiler bug; CI asserts it never goes false.
    pub outputs_match: bool,
}

impl ApplyReport {
    /// Single-row speedup of the compiled plane over the interpreter.
    pub fn speedup(&self) -> f64 {
        self.interp_row_ns / self.compiled_row_ns
    }
}

/// `run_column` timing iterations per width; the best run is reported
/// (columns are re-applied in steady state, so the min is the signal).
pub const APPLY_COLUMN_ITERS: usize = 3;

/// Measures the apply plane on one task: converge through the §3.2
/// protocol, compile the top-ranked program once, then time the
/// interpreter and the bytecode over a [`apply_column`]-synthesized input
/// column (`rows` rows drawn from the task's own distribution, ~1/8
/// mutated into lookup-miss/undefined rows) and `run_column` at each pool
/// width. Every compiled output is differenced against the interpreter's
/// on the way (`outputs_match`).
pub fn apply_micro(task: &BenchmarkTask, rows: usize, widths: &[usize]) -> ApplyReport {
    let synthesizer = Synthesizer::new(Arc::new(task.db.clone()));
    let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
    let top = report
        .learned
        .as_ref()
        .and_then(|l| l.top())
        .unwrap_or_else(|| panic!("task {} ({}) has no top program", task.id, task.name));
    let column = apply_column(task, rows);

    let interp_start = Instant::now();
    let expected: Vec<Option<String>> = column
        .iter()
        .map(|row| {
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            top.run(&refs)
        })
        .collect();
    let interp_time = interp_start.elapsed();

    let compiled = top.compile();
    let mut scratch = compiled.new_scratch();
    let compiled_start = Instant::now();
    for row in &column {
        std::hint::black_box(compiled.run_row_with(row, &mut scratch));
    }
    let compiled_time = compiled_start.elapsed();
    // Differencing pass, outside the timed loop (the interpreted loop
    // above carries no comparison either).
    let mut outputs_match = column
        .iter()
        .zip(&expected)
        .all(|(row, want)| compiled.run_row_with(row, &mut scratch) == want.as_deref());

    let per_row = |d: Duration| d.as_secs_f64() * 1e9 / rows as f64;
    let column_rows_per_sec = widths
        .iter()
        .map(|&w| {
            let pool = Pool::new(w);
            let best = (0..APPLY_COLUMN_ITERS)
                .map(|_| {
                    let start = Instant::now();
                    let out = compiled.run_column(&column, &pool);
                    let elapsed = start.elapsed();
                    outputs_match &= out == expected;
                    elapsed
                })
                .min()
                .expect("at least one iteration");
            (w, rows as f64 / best.as_secs_f64())
        })
        .collect();

    ApplyReport {
        id: task.id,
        name: task.name,
        category: task.category,
        rows,
        interp_row_ns: per_row(interp_time),
        compiled_row_ns: per_row(compiled_time),
        column_rows_per_sec,
        outputs_match,
    }
}

/// Single-row mutations timed per probe in [`mutate_micro`].
const MUTATE_OPS: usize = 64;

/// Metrics of the incremental database plane at scale — the `mutate`
/// section of the perf snapshot. Timings probe index maintenance on an
/// *owned* [`Database`] (no engine snapshot cloning in the loop), so the
/// insert/update/delete numbers measure exactly the incremental
/// `ValueIndex` + `SubstringIndex` + postings work.
#[derive(Debug)]
pub struct MutateReport {
    /// Rows in the scaled lookup table.
    pub rows: usize,
    /// Building the two derived indexes from scratch over the table —
    /// the cost every mutation *avoided* paying.
    pub index_build_ms: f64,
    /// Mean µs of one single-row insert, incrementally maintained.
    pub insert_row_us: f64,
    /// Mean µs of one cell overwrite.
    pub update_cell_us: f64,
    /// Mean µs of one single-row tombstone delete.
    pub delete_row_us: f64,
    /// `insert_row` time over `index_build` time (the acceptance bar is
    /// ≤ 1/1000 at 10⁵ rows).
    pub insert_vs_rebuild_ratio: f64,
    /// Warm `DagCache` entries (dags + examples + intersections) before a
    /// mutation to an *unrelated* table.
    pub warm_entries_before: usize,
    /// Warm entries surviving `validate_cache` after that mutation.
    pub warm_entries_after: usize,
    /// `100 · after / before` (the acceptance bar is ≥ 90, vs 0 under
    /// wholesale invalidation).
    pub warm_preserved_pct: f64,
    /// Whether re-querying the session after the unrelated mutation hit
    /// the cache (no new example-memo misses — no relearn).
    pub unrelated_mutation_relearn_warm: bool,
    /// Whether program count and structure size were bit-identical across
    /// the mutation.
    pub observables_identical: bool,
}

/// Probes the incremental mutation plane over a `rows`-row lookup table:
/// index rebuild cost vs per-row incremental maintenance
/// ([`MUTATE_OPS`] single-row inserts, updates, deletes), then warm-cache
/// preservation — an [`Engine`] session learns over the big table, a
/// small unrelated table is mutated, and the surviving `DagCache` entries
/// and relearn behaviour are recorded.
pub fn mutate_micro(rows: usize) -> MutateReport {
    let (mut db, examples) = scaled_lookup_database(rows);
    let big = db.table_id("Big").expect("Big exists");

    // Rebuild cost of the derived indexes (the incremental plane's
    // counterfactual).
    let build_start = Instant::now();
    let rebuilt = (
        ValueIndex::build(db.table(big)),
        SubstringIndex::build(db.table(big)),
    );
    let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    drop(rebuilt);

    // Incremental single-row inserts: fresh bijective keys past the end
    // of the table, so candidate keys stay unique.
    let insert_start = Instant::now();
    let mut new_rows = Vec::with_capacity(MUTATE_OPS);
    for j in 0..MUTATE_OPS {
        let ids = db
            .insert_rows(big, vec![scaled_lookup_row(rows + j)])
            .expect("insert probe");
        new_rows.extend(ids);
    }
    let insert_row_us = insert_start.elapsed().as_secs_f64() * 1e6 / MUTATE_OPS as f64;

    // Cell overwrites on the freshly inserted rows.
    let update_start = Instant::now();
    for (j, &r) in new_rows.iter().enumerate() {
        db.update_cell(big, 1, r, &format!("W{j:08x}"))
            .expect("update probe");
    }
    let update_cell_us = update_start.elapsed().as_secs_f64() * 1e6 / new_rows.len() as f64;

    // Single-row tombstone deletes (64 dead rows over 10⁵ live ones —
    // far from the compaction threshold, so this times the incremental
    // path).
    let delete_start = Instant::now();
    for &r in &new_rows {
        db.delete_rows(big, &[r]).expect("delete probe");
    }
    let delete_row_us = delete_start.elapsed().as_secs_f64() * 1e6 / new_rows.len() as f64;

    // Warm-cache preservation: learn over `Big`, mutate an unrelated
    // scratch table, and count what survives validation.
    db.add_table(
        Table::new(
            "Scratch",
            vec!["A", "B"],
            vec![vec!["x1", "y1"], vec!["x2", "y2"]],
        )
        .expect("scratch table"),
    )
    .expect("scratch join");
    let scratch = db.table_id("Scratch").expect("Scratch exists");
    let engine = Engine::new(Arc::new(db));
    let mut session = engine.session();
    session.add_examples(examples);
    let count_before = session.count().expect("scaled learn");
    let size_before = session.size().expect("scaled learn");
    let (d0, e0, i0) = engine.cache_entries();
    let misses_before = engine.cache_stats().example_misses;

    engine
        .insert_rows(scratch, vec![vec!["x3", "y3"]])
        .expect("unrelated mutation");
    engine.validate_cache();
    let (d1, e1, i1) = engine.cache_entries();
    let count_after = session.count().expect("post-mutation query");
    let size_after = session.size().expect("post-mutation query");

    let warm_entries_before = d0 + e0 + i0;
    let warm_entries_after = d1 + e1 + i1;
    MutateReport {
        rows,
        index_build_ms,
        insert_row_us,
        update_cell_us,
        delete_row_us,
        insert_vs_rebuild_ratio: insert_row_us / 1e3 / index_build_ms,
        warm_entries_before,
        warm_entries_after,
        warm_preserved_pct: if warm_entries_before == 0 {
            100.0
        } else {
            100.0 * warm_entries_after as f64 / warm_entries_before as f64
        },
        unrelated_mutation_relearn_warm: engine.cache_stats().example_misses == misses_before,
        observables_identical: count_after == count_before && size_after == size_before,
    }
}

/// Learning-at-scale metrics — the `reach_at_scale` section of the perf
/// snapshot: index build, cold and warm learn wall-clock over a
/// `rows`-row lookup table, plus the converged observables.
#[derive(Debug)]
pub struct ScaleReport {
    /// Rows in the scaled lookup table.
    pub rows: usize,
    /// `Database::from_tables` over the built table — `ValueIndex`,
    /// `SubstringIndex` and postings construction at scale (the
    /// memory-bandwidth probe).
    pub index_build_ms: f64,
    /// First `learn` over two examples (cold memo plane).
    pub learn_cold_ms: f64,
    /// Second identical `learn` (memo-served).
    pub learn_warm_ms: f64,
    /// Consistent-program count, scientific notation.
    pub count: String,
    /// Final structure size in terminal symbols.
    pub size: usize,
    /// Whether the top-ranked program maps a held-out key to its value.
    pub top_correct: bool,
}

/// Measures index build and learning over a [`scaled_lookup_database`]
/// of `rows` rows (10⁵–10⁶ in full snapshots, 2·10⁴ under `--smoke`).
pub fn reach_at_scale(rows: usize) -> ScaleReport {
    let table = sst_benchmarks::scaled_lookup_table(rows);
    let build_start = Instant::now();
    let db = Database::from_tables(vec![table]).expect("scaled database");
    let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let (_, examples) = scaled_lookup_database(2);

    let synthesizer = Synthesizer::new(Arc::new(db));
    let cold_start = Instant::now();
    let learned = synthesizer.learn(&examples).expect("scaled learn");
    let learn_cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let warm_start = Instant::now();
    let relearned = synthesizer.learn(&examples).expect("scaled relearn");
    let learn_warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    drop(relearned);

    let probe = scaled_lookup_row(rows / 2);
    let top_correct = learned
        .top()
        .map(|p| p.run(&[&probe[0]]).as_deref() == Some(probe[1].as_str()))
        .unwrap_or(false);
    ScaleReport {
        rows,
        index_build_ms,
        learn_cold_ms,
        learn_warm_ms,
        count: learned.count().to_scientific(),
        size: learned.size(),
        top_correct,
    }
}

/// Arena hash-consing observables of one task — the `arena` section of
/// the perf snapshot. One engine, one session converged through the §3.2
/// protocol, then one snapshot; the counters of the arena that snapshot
/// interned the memo plane into: distinct values stored, intern traffic,
/// hash-cons hits, and resident bytes.
#[derive(Debug)]
pub struct ArenaReport {
    /// Task id (1..=50).
    pub id: usize,
    /// Task name.
    pub name: &'static str,
    /// Distinct values in the snapshot arena after the protocol.
    pub stored: u64,
    /// Total intern calls (repeat structure hash-conses instead of
    /// allocating).
    pub interned: u64,
    /// Intern calls answered by an existing value.
    pub hashcons_hits: u64,
    /// `interned / stored` — how much structure sharing the arena
    /// collapsed (2.0 means half of all interned structures already
    /// existed).
    pub dedup_ratio: f64,
    /// Estimated resident bytes of this task's snapshot arena.
    pub resident_bytes: u64,
}

/// Runs one task's interaction protocol on an [`Engine`], snapshots it to
/// a temp file (the only place the memo plane is interned), and reads
/// back that arena's counters ([`Engine::arena_stats`]).
pub fn arena_micro(task: &BenchmarkTask, options: SynthesisOptions) -> ArenaReport {
    let engine = Engine::with_options(Arc::new(task.db.clone()), options);
    let mut session = engine.session();
    session
        .converge_with(&task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
    let path = std::env::temp_dir().join(format!(
        "sst-arena-micro-{}-{}.snap",
        std::process::id(),
        task.id
    ));
    engine
        .snapshot_to(&path)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to snapshot: {e}", task.id, task.name));
    std::fs::remove_file(&path).ok();
    let stats = engine.arena_stats();
    ArenaReport {
        id: task.id,
        name: task.name,
        stored: stats.stored,
        interned: stats.interned,
        hashcons_hits: stats.hits(),
        dedup_ratio: stats.dedup_ratio(),
        resident_bytes: stats.resident_bytes,
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
