//! Differential harness for the memoized DAG plane.
//!
//! `Synthesizer::learn` always runs on the `DagCache` (per-value DAG memo
//! keyed by `(sources_epoch, value)`, whole-example generation memo,
//! intersection chains and ranked tops) and the pruned `Intersect_u`.
//! These are *representation and scheduling* choices: every observable —
//! program counts, data-structure sizes, convergence behavior, top-k
//! ranked outputs — must be bit-identical to the memo-free reference, the
//! paper's `Synthesize` written with the public free functions
//! (`generate_str_u` on each example, folded by `intersect_du`, ranked by
//! `LuRankWeights`). This harness replays the full benchmark suite both
//! ways, including warm-cache relearns (the §3.2 loop is what fills the
//! memo), so any stale or mis-keyed hit fails loudly on the exact task
//! that exposed it. A second replay runs every task that has a table on a
//! database that took a benign insert-then-delete round trip: the
//! incremental index paths must leave every observable, and a snapshot's
//! sharing counters, as an unmutated database gives them. A third replay
//! pins the ranked memo: the memoized `top()` and its compiled form must
//! match the ranking of a fresh synthesizer on a warm hit, after a
//! snapshot restore, after a mutation round trip, and after an added table
//! moves the lookup depth.

use std::sync::Arc;

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{
    converge, eval_sem, generate_str_u, intersect_du, DagCacheStats, LuOptions, LuRankWeights,
    Pool, SemDStruct, SynthesisOptions,
};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

fn synthesizer(db: &Database) -> Synthesizer {
    Synthesizer::new(Arc::new(db.clone()))
}

/// Count, size and the outputs of `top_k` over every spreadsheet row.
type Observed = (String, usize, Vec<Vec<Option<String>>>);

/// All observables of one learned program set: exact count, size, and the
/// top-k ranked outputs over every spreadsheet row.
fn observe(learned: &LearnedPrograms, rows: &[Example]) -> Observed {
    let outputs = learned
        .top_k(TOP_K)
        .iter()
        .map(|p| rows.iter().map(|r| p.run(&r.input_refs())).collect())
        .collect();
    (learned.count().to_decimal(), learned.size(), outputs)
}

/// The memo-free reference's `Synthesize`: `GenerateStr_u` on each
/// example, folded by `Intersect_u`; `None` when no program survives.
fn reference_learn(db: &Database, examples: &[Example]) -> Option<SemDStruct> {
    let opts = LuOptions::default();
    let generate = |e: &Example| generate_str_u(db, &e.input_refs(), &e.output, &opts);
    let mut d = generate(&examples[0]);
    for e in &examples[1..] {
        d = intersect_du(&d, &generate(e));
    }
    d.has_programs().then_some(d)
}

/// [`converge`]'s §3.2 loop over the memo-free reference: the examples it
/// used, whether it converged, and the observables of its last learn.
fn reference_converge(
    db: &Database,
    rows: &[Example],
    tag: &str,
) -> (Vec<Example>, bool, Observed) {
    let weights = LuRankWeights::default();
    let depth = LuOptions::default().depth_for(db);
    let tokens = LuOptions::default().syntactic.token_set;
    let mut examples = vec![rows[0].clone()];
    loop {
        let d = reference_learn(db, &examples)
            .unwrap_or_else(|| panic!("{tag} reference: no consistent program"));
        let top = weights.best(&d, depth).expect("a consistent program");
        let failing = rows.iter().find(|r| {
            eval_sem(&top.expr, db, &r.input_refs(), &tokens).as_deref() != Some(r.output.as_str())
        });
        match failing {
            Some(row) if examples.len() < MAX_EXAMPLES => examples.push(row.clone()),
            _ => {
                let outputs = weights
                    .top_k(&d, depth, TOP_K)
                    .iter()
                    .map(|p| {
                        rows.iter()
                            .map(|r| eval_sem(&p.expr, db, &r.input_refs(), &tokens))
                            .collect()
                    })
                    .collect();
                let seen = (d.count(depth).to_decimal(), d.size(), outputs);
                return (examples, failing.is_none(), seen);
            }
        }
    }
}

#[test]
fn cache_on_and_off_agree_on_every_task() {
    for task in all_tasks() {
        let tag = format!("task {} ({})", task.id, task.name);
        let cached = synthesizer(&task.db);

        // The interaction loop is the differential workload: it re-learns
        // on a growing prefix, so the synthesizer serves earlier examples
        // from the memo while the reference regenerates them.
        let rc = converge(&cached, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("{tag} cached: {e}"));
        let (examples, converged, want) = reference_converge(&task.db, &task.rows, &tag);
        assert_eq!(
            (rc.examples.len(), rc.converged),
            (examples.len(), converged),
            "convergence drifted on {tag}"
        );
        let first = cached
            .learn(&rc.examples[..1])
            .unwrap_or_else(|e| panic!("{tag} first: {e}"))
            .size();
        assert_eq!(
            Some(first),
            reference_learn(&task.db, &examples[..1]).map(|d| d.size()),
            "first-example size drifted on {tag}"
        );
        assert_eq!(
            observe(&rc.learned, &task.rows),
            want,
            "count/size/top-k outputs drifted on {tag}"
        );

        // Warm relearn: every example of the converged set is now in the
        // synthesizer's memo; a full learn must still be identical.
        let warm = cached
            .learn(&rc.examples)
            .unwrap_or_else(|e| panic!("{tag} warm relearn: {e}"));
        assert_eq!(
            observe(&warm, &task.rows),
            want,
            "warm relearn drifted on {tag}"
        );
    }
}

#[test]
fn cache_actually_serves_hits_on_the_suite() {
    // Guard against a memo plane that is wired but never consulted: the
    // §3.2 loop must observe real per-value DAG hits.
    let task = &all_tasks()[0];
    let s = synthesizer(&task.db);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("task 1 converges");
    let stats = s.cache_stats();
    assert!(
        stats.dag_hits > 0,
        "no per-value DAG hits recorded: {stats:?}"
    );
}

#[test]
fn intersection_memo_serves_replays() {
    // The §3.2 loop replays earlier prefixes: the chain-keyed intersection
    // memo must see traffic on a task that needs ≥ 2 examples.
    let task = all_tasks()
        .into_iter()
        .find(|t| {
            let s = synthesizer(&t.db);
            converge(&s, &t.rows, MAX_EXAMPLES)
                .map(|r| r.examples.len() >= 2)
                .unwrap_or(false)
        })
        .expect("some task needs two examples");
    let s = synthesizer(&task.db);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("converges");
    let report = converge(&s, &task.rows, MAX_EXAMPLES).expect("replay converges");
    assert!(report.learned.top().is_some());
    let stats = s.cache_stats();
    assert!(
        stats.intersect_hits > 0,
        "no intersection-memo hits recorded: {stats:?}"
    );
}

/// Everything the suite protocol observes on one engine: convergence,
/// first-example size, the converged set's `observe`, the `(stored,
/// interned)` sharing counters of a snapshot, and the count and
/// size learned from `probe` last.
#[allow(clippy::type_complexity)]
fn observe_engine(
    task: &semantic_strings::benchmarks::BenchmarkTask,
    db: &Database,
    probe: &Example,
    tag: &str,
) -> (
    (usize, bool),
    usize,
    Observed,
    (u64, u64),
    Option<(String, usize)>,
) {
    let engine = Engine::new(std::sync::Arc::new(db.clone()));
    let mut session = engine.session();
    let outcome = session
        .converge_with(&task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) {tag}: {e}", task.id, task.name));
    let first = engine
        .learn(&session.examples()[..1])
        .unwrap_or_else(|e| panic!("task {} ({}) {tag} first: {e}", task.id, task.name))
        .size();
    let learned = observe(session.learned().expect("converged"), &task.rows);
    let path = std::env::temp_dir().join(format!(
        "sst-dag-memo-{tag}-{}-{}.snap",
        std::process::id(),
        task.id
    ));
    engine
        .snapshot_to(&path)
        .unwrap_or_else(|e| panic!("task {} ({}) {tag} snapshot: {e}", task.id, task.name));
    std::fs::remove_file(&path).ok();
    let arena = engine.arena_stats();
    let probed = engine
        .learn(std::slice::from_ref(probe))
        .ok()
        .map(|l| (l.count().to_decimal(), l.size()));
    (
        (outcome.examples_used, outcome.converged),
        first,
        learned,
        (arena.stored, arena.interned),
        probed,
    )
}

#[test]
fn mutation_round_trip_leaves_every_task_unchanged() {
    // Tasks over an empty database have no table to mutate.
    for task in all_tasks().into_iter().filter(|t| !t.db.is_empty()) {
        // One benign row into table 0, then deleted again. The lone
        // tombstone stays far below the compaction threshold, so the
        // incremental index paths (not the rebuild fallback) carry the
        // whole trip.
        let mut db = task.db.clone();
        let row: Vec<String> = (0..db.table(0).width())
            .map(|c| format!("\u{2047}noop{c}\u{2047}"))
            .collect();
        // The deleted row's first cell, learned as an example: a
        // generation that still finds the row in the indexes learns more
        // programs than the unmutated database gives.
        let probe = Example::new(
            vec![row[0].clone(); task.rows[0].inputs.len()],
            row[0].clone(),
        );
        let ids = db.insert_rows(0, vec![row]).expect("round-trip insert");
        db.delete_rows(0, &ids).expect("round-trip delete");

        assert_eq!(
            observe_engine(&task, &db, &probe, "mutated"),
            observe_engine(&task, &task.db, &probe, "plain"),
            "mutation round trip changed an observable on task {} ({})",
            task.id,
            task.name
        );
    }
}

/// What a learned set's top program shows: its display string, its cost
/// and its compiled `run_column` outputs over `rows`.
type TopView = (String, u64, Vec<Option<String>>);

fn top_view(learned: &LearnedPrograms, rows: &[Vec<String>], pool: &Pool) -> TopView {
    let top = learned.top().expect("a consistent program");
    (
        top.to_string(),
        top.cost(),
        top.compile().run_column(rows, pool),
    )
}

/// The top program a fresh synthesizer ranks: its ranked memo is empty,
/// so `top()` ranks the structure and `compile()` lowers it.
fn uncached_view(
    db: Arc<Database>,
    examples: &[Example],
    rows: &[Vec<String>],
    pool: &Pool,
) -> TopView {
    let learned = Synthesizer::new(db)
        .learn(examples)
        .expect("the examples learn on a fresh synthesizer");
    top_view(&learned, rows, pool)
}

/// `(rank hits, rank misses, compile hits, compile misses)` moved from
/// `before` to `after`.
fn memo_moves(before: DagCacheStats, after: DagCacheStats) -> (u64, u64, u64, u64) {
    (
        after.rank_hits - before.rank_hits,
        after.rank_misses - before.rank_misses,
        after.compile_hits - before.compile_hits,
        after.compile_misses - before.compile_misses,
    )
}

#[test]
fn rank_and_compile_memo_match_uncached_ranking_on_every_task() {
    let pool = Pool::new(2);
    for task in all_tasks() {
        let tag = format!("task {} ({})", task.id, task.name);
        let db = Arc::new(task.db.clone());
        let (examples, _, _) = reference_converge(&task.db, &task.rows, &tag);
        let rows: Vec<Vec<String>> = task.rows.iter().map(|r| r.inputs.clone()).collect();
        let want = uncached_view(Arc::clone(&db), &examples, &rows, &pool);
        let engine = Engine::new(Arc::clone(&db));
        let learn = |engine: &Engine| engine.learn(&examples).expect("warm learn");

        // A second apply is served: ranked once, compiled once.
        assert_eq!(
            top_view(&learn(&engine), &rows, &pool),
            want,
            "{tag}: first"
        );
        let before = engine.cache_stats();
        assert_eq!(top_view(&learn(&engine), &rows, &pool), want, "{tag}: hit");
        assert_eq!(
            memo_moves(before, engine.cache_stats()),
            (1, 0, 1, 0),
            "{tag}: the second apply must be a rank and compile hit"
        );
        assert_eq!(engine.apply(&examples, &rows).unwrap(), want.2, "{tag}");

        // A restored engine starts with an empty ranked memo and ranks
        // the same program.
        let path = std::env::temp_dir().join(format!(
            "sst-rank-memo-{}-{}.snap",
            std::process::id(),
            task.id
        ));
        engine.snapshot_to(&path).expect("snapshot");
        let restored = Engine::restore_from(&path, SynthesisOptions::default()).expect("restore");
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.apply(&examples, &rows).unwrap(), want.2, "{tag}");
        assert_eq!(
            top_view(&learn(&restored), &rows, &pool),
            want,
            "{tag}: restored"
        );

        if !task.db.is_empty() {
            // An insert-then-delete round trip moves the epoch: the
            // ranking is served, the compiled code is lowered again.
            let row: Vec<String> = (0..task.db.table(0).width())
                .map(|c| format!("\u{2047}rank{c}\u{2047}"))
                .collect();
            let ids = engine.insert_rows(0, vec![row]).expect("insert");
            engine.delete_rows(0, &ids).expect("delete");
            let before = engine.cache_stats();
            assert_eq!(
                top_view(&learn(&engine), &rows, &pool),
                want,
                "{tag}: round trip"
            );
            assert_eq!(
                memo_moves(before, engine.cache_stats()),
                (1, 0, 0, 1),
                "{tag}: a round trip keeps the ranking and recompiles"
            );
        }

        // An unrelated table moves the default depth: the structure is
        // ranked again, and matches an uncached ranking of the grown
        // database.
        let depth_before = SynthesisOptions::default().lu.depth_for(&engine.db());
        engine
            .add_table(
                Table::new(
                    "RankMemoUnrelated",
                    vec!["K", "V"],
                    vec![vec!["\u{2047}k\u{2047}", "\u{2047}v\u{2047}"]],
                )
                .unwrap(),
            )
            .expect("add table");
        let grown = engine.db();
        let before = engine.cache_stats();
        assert_eq!(
            top_view(&learn(&engine), &rows, &pool),
            uncached_view(Arc::clone(&grown), &examples, &rows, &pool),
            "{tag}: after add_table"
        );
        if SynthesisOptions::default().lu.depth_for(&grown) != depth_before {
            assert_eq!(
                memo_moves(before, engine.cache_stats()).1,
                1,
                "{tag}: a moved depth must re-rank, not serve"
            );
        }
    }
}
