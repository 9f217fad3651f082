//! `apply_warm`: stateless `Engine::apply` of converged example sets on
//! engines restored from snapshots, so every learn is a memo hit.
//!
//! Set-up converges every task from its first ground-truth row, writes
//! each engine with `snapshot_to`, reloads it with `restore_from` — the
//! warm-restart path — and makes one apply. Operations then follow a
//! seeded schedule: mostly *small* applies over the task's own spreadsheet,
//! checked against the ground truth, and one *fill* per ten smalls,
//! a 20 000-row column from `apply_column` in a seeded order, checked
//! against the tree interpreter `Program::run` evaluated in set-up.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use semantic_strings::benchmarks::apply_column;
use semantic_strings::core::{Example, Pool, SynthesisOptions};
use semantic_strings::service::{Engine, ServiceError};

use crate::common::{
    column_hash, converse_in_process, first_mismatch, load_suite, median, ms, Column, Deck, Rng,
    Speed, Task,
};
use crate::counters::Counters;
use crate::trace::Tracer;
use crate::{Config, Measured};

/// Set-ups per run; `setup_s` is their median (a set-up converges and
/// persists the whole suite).
const SETUP_REPS: usize = 7;

const STREAM_SCHEDULE: u64 = 12;
const STREAM_FILL: u64 = 13;

/// Rows of one fill operation.
const FILL_ROWS: usize = 20_000;
/// One operation in `FILL_ONE_IN` is a fill (one per ten smalls).
const FILL_ONE_IN: usize = 11;
/// Operations whose work counters are reported (a deterministic prefix of
/// the schedule).
const COUNTED_OPS: usize = 110;

/// A converged task on its restored engine.
struct Warm {
    task: usize,
    engine: Engine,
    examples: Vec<Example>,
    /// `column_hash` of the interpreter's outputs on the task's fill column.
    fill_hash: u64,
}

/// One set-up's persistence cost, summed over the tasks.
#[derive(Default)]
struct Persist {
    snapshot_ms: f64,
    restore_ms: f64,
    bytes: u64,
}

pub fn run(cfg: &Config) -> Measured {
    let mut m = Measured {
        callers: 1,
        counters: Counters::new(cfg.trace),
        ..Measured::default()
    };
    let dir = cfg
        .out_dir
        .join(format!("apply_warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot directory");
    let mut persists = Vec::new();
    let mut tasks = Vec::new();
    let mut warm = Vec::new();
    let mut speed = Speed::new();
    for rep in 0..SETUP_REPS {
        // The previous set-up's state goes first, so set-ups never overlap.
        warm.clear();
        tasks.clear();
        speed.probe();
        let started = Instant::now();
        tasks = load_suite();
        // Set-up quality is the same every time; count it once.
        let mut scratch = Counters::new(false);
        let counters = if rep == 0 {
            &mut m.counters
        } else {
            &mut scratch
        };
        let (ready, persist) = set_up(&tasks, &dir, counters).expect("apply_warm set-up");
        m.setup
            .push(started.elapsed().as_secs_f64() * speed.factor());
        persists.push(persist);
        warm = ready;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let pick = |f: fn(&Persist) -> f64| median(&mut persists.iter().map(f).collect::<Vec<_>>());
    m.layers = vec![
        ("persist.snapshot_ms".into(), pick(|p| p.snapshot_ms)),
        ("persist.restore_ms".into(), pick(|p| p.restore_ms)),
        ("persist.snapshot_bytes".into(), pick(|p| p.bytes as f64)),
    ];

    // The fill references, from the tree interpreter.
    for w in &mut warm {
        let column = fill_column(&tasks[w.task], cfg.seed);
        let top = w
            .engine
            .learn(&w.examples)
            .expect("converged examples learn")
            .top()
            .expect("converged examples have a program");
        let outputs: Column = column
            .iter()
            .map(|row| top.run(&row.iter().map(String::as_str).collect::<Vec<_>>()))
            .collect();
        w.fill_hash = column_hash(&outputs);
    }

    let pool = Pool::new(SynthesisOptions::default().threads);
    let mut tracer = Tracer::new(cfg.trace, Instant::now(), 0);
    let mut rng = Rng::new(cfg.seed, STREAM_SCHEDULE);
    let (mut smalls, mut fills) = (Deck::new(warm.len()), Deck::new(warm.len()));
    let mut fill_at = 0;
    let (mut fill_rows, mut fill_s, mut small_rows) = (0usize, 0.0, 0usize);
    let started = Instant::now();
    while (m.attempted as usize) < COUNTED_OPS || started.elapsed() < cfg.seconds {
        // Each block of `FILL_ONE_IN` operations holds one fill, at a
        // seeded position.
        let slot = m.attempted as usize % FILL_ONE_IN;
        if slot == 0 {
            fill_at = rng.below(FILL_ONE_IN);
        }
        let fill = slot == fill_at;
        let w = &warm[if fill {
            fills.draw(&mut rng)
        } else {
            smalls.draw(&mut rng)
        }];
        let task = &tasks[w.task];
        let column;
        let rows = if fill {
            column = fill_column(task, cfg.seed);
            &column[..]
        } else {
            &task.inputs[..]
        };
        let count = (m.attempted as usize) < COUNTED_OPS;
        m.attempted += 1;
        speed.tick();
        tracer.next_op();
        let before = m.counters.snapshot(&w.engine, count);
        let op_started = Instant::now();
        let (outputs, learned) = if tracer.is_on() {
            tracer.begin(if fill { "fill" } else { "small" });
            let learned = tracer.span("service.learn", || w.engine.learn(&w.examples));
            let outputs = learned
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|learned| crate::apply_learned(learned, rows, &pool, &mut tracer));
            tracer.end();
            (outputs, Some(learned))
        } else {
            (w.engine.apply(&w.examples, rows), None)
        };
        let elapsed = ms(op_started.elapsed()) * speed.factor();
        m.counters.delta(&w.engine, before);
        if let (true, Some(Ok(learned))) = (count, &learned) {
            m.counters.dstruct_size += learned.size() as u64;
        }
        let correct = match &outputs {
            Ok(out) if fill => column_hash(out) == w.fill_hash,
            Ok(out) => first_mismatch(&task.rows, out).is_none(),
            Err(_) => false,
        };
        if !correct {
            eprintln!(
                "apply_warm: task {} {} apply wrong: {:?}",
                task.meta.id,
                if fill { "fill" } else { "small" },
                outputs.err()
            );
            m.failed += 1;
        } else if fill {
            m.flow_ms.push(elapsed);
            fill_rows += rows.len();
            fill_s += elapsed / 1e3;
        } else {
            m.op_ms.push(elapsed);
            small_rows += rows.len();
        }
    }
    m.window_s = started.elapsed().as_secs_f64();
    m.throughput = fill_rows as f64 / fill_s.max(f64::MIN_POSITIVE);
    let per = |rows: usize, n: usize| rows as f64 / n.max(1) as f64;
    m.layers
        .push(("compiled.rows".into(), per(small_rows, m.op_ms.len())));
    m.layers
        .push(("fill.compiled.rows".into(), per(fill_rows, m.flow_ms.len())));
    m.tracers.push(tracer);
    m.probe_ms = speed.median_ms();
    m
}

/// One set-up: engines over the suite, every task converged through a
/// session from its first row (as the suite's §7 evaluation does, so every
/// seed warms the same state), snapshotted, restored and applied once. Returns the restored
/// engines of the tasks that converged.
fn set_up(
    tasks: &[Task],
    dir: &Path,
    counters: &mut Counters,
) -> Result<(Vec<Warm>, Persist), ServiceError> {
    let mut persist = Persist::default();
    let mut warm = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let engine = Engine::with_options(Arc::clone(&task.db), SynthesisOptions::default());
        let (steps, examples) = converse_in_process(&engine, task, 0)?;
        let converged = first_mismatch(&task.rows, steps.last().expect("one step")).is_none();
        counters.conversation(examples.len(), converged);
        if !converged {
            continue;
        }
        let path = dir.join(format!("task-{}.snap", task.meta.id));
        let started = Instant::now();
        persist.bytes += engine.snapshot_to(&path)?;
        persist.snapshot_ms += ms(started.elapsed());
        let started = Instant::now();
        let engine = Engine::restore_from(&path, SynthesisOptions::default())?;
        persist.restore_ms += ms(started.elapsed());
        engine.apply(&examples, &task.inputs)?;
        warm.push(Warm {
            task: i,
            engine,
            examples,
            fill_hash: 0,
        });
    }
    Ok((warm, persist))
}

/// The task's 20 000-row fill column in a seeded order.
fn fill_column(task: &Task, seed: u64) -> Vec<Vec<String>> {
    let mut column = apply_column(&task.meta, FILL_ROWS);
    Rng::new(seed, STREAM_FILL ^ task.meta.id as u64).shuffle(&mut column);
    column
}
