//! `learn_cold`: one §3.2 conversation per operation, each on a freshly
//! built engine, so every learn misses the memo plane.
//!
//! A step is one `Session::run_column` over the task's spreadsheet
//! (learn → rank → compile → apply); the first mislabeled row then
//! becomes the next example, up to `MAX_EXAMPLES`. Tasks come in seeded
//! permutations of the suite, and each task's conversations start from its
//! ground-truth rows in seeded permutations.

use std::sync::Arc;
use std::time::Instant;

use semantic_strings::core::{Pool, SynthesisOptions};
use semantic_strings::service::{Engine, ServiceError};

use crate::common::{first_mismatch, load_suite, ms, Deck, Rng, Speed, Task, MAX_EXAMPLES};
use crate::counters::Counters;
use crate::trace::Tracer;
use crate::{Config, Measured};

/// Set-ups per run; `setup_s` is their median (loading the suite takes
/// milliseconds).
const SETUP_REPS: usize = 15;

const STREAM_ORDER: u64 = 1;

pub fn run(cfg: &Config) -> Measured {
    let mut speed = Speed::new();
    let mut setup = Vec::new();
    let mut tasks = Vec::new();
    for _ in 0..SETUP_REPS {
        tasks.clear();
        speed.probe();
        let started = Instant::now();
        tasks = load_suite();
        setup.push(started.elapsed().as_secs_f64() * speed.factor());
    }

    let pool = Pool::new(SynthesisOptions::default().threads);
    let mut rng = Rng::new(cfg.seed, STREAM_ORDER);
    let mut order = Deck::new(tasks.len());
    let mut start_rows: Vec<Deck> = tasks.iter().map(|t| Deck::new(t.rows.len())).collect();
    let mut m = Measured {
        setup,
        callers: 1,
        ..Measured::default()
    };
    let mut tracer = Tracer::new(cfg.trace, Instant::now(), 0);
    let mut counters = Counters::new(cfg.trace);
    let (mut timed_s, mut rows) = (0.0, 0usize);
    let started = Instant::now();
    let mut conversation = 0usize;
    // Whole first pass always runs: the work counters cover exactly it.
    while conversation < tasks.len() || started.elapsed() < cfg.seconds {
        speed.tick();
        let t = order.draw(&mut rng);
        let task = &tasks[t];
        let start_row = start_rows[t].draw(&mut rng);
        let first_pass = conversation < tasks.len();
        conversation += 1;
        m.attempted += 1;
        let engine = Engine::with_options(Arc::clone(&task.db), SynthesisOptions::default());
        match converse(
            task,
            start_row,
            &engine,
            &pool,
            &mut tracer,
            first_pass,
            &mut counters,
        ) {
            Ok((mut steps_ms, converged, examples)) => {
                let factor = speed.factor();
                steps_ms.iter_mut().for_each(|t| *t *= factor);
                let total: f64 = steps_ms.iter().sum();
                timed_s += total / 1e3;
                m.flow_ms.push(total);
                rows += steps_ms.len() * task.inputs.len();
                m.op_ms.extend(steps_ms);
                if first_pass {
                    counters.conversation(examples, converged);
                }
            }
            Err(err) => {
                eprintln!("learn_cold: task {}: {err}", task.meta.id);
                m.failed += 1;
            }
        }
    }
    m.window_s = started.elapsed().as_secs_f64();
    m.throughput = (m.attempted - m.failed) as f64 / timed_s.max(f64::MIN_POSITIVE);
    m.layers.push((
        "compiled.rows".into(),
        rows as f64 / m.op_ms.len().max(1) as f64,
    ));
    m.tracers.push(tracer);
    m.counters = counters;
    m.probe_ms = speed.median_ms();
    m
}

/// One conversation; returns the time of each step, whether the column
/// converged to the ground truth and how many examples that took.
fn converse(
    task: &Task,
    start_row: usize,
    engine: &Engine,
    pool: &Pool,
    tracer: &mut Tracer,
    count: bool,
    counters: &mut Counters,
) -> Result<(Vec<f64>, bool, usize), ServiceError> {
    tracer.next_op();
    let mut session = engine.session();
    session.add_example(task.rows[start_row].clone());
    let mut steps = Vec::new();
    loop {
        let before = counters.snapshot(engine, count);
        let started = Instant::now();
        let (outputs, learned) = if tracer.is_on() {
            tracer.begin("step");
            let learned = tracer.span("service.learn", || engine.learn(session.examples()));
            let outputs = learned
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|learned| crate::apply_learned(learned, &task.inputs, pool, tracer));
            tracer.end();
            (outputs, Some(learned))
        } else {
            (session.run_column(&task.inputs), None)
        };
        steps.push(ms(started.elapsed()));
        if let (true, Some(Ok(learned))) = (count, &learned) {
            counters.dstruct_size += learned.size() as u64;
        }
        let outputs = outputs?;
        counters.delta(engine, before);
        match first_mismatch(&task.rows, &outputs) {
            None => return Ok((steps, true, session.examples().len())),
            Some(_) if session.examples().len() >= MAX_EXAMPLES => {
                return Ok((steps, false, session.examples().len()))
            }
            Some(row) => session.add_example(task.rows[row].clone()),
        }
    }
}
