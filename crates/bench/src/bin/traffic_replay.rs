//! Replays the §7 benchmark suite as live traffic against a real
//! `sst-server` over real sockets, proving the serving stack under load
//! and emitting a JSON load report on standard output.
//!
//! The generator boots one server hosting all fifty task databases as
//! named engines (`task-{id}`), then runs five phases:
//!
//! 1. **Create** — N interactive sessions (default 1000) distributed
//!    round-robin across the tasks, each seeded with the task's first
//!    ground-truth example. All N are then live server-side at once.
//! 2. **Drive** — a worker pool (one keep-alive connection each) runs
//!    every session's §3.2 loop to convergence: `run_column` over the
//!    ground-truth inputs, first mislabeled row becomes the next
//!    example, mirroring `Session::converge_with`; one `status` call per
//!    session confirms the learned state. Client-observed latencies go
//!    into per-operation histograms.
//! 3. **Batch** — apply streams: each task's converged example set as an
//!    `ApplyRequest` over its full input column, replayed `--apply-reps`
//!    times across the pool, measuring rows/sec.
//! 4. **Warm** — a fresh wave of sessions replays the same
//!    conversations; the engine caches are hot, so `/metrics` must show
//!    the cache-hit counters climbing (CI asserts non-zero).
//! 5. **Equivalence** — every task replayed in-process through
//!    `Engine`/`Session` with identical options; convergence,
//!    `run_column` cells and batch-apply responses must be bit-identical
//!    to what came over the wire (`equivalence.ok` in the report).
//!
//! Usage:
//!   `cargo run --release -p sst-bench --bin traffic_replay > replay.json`
//!   `cargo run --release -p sst-bench --bin traffic_replay -- --smoke`
//!   `... -- --sessions 2000 --connections 32`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sst_bench::MAX_EXAMPLES;
use sst_benchmarks::{all_tasks, BenchmarkTask};
use sst_core::{Example, SynthesisOptions};
use sst_server::{Client, LatencyHistogram, Server, ServerConfig};
use sst_service::{ApplyRequest, Engine};

/// Sessions driven by the default full run (the load-test floor).
const SESSIONS_DEFAULT: usize = 1000;

/// Sessions under `--smoke` (CI's quick proof the stack works end to
/// end; at least one per task, some tasks doubled).
const SESSIONS_SMOKE: usize = 60;

/// Client connections (= worker threads) by default.
const CONNECTIONS_DEFAULT: usize = 16;
const CONNECTIONS_SMOKE: usize = 8;

/// Batch-apply replays per task by default.
const APPLY_REPS_DEFAULT: usize = 3;
const APPLY_REPS_SMOKE: usize = 1;

/// Fresh sessions in the warm-replay wave.
const WARM_SESSIONS_CAP: usize = 200;

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// One interactive session's identity and client-side state.
struct SessionJob {
    task: usize,
    engine: String,
    session: u64,
    examples: Vec<Example>,
}

/// What driving a session to convergence produced.
struct DriveOutcome {
    task: usize,
    engine: String,
    session: u64,
    converged: bool,
    examples: Vec<Example>,
    /// Final `run_column` cells (the converged prediction), for the
    /// equivalence diff.
    cells: Vec<Option<String>>,
}

/// Client-observed latency, per operation.
struct Latencies {
    create: LatencyHistogram,
    run_column: LatencyHistogram,
    add_examples: LatencyHistogram,
    status: LatencyHistogram,
    apply: LatencyHistogram,
    requests: AtomicU64,
}

impl Latencies {
    fn new() -> Latencies {
        Latencies {
            create: LatencyHistogram::default(),
            run_column: LatencyHistogram::default(),
            add_examples: LatencyHistogram::default(),
            status: LatencyHistogram::default(),
            apply: LatencyHistogram::default(),
            requests: AtomicU64::new(0),
        }
    }

    fn observe(&self, hist: &LatencyHistogram, elapsed: Duration) {
        hist.observe(elapsed);
        self.requests.fetch_add(1, Ordering::Relaxed);
    }
}

fn inputs_of(task: &BenchmarkTask) -> Vec<Vec<String>> {
    task.rows.iter().map(|r| r.inputs.clone()).collect()
}

/// Runs `jobs.len()` closures over `connections` worker threads, each
/// worker owning one keep-alive [`Client`].
fn fan_out<J: Send, R: Send>(
    addr: std::net::SocketAddr,
    connections: usize,
    jobs: Vec<J>,
    work: impl Fn(&mut Client, J) -> R + Sync,
) -> Vec<R> {
    let jobs = Mutex::new(jobs.into_iter().map(Some).collect::<Vec<_>>());
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect worker client");
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .get_mut(index)
                        .and_then(Option::take)
                    else {
                        return;
                    };
                    let result = work(&mut client, job);
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(result);
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Drives one session's §3.2 loop to convergence over the wire,
/// mirroring `Session::converge_with` against the task's ground truth.
fn drive_session(
    client: &mut Client,
    mut job: SessionJob,
    tasks: &[BenchmarkTask],
    lat: &Latencies,
) -> DriveOutcome {
    let task = &tasks[job.task];
    let inputs = inputs_of(task);
    let (converged, cells) = loop {
        let start = Instant::now();
        let cells = client
            .run_column(&job.engine, job.session, &inputs)
            .expect("run_column");
        lat.observe(&lat.run_column, start.elapsed());
        let failing = task
            .rows
            .iter()
            .zip(&cells)
            .position(|(row, cell)| cell.as_deref() != Some(row.output.as_str()));
        match failing {
            None => break (true, cells),
            Some(i) => {
                if job.examples.len() >= MAX_EXAMPLES {
                    break (false, cells);
                }
                let example = task.rows[i].clone();
                let start = Instant::now();
                client
                    .add_examples(&job.engine, job.session, std::slice::from_ref(&example))
                    .expect("add example");
                lat.observe(&lat.add_examples, start.elapsed());
                job.examples.push(example);
            }
        }
    };
    let start = Instant::now();
    client
        .status(&job.engine, job.session)
        .expect("session status");
    lat.observe(&lat.status, start.elapsed());
    DriveOutcome {
        task: job.task,
        engine: job.engine,
        session: job.session,
        converged,
        examples: job.examples,
        cells,
    }
}

/// `sst_cache_hits_total{...}` summed across engines and layers (and the
/// matching misses) scraped from the server's own `/metrics` text.
fn scrape_cache_counters(metrics: &str) -> (u64, u64) {
    let mut hits = 0u64;
    let mut misses = 0u64;
    for line in metrics.lines() {
        let (name, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        if name.starts_with("sst_cache_hits_total") {
            hits += value.parse::<u64>().unwrap_or(0);
        } else if name.starts_with("sst_cache_misses_total") {
            misses += value.parse::<u64>().unwrap_or(0);
        }
    }
    (hits, misses)
}

fn quantiles(hist: &LatencyHistogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
        hist.count(),
        hist.quantile_ns(0.5),
        hist.quantile_ns(0.99)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("{name} takes a non-negative integer"))
            })
    };
    let tasks = all_tasks();
    // The batch and equivalence phases need every task driven at least
    // once, so the session count floors at the task count.
    let sessions = flag("--sessions")
        .unwrap_or(if smoke {
            SESSIONS_SMOKE
        } else {
            SESSIONS_DEFAULT
        })
        .max(tasks.len());
    let connections = flag("--connections").unwrap_or(if smoke {
        CONNECTIONS_SMOKE
    } else {
        CONNECTIONS_DEFAULT
    });
    let apply_reps = flag("--apply-reps").unwrap_or(if smoke {
        APPLY_REPS_SMOKE
    } else {
        APPLY_REPS_DEFAULT
    });
    let session_ttl = Duration::from_secs(flag("--session-ttl-secs").unwrap_or(600) as u64);

    let options = SynthesisOptions::default();

    let engines: Vec<(String, Engine)> = tasks
        .iter()
        .map(|task| {
            (
                format!("task-{}", task.id),
                Engine::with_options(Arc::new(task.db.clone()), options.clone()),
            )
        })
        .collect();
    let engine_names: Vec<String> = engines.iter().map(|(n, _)| n.clone()).collect();

    let server = Server::bind_named(
        engines,
        ServerConfig {
            session_ttl,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    let lat = Latencies::new();

    // Phase 1: create all sessions up front — every one of them is live
    // server-side at once before any is driven.
    let create_jobs: Vec<usize> = (0..sessions).map(|k| k % tasks.len()).collect();
    let create_start = Instant::now();
    let mut session_jobs = fan_out(addr, connections, create_jobs, |client, task_idx| {
        let engine = engine_names[task_idx].clone();
        let first = tasks[task_idx].rows[0].clone();
        let start = Instant::now();
        let info = client
            .create_session(&engine, std::slice::from_ref(&first))
            .expect("create session");
        lat.observe(&lat.create, start.elapsed());
        SessionJob {
            task: task_idx,
            engine,
            session: info.session,
            examples: vec![first],
        }
    });
    let create_wall = create_start.elapsed();
    let live_peak = server.live_sessions();
    session_jobs.sort_by_key(|job| job.session);

    // Phase 2: drive every session's interactive loop to convergence.
    let drive_start = Instant::now();
    let outcomes = fan_out(addr, connections, session_jobs, |client, job| {
        drive_session(client, job, &tasks, &lat)
    });
    let drive_wall = drive_start.elapsed();
    let interactive_wall = create_wall + drive_wall;
    let converged_sessions = outcomes.iter().filter(|o| o.converged).count();
    let examples_total: usize = outcomes.iter().map(|o| o.examples.len()).sum();
    let interactive_requests = lat.requests.load(Ordering::Relaxed);

    // The per-task converged state (first driven session of each task)
    // feeds the batch phase and the equivalence diff.
    let mut per_task: Vec<Option<&DriveOutcome>> = vec![None; tasks.len()];
    for outcome in &outcomes {
        per_task[outcome.task].get_or_insert(outcome);
    }
    let tasks_converged = per_task
        .iter()
        .filter(|o| o.is_some_and(|o| o.converged))
        .count();

    // Phase 3: batch apply streams over the converged example sets.
    let apply_jobs: Vec<usize> = (0..apply_reps).flat_map(|_| 0..tasks.len()).collect();
    let batch_rows: usize = apply_jobs.iter().map(|&t| tasks[t].rows.len()).sum();
    let apply_start = Instant::now();
    let apply_results = fan_out(addr, connections, apply_jobs, |client, task_idx| {
        let outcome = per_task[task_idx].expect("every task was driven");
        let request = ApplyRequest::new(outcome.examples.clone(), inputs_of(&tasks[task_idx]));
        let start = Instant::now();
        let responses = client
            .apply(&engine_names[task_idx], std::slice::from_ref(&request))
            .expect("batch apply");
        lat.observe(&lat.apply, start.elapsed());
        (task_idx, responses)
    });
    let apply_wall = apply_start.elapsed();
    let apply_outputs_match = apply_results.iter().all(|(task_idx, responses)| {
        responses.len() == 1
            && responses[0].result.as_ref().is_ok_and(|cells| {
                let task = &tasks[*task_idx];
                !per_task[*task_idx].expect("driven").converged
                    || task
                        .rows
                        .iter()
                        .zip(cells)
                        .all(|(row, cell)| cell.as_deref() == Some(row.output.as_str()))
            })
    });

    // Phase 4: warm replay — fresh sessions over hot caches.
    let mut warm_client = Client::connect(addr).expect("connect scrape client");
    let before = scrape_cache_counters(&warm_client.metrics_text().expect("metrics"));
    let warm_sessions = sessions.min(WARM_SESSIONS_CAP);
    let warm_jobs: Vec<usize> = (0..warm_sessions).map(|k| k % tasks.len()).collect();
    let warm_start = Instant::now();
    let warm_outcomes = fan_out(addr, connections, warm_jobs, |client, task_idx| {
        let engine = engine_names[task_idx].clone();
        let first = tasks[task_idx].rows[0].clone();
        let info = client
            .create_session(&engine, std::slice::from_ref(&first))
            .expect("create warm session");
        let job = SessionJob {
            task: task_idx,
            engine: engine.clone(),
            session: info.session,
            examples: vec![first],
        };
        let outcome = drive_session(client, job, &tasks, &lat);
        client
            .close_session(&engine, info.session)
            .expect("close warm session");
        outcome
    });
    let warm_wall = warm_start.elapsed();
    let after = scrape_cache_counters(&warm_client.metrics_text().expect("metrics"));
    let warm_hits = after.0 - before.0;
    let warm_misses = after.1 - before.1;
    let warm_converged = warm_outcomes.iter().filter(|o| o.converged).count();

    // Phase 5: the same conversations in-process; the wire must have
    // changed nothing observable.
    let mut equivalence_ok = true;
    for (task_idx, task) in tasks.iter().enumerate() {
        let outcome = per_task[task_idx].expect("every task was driven");
        let engine = Engine::with_options(Arc::new(task.db.clone()), options.clone());
        let mut session = engine.session();
        let local = session
            .converge_with(&task.rows, MAX_EXAMPLES)
            .expect("in-process convergence");
        let cells = session.run_column(&inputs_of(task)).expect("run_column");
        let applies = engine.apply_batch(
            &[ApplyRequest::new(outcome.examples.clone(), inputs_of(task))],
            None,
        );
        let wire_apply = apply_results
            .iter()
            .find(|(t, _)| *t == task_idx)
            .map(|(_, responses)| &responses[0])
            .expect("apply response for task");
        let apply_equal = match (&applies[0].result, &wire_apply.result) {
            (Ok(local_cells), Ok(wire_cells)) => local_cells == wire_cells,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let ok = local.converged == outcome.converged
            && local.examples_used == outcome.examples.len()
            && cells == outcome.cells
            && session.examples() == &outcome.examples[..]
            && apply_equal;
        if !ok {
            equivalence_ok = false;
            eprintln!(
                "equivalence mismatch on task {} ({}): local converged={} examples={} vs wire converged={} examples={}",
                task.id,
                task.name,
                local.converged,
                local.examples_used,
                outcome.converged,
                outcome.examples.len()
            );
        }
    }

    // Drain the interactive sessions through the close endpoint.
    let close_jobs: Vec<(String, u64)> = outcomes
        .iter()
        .map(|o| (o.engine.clone(), o.session))
        .collect();
    fan_out(addr, connections, close_jobs, |client, (engine, id)| {
        client.close_session(&engine, id).expect("close session");
    });
    let rejected = server.rejected_requests();
    let evicted = server.evicted_sessions();
    let live_end = server.live_sessions();
    let total_requests = lat.requests.load(Ordering::Relaxed);
    let total_wall = interactive_wall + apply_wall + warm_wall;

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"suite\": \"traffic_replay\",\n  \"smoke\": {smoke},\n"
    ));
    out.push_str(&format!(
        "  \"config\": {{\"tasks\": {}, \"sessions\": {}, \"connections\": {}, \"apply_reps\": {}, \"session_ttl_s\": {}}},\n",
        tasks.len(),
        sessions,
        connections,
        apply_reps,
        session_ttl.as_secs(),
    ));
    out.push_str(&format!(
        "  \"interactive\": {{\n    \"sessions\": {}, \"live_peak\": {}, \"converged\": {}, \"tasks_converged\": {}, \"examples_total\": {},\n    \"requests\": {}, \"create_wall_s\": {}, \"drive_wall_s\": {}, \"throughput_rps\": {:.1},\n    \"latency\": {{\"create\": {}, \"run_column\": {}, \"add_examples\": {}, \"status\": {}}}\n  }},\n",
        sessions,
        live_peak,
        converged_sessions,
        tasks_converged,
        examples_total,
        interactive_requests,
        secs(create_wall),
        secs(drive_wall),
        interactive_requests as f64 / interactive_wall.as_secs_f64(),
        quantiles(&lat.create),
        quantiles(&lat.run_column),
        quantiles(&lat.add_examples),
        quantiles(&lat.status),
    ));
    out.push_str(&format!(
        "  \"batch\": {{\"requests\": {}, \"rows\": {}, \"wall_s\": {}, \"rows_per_s\": {:.0}, \"outputs_match\": {}, \"latency\": {}}},\n",
        apply_results.len(),
        batch_rows,
        secs(apply_wall),
        batch_rows as f64 / apply_wall.as_secs_f64(),
        apply_outputs_match,
        quantiles(&lat.apply),
    ));
    out.push_str(&format!(
        "  \"warm\": {{\"sessions\": {}, \"converged\": {}, \"wall_s\": {}, \"cache_hits\": {}, \"cache_misses\": {}}},\n",
        warm_sessions,
        warm_converged,
        secs(warm_wall),
        warm_hits,
        warm_misses,
    ));
    out.push_str(&format!(
        "  \"equivalence\": {{\"checked_tasks\": {}, \"ok\": {}}},\n",
        tasks.len(),
        equivalence_ok,
    ));
    out.push_str(&format!(
        "  \"server\": {{\"rejected\": {}, \"evicted\": {}, \"live_end\": {}, \"total_requests\": {}, \"total_wall_s\": {}}}\n",
        rejected,
        evicted,
        live_end,
        total_requests,
        secs(total_wall),
    ));
    out.push_str("}\n");
    print!("{out}");

    // Fail loudly in CI-facing invocations if the stack misbehaved.
    assert!(equivalence_ok, "wire responses diverged from in-process");
    assert_eq!(
        rejected, 0,
        "admission rejected requests under default config"
    );
    assert!(warm_hits > 0, "warm replay produced no cache hits");
    assert_eq!(
        tasks_converged,
        tasks.len(),
        "some tasks failed to converge over the wire"
    );
}
