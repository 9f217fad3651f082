//! Replays the §7 benchmark suite against a live `sst-server` while a
//! seeded [`FaultPlan`] injects delays, dropped connections, truncated
//! responses, and handler panics — then proves the stack absorbed all of
//! it: no hangs, no poisoned locks, every fault surfaced as a *typed*
//! error, and a final fault-free wave bit-identical to the in-process
//! plane with the engine caches still warm. Emits a JSON chaos report on
//! standard output, including the cancellation-latency quantiles for
//! deadline-aborted learns.
//!
//! Phases:
//!
//! 1. **Chaos drive** — N interactive sessions run their §3.2 loop to
//!    convergence over the wire with injection live. Harness-level
//!    retries (bounded, reconnect-on-transport-error) classify every
//!    surfaced failure: transport drops/truncations, typed 408/429/500.
//!    Anything else — a decode error, an untyped status — fails the run.
//! 2. **Churn** — retry-configured clients (`ClientConfig::retries`)
//!    hammer `/metrics` until the plan has injected at least
//!    `--target-faults` faults, exercising the client's capped-backoff
//!    retry loop against live drops (the server counts the
//!    `x-retry-attempt` headers it sees).
//! 3. **Cancellation** — injection off; every task gets learn requests
//!    with `deadline-ms: 0`, which must answer typed 408 in bounded
//!    time. Round-trip latencies land in the report's
//!    `cancellation.latency` quantiles.
//! 4. **Fault-free wave** — fresh sessions replay every task on the same
//!    live server; convergence, `run_column` cells and batch-apply
//!    responses must be bit-identical to an in-process `Engine`/`Session`
//!    replay, and `/metrics` must show the caches were still warm (chaos
//!    must not have cost the memo plane anything).
//!
//! Usage:
//!   `cargo run --release -p sst-bench --bin chaos_replay > chaos.json`
//!   `cargo run --release -p sst-bench --bin chaos_replay -- --smoke`
//!   `... -- --sessions 500 --fault-rate-ppm 120000 --seed 7`

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sst_bench::MAX_EXAMPLES;
use sst_benchmarks::{all_tasks, BenchmarkTask};
use sst_server::{
    Client, ClientConfig, ClientError, FaultPlan, LatencyHistogram, Server, ServerConfig,
    DRAIN_STOPPED,
};
use sst_service::{ApplyRequest, Engine, LearnRequest, ServiceError};

/// Chaos-driven sessions in the default full run.
const SESSIONS_DEFAULT: usize = 400;
const SESSIONS_SMOKE: usize = 60;

/// Client connections (= worker threads).
const CONNECTIONS_DEFAULT: usize = 12;
const CONNECTIONS_SMOKE: usize = 8;

/// Floor on injected faults before the run may end.
const TARGET_FAULTS_DEFAULT: usize = 1000;
const TARGET_FAULTS_SMOKE: usize = 60;

/// `deadline-ms: 0` learns in the cancellation-latency phase.
const CANCEL_REQUESTS_DEFAULT: usize = 200;
const CANCEL_REQUESTS_SMOKE: usize = 40;

/// Fault probability per site visit, parts per million.
const RATE_PPM_DEFAULT: usize = 80_000;

/// Injected delay length.
const FAULT_DELAY_MS_DEFAULT: usize = 15;

/// Seed for the fault schedule (and report reproducibility).
const SEED_DEFAULT: usize = 0xC4A0_55ED;

/// Consecutive failed attempts before the harness declares a hang/crash.
const MAX_PERSIST_ATTEMPTS: usize = 50;

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

fn quantiles(hist: &LatencyHistogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
        hist.count(),
        hist.quantile_ns(0.5),
        hist.quantile_ns(0.99)
    )
}

fn inputs_of(task: &BenchmarkTask) -> Vec<Vec<String>> {
    task.rows.iter().map(|r| r.inputs.clone()).collect()
}

/// Every failure the chaos wave observed, by typed kind. A fault must
/// surface as a transport error or a typed 408/429/5xx; `decode` and
/// `other` are the "stack leaked something untyped" buckets and must
/// stay zero.
#[derive(Default)]
struct ChaosCounts {
    io: AtomicU64,
    http_408: AtomicU64,
    http_429: AtomicU64,
    http_5xx: AtomicU64,
    http_other: AtomicU64,
    decode: AtomicU64,
}

impl ChaosCounts {
    fn record(&self, err: &ClientError) {
        let bucket = match err {
            ClientError::Io(_) => &self.io,
            ClientError::Decode(_) => &self.decode,
            ClientError::Http { status, .. } => match status {
                408 => &self.http_408,
                429 => &self.http_429,
                s if *s >= 500 => &self.http_5xx,
                _ => &self.http_other,
            },
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        [
            &self.io,
            &self.http_408,
            &self.http_429,
            &self.http_5xx,
            &self.http_other,
            &self.decode,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }
}

/// Runs `jobs.len()` closures over `connections` worker threads, each
/// worker owning one keep-alive [`Client`] built from `config`.
fn fan_out<J: Send, R: Send>(
    addr: SocketAddr,
    config: &ClientConfig,
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
                let mut client =
                    Client::connect_with(addr, config.clone()).expect("connect worker client");
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

/// Retries `op` until it succeeds, classifying every surfaced failure
/// and dialing a fresh connection after transport errors (the old one
/// may hold half a frame). A bounded attempt budget turns a genuine
/// hang or crash into a loud harness failure instead of a stall.
fn persist<T>(
    addr: SocketAddr,
    config: &ClientConfig,
    client: &mut Client,
    counts: &ChaosCounts,
    what: &str,
    mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> T {
    for _ in 0..MAX_PERSIST_ATTEMPTS {
        match op(client) {
            Ok(value) => return value,
            Err(err) => {
                counts.record(&err);
                if matches!(err, ClientError::Io(_)) {
                    *client = Client::connect_with(addr, config.clone())
                        .expect("reconnect after transport fault");
                }
            }
        }
    }
    panic!("{what}: {MAX_PERSIST_ATTEMPTS} consecutive failures under chaos");
}

/// One chaos-driven session: the §3.2 convergence loop where every
/// operation tolerates injected faults.
#[allow(clippy::too_many_arguments)]
fn drive_chaos_session(
    addr: SocketAddr,
    config: &ClientConfig,
    client: &mut Client,
    task_idx: usize,
    tasks: &[BenchmarkTask],
    engine_names: &[String],
    counts: &ChaosCounts,
) -> bool {
    let task = &tasks[task_idx];
    let engine = &engine_names[task_idx];
    let inputs = inputs_of(task);
    let mut examples = vec![task.rows[0].clone()];
    let info = persist(addr, config, client, counts, "create session", |c| {
        c.create_session(engine, &examples[..1])
    });
    let converged = loop {
        let cells = persist(addr, config, client, counts, "run_column", |c| {
            c.run_column(engine, info.session, &inputs)
        });
        let failing = task
            .rows
            .iter()
            .zip(&cells)
            .position(|(row, cell)| cell.as_deref() != Some(row.output.as_str()));
        match failing {
            None => break true,
            Some(i) => {
                if examples.len() >= MAX_EXAMPLES {
                    break false;
                }
                let example = task.rows[i].clone();
                persist(addr, config, client, counts, "add example", |c| {
                    c.add_examples(engine, info.session, std::slice::from_ref(&example))
                });
                examples.push(example);
            }
        }
    };
    persist(addr, config, client, counts, "session status", |c| {
        c.status(engine, info.session)
    });
    // Close is the one call where a lost response makes the retry answer
    // 404 (the first close landed); that 404 is correct, not chaos.
    for _ in 0..MAX_PERSIST_ATTEMPTS {
        match client.close_session(engine, info.session) {
            Ok(()) => break,
            Err(ClientError::Http { status: 404, .. }) => break,
            Err(err) => {
                counts.record(&err);
                if matches!(err, ClientError::Io(_)) {
                    *client = Client::connect_with(addr, config.clone())
                        .expect("reconnect after transport fault");
                }
            }
        }
    }
    converged
}

/// `name ...` counter lines summed from Prometheus text.
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|line| line.starts_with(name))
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(_, value)| value.parse::<u64>().unwrap_or(0))
        .sum()
}

fn main() {
    // Injected handler panics unwind through the default hook before the
    // server's `catch_unwind` absorbs them; silence exactly those so the
    // report stays readable. Everything else still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected handler panic"));
        if !injected {
            default_hook(info);
        }
    }));

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
    let target_faults = flag("--target-faults").unwrap_or(if smoke {
        TARGET_FAULTS_SMOKE
    } else {
        TARGET_FAULTS_DEFAULT
    });
    let cancel_requests = flag("--cancel-requests").unwrap_or(if smoke {
        CANCEL_REQUESTS_SMOKE
    } else {
        CANCEL_REQUESTS_DEFAULT
    });
    let rate_ppm = flag("--fault-rate-ppm").unwrap_or(RATE_PPM_DEFAULT) as u32;
    let delay_ms = flag("--fault-delay-ms").unwrap_or(FAULT_DELAY_MS_DEFAULT) as u64;
    let seed = flag("--seed").unwrap_or(SEED_DEFAULT) as u64;

    let engines: Vec<(String, Engine)> = tasks
        .iter()
        .map(|task| {
            (
                format!("task-{}", task.id),
                Engine::new(Arc::new(task.db.clone())),
            )
        })
        .collect();
    let engine_names: Vec<String> = engines.iter().map(|(n, _)| n.clone()).collect();

    let plan = Arc::new(FaultPlan::new(seed, rate_ppm, delay_ms));
    let mut server = Server::bind_named(
        engines,
        ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    // Clients never hang: every socket read is bounded, and drive-side
    // retries live in the harness (zero client retries) so every fault
    // is visible to the classifier.
    let drive_config = ClientConfig {
        request_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    // Churn clients exercise the real client retry loop instead.
    let churn_config = ClientConfig {
        request_timeout: Some(Duration::from_secs(5)),
        retries: 3,
        ..ClientConfig::default()
    };
    let counts = ChaosCounts::default();

    // Phase 1: the full suite driven to convergence with injection live.
    let chaos_start = Instant::now();
    let chaos_jobs: Vec<usize> = (0..sessions).map(|k| k % tasks.len()).collect();
    let chaos_outcomes = fan_out(addr, &drive_config, connections, chaos_jobs, |client, t| {
        drive_chaos_session(
            addr,
            &drive_config,
            client,
            t,
            &tasks,
            &engine_names,
            &counts,
        )
    });
    let chaos_wall = chaos_start.elapsed();
    let chaos_converged = chaos_outcomes.iter().filter(|c| **c).count();

    // Phase 2: churn until the plan has injected at least the target
    // fault count. The retry-enabled clients absorb drops and 5xx with
    // backoff; the server's sst_retries_total counts what they resent.
    let churn_start = Instant::now();
    let mut churn_rounds = 0usize;
    let mut churn_client =
        Client::connect_with(addr, drive_config.clone()).expect("connect churn scrape client");
    loop {
        let text = persist(
            addr,
            &drive_config,
            &mut churn_client,
            &counts,
            "scrape metrics",
            |c| c.metrics_text(),
        );
        let retried = scrape_counter(&text, "sst_retries_total");
        if (plan.injected().total() as usize) >= target_faults && retried > 0 {
            break;
        }
        churn_rounds += 1;
        assert!(
            churn_rounds <= 400,
            "churn failed to reach {target_faults} injected faults with client retries"
        );
        let batch: Vec<usize> = (0..connections * 8).collect();
        fan_out(addr, &churn_config, connections, batch, |client, _| {
            if let Err(err) = client.metrics_text() {
                counts.record(&err);
                *client = Client::connect_with(addr, churn_config.clone())
                    .expect("reconnect churn client");
            }
        });
    }
    drop(churn_client);
    let churn_wall = churn_start.elapsed();
    let injected = plan.injected();

    // Phase 3: injection off; deadline-ms: 0 learns must answer typed
    // 408 in bounded time. Round-trips feed the cancellation histogram.
    plan.set_enabled(false);
    let cancel_hist = LatencyHistogram::default();
    let timed_out = AtomicU64::new(0);
    let cancel_jobs: Vec<usize> = (0..cancel_requests).map(|k| k % tasks.len()).collect();
    let cancel_start = Instant::now();
    fan_out(
        addr,
        &drive_config,
        connections,
        cancel_jobs,
        |client, t| {
            client.set_deadline_ms(Some(0));
            let task = &tasks[t];
            let request = LearnRequest::new(vec![task.rows[0].clone(), task.rows[1].clone()]);
            let start = Instant::now();
            let result = client.learn(&engine_names[t], std::slice::from_ref(&request));
            cancel_hist.observe(start.elapsed());
            match result {
                Err(ClientError::Http {
                    status: 408,
                    error: ServiceError::DeadlineExceeded { .. },
                }) => {
                    timed_out.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("deadline-ms 0 learn must answer typed 408, got {other:?}"),
            }
            client.set_deadline_ms(None);
        },
    );
    let cancel_wall = cancel_start.elapsed();

    // Phase 4: fault-free wave on the same live server — every task
    // replayed over the wire and in-process, compared bit for bit, with
    // the memo plane still warm from the chaos traffic.
    let mut scrape_client = Client::connect(addr).expect("connect scrape client");
    let hits_before = scrape_counter(
        &scrape_client.metrics_text().expect("metrics"),
        "sst_cache_hits_total",
    );
    let final_start = Instant::now();
    let final_jobs: Vec<usize> = (0..tasks.len()).collect();
    let final_outcomes = fan_out(addr, &drive_config, connections, final_jobs, |client, t| {
        let task = &tasks[t];
        let engine = &engine_names[t];
        let inputs = inputs_of(task);
        let mut examples = vec![task.rows[0].clone()];
        let info = client
            .create_session(engine, &examples[..1])
            .expect("create final session");
        let (converged, cells) = loop {
            let cells = client
                .run_column(engine, info.session, &inputs)
                .expect("final run_column");
            let failing = task
                .rows
                .iter()
                .zip(&cells)
                .position(|(row, cell)| cell.as_deref() != Some(row.output.as_str()));
            match failing {
                None => break (true, cells),
                Some(i) => {
                    if examples.len() >= MAX_EXAMPLES {
                        break (false, cells);
                    }
                    let example = task.rows[i].clone();
                    client
                        .add_examples(engine, info.session, std::slice::from_ref(&example))
                        .expect("final add example");
                    examples.push(example);
                }
            }
        };
        let applies = client
            .apply(
                engine,
                &[ApplyRequest::new(examples.clone(), inputs.clone())],
            )
            .expect("final apply");
        client
            .close_session(engine, info.session)
            .expect("close final session");
        (t, converged, examples, cells, applies)
    });
    let final_wall = final_start.elapsed();
    let hits_after = scrape_counter(
        &scrape_client.metrics_text().expect("metrics"),
        "sst_cache_hits_total",
    );
    let warm_hits = hits_after - hits_before;

    let mut equivalence_ok = true;
    for (t, wire_converged, wire_examples, wire_cells, wire_applies) in &final_outcomes {
        let task = &tasks[*t];
        let engine = Engine::new(Arc::new(task.db.clone()));
        let mut session = engine.session();
        let local = session
            .converge_with(&task.rows, MAX_EXAMPLES)
            .expect("in-process convergence");
        let cells = session.run_column(&inputs_of(task)).expect("run_column");
        let applies = engine.apply_batch(
            &[ApplyRequest::new(wire_examples.clone(), inputs_of(task))],
            None,
        );
        let apply_equal = wire_applies.len() == 1
            && match (&applies[0].result, &wire_applies[0].result) {
                (Ok(local_cells), Ok(wire_cells)) => local_cells == wire_cells,
                (Err(_), Err(_)) => true,
                _ => false,
            };
        let ok = local.converged == *wire_converged
            && local.examples_used == wire_examples.len()
            && cells == *wire_cells
            && session.examples() == &wire_examples[..]
            && apply_equal;
        if !ok {
            equivalence_ok = false;
            eprintln!(
                "equivalence mismatch on task {} ({}): local converged={} examples={} vs wire converged={} examples={}",
                task.id,
                task.name,
                local.converged,
                local.examples_used,
                wire_converged,
                wire_examples.len()
            );
        }
    }

    let metrics_text = scrape_client.metrics_text().expect("metrics");
    let healthz_ok = scrape_client.healthz().expect("healthz");
    let panics_caught = server.caught_panics();
    let deadline_exceeded = scrape_counter(&metrics_text, "sst_deadline_exceeded_total");
    let timeouts_seen = scrape_counter(&metrics_text, "sst_timeouts_total");
    let retries_seen = scrape_counter(&metrics_text, "sst_retries_total");
    drop(scrape_client);
    server.shutdown();
    let drained = server.drain_state() == DRAIN_STOPPED && server.active_requests() == 0;

    let observed = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"suite\": \"chaos_replay\",\n  \"smoke\": {smoke},\n"
    ));
    out.push_str(&format!(
        "  \"config\": {{\"tasks\": {}, \"sessions\": {}, \"connections\": {}, \"seed\": {}, \"fault_rate_ppm\": {}, \"fault_delay_ms\": {}, \"target_faults\": {}}},\n",
        tasks.len(),
        sessions,
        connections,
        seed,
        rate_ppm,
        delay_ms,
        target_faults,
    ));
    out.push_str(&format!(
        "  \"chaos\": {{\n    \"sessions\": {}, \"converged\": {}, \"wall_s\": {}, \"churn_rounds\": {}, \"churn_wall_s\": {},\n    \"injected\": {{\"total\": {}, \"delays\": {}, \"drops\": {}, \"truncates\": {}, \"panics\": {}}},\n    \"observed\": {{\"total\": {}, \"io\": {}, \"http_408\": {}, \"http_429\": {}, \"http_5xx\": {}, \"http_other\": {}, \"decode\": {}}}\n  }},\n",
        sessions,
        chaos_converged,
        secs(chaos_wall),
        churn_rounds,
        secs(churn_wall),
        injected.total(),
        injected.delays,
        injected.drops,
        injected.truncates,
        injected.panics,
        counts.total(),
        observed(&counts.io),
        observed(&counts.http_408),
        observed(&counts.http_429),
        observed(&counts.http_5xx),
        observed(&counts.http_other),
        observed(&counts.decode),
    ));
    out.push_str(&format!(
        "  \"cancellation\": {{\"requests\": {}, \"timed_out\": {}, \"wall_s\": {}, \"latency\": {}}},\n",
        cancel_requests,
        timed_out.load(Ordering::Relaxed),
        secs(cancel_wall),
        quantiles(&cancel_hist),
    ));
    out.push_str(&format!(
        "  \"fault_free\": {{\"tasks\": {}, \"wall_s\": {}, \"equivalence_ok\": {}, \"cache_hits\": {}}},\n",
        final_outcomes.len(),
        secs(final_wall),
        equivalence_ok,
        warm_hits,
    ));
    out.push_str(&format!(
        "  \"server\": {{\"panics_caught\": {}, \"deadline_exceeded\": {}, \"timeouts\": {}, \"retries_seen\": {}, \"healthz_ok\": {}, \"drained\": {}}}\n",
        panics_caught,
        deadline_exceeded,
        timeouts_seen,
        retries_seen,
        healthz_ok,
        drained,
    ));
    out.push_str("}\n");
    print!("{out}");

    // The chaos contract, asserted loudly for CI.
    assert!(
        injected.total() as usize >= target_faults,
        "injected {} faults, needed {target_faults}",
        injected.total()
    );
    assert_eq!(
        observed(&counts.decode),
        0,
        "a fault leaked an undecodable response"
    );
    assert_eq!(
        observed(&counts.http_other),
        0,
        "a fault surfaced as an unexpected HTTP status"
    );
    assert_eq!(
        panics_caught, injected.panics,
        "every injected panic must be caught by the request boundary, and nothing else may panic"
    );
    assert_eq!(
        timed_out.load(Ordering::Relaxed) as usize,
        cancel_requests,
        "every deadline-ms 0 learn must answer typed 408"
    );
    assert!(
        cancel_hist.quantile_ns(0.99) < 1_000_000_000,
        "cancellation must abort in bounded time"
    );
    assert_eq!(
        chaos_converged, sessions,
        "chaos sessions failed to converge"
    );
    assert!(equivalence_ok, "fault-free wave diverged from in-process");
    assert!(warm_hits > 0, "chaos cost the engines their warm caches");
    assert!(
        retries_seen > 0,
        "client retry loop never reached the server"
    );
    assert!(healthz_ok, "server unhealthy after chaos");
    assert!(drained, "shutdown failed to drain in-flight requests");
}
