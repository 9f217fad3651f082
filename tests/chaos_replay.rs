//! Chaos harness for the serving stack.
//!
//! Replays the §7 benchmark suite against a live `sst-server` while a
//! seeded [`FaultPlan`] injects delays, dropped connections, truncated
//! responses and handler panics, then proves the stack absorbed all of
//! it: no hangs, no poisoned locks, every fault surfaced as a *typed*
//! error, and a final fault-free wave bit-identical to the in-process
//! plane with the engine caches still warm.
//!
//! Phases:
//!
//! 1. **Chaos drive** — [`SESSIONS`] interactive sessions run their §3.2
//!    loop to convergence over the wire with injection live. Harness-level
//!    retries (bounded, reconnect-on-transport-error) classify every
//!    surfaced failure: transport drops/truncations, typed 408/429/500.
//!    Anything else — a decode error, an untyped status — fails the test.
//! 2. **Churn** — retry-configured clients (`ClientConfig::retries`)
//!    hammer `/metrics` until the plan has injected at least
//!    [`TARGET_FAULTS`] faults, exercising the client's capped-backoff
//!    retry loop against live drops (the server counts the
//!    `x-retry-attempt` headers it sees).
//! 3. **Cancellation** — injection off; learn requests with
//!    `deadline-ms: 0` must each answer typed 408 within a second.
//! 4. **Fault-free wave** — fresh sessions replay every task on the same
//!    live server. Every task converges, and convergence, `run_column`
//!    cells and batch-apply responses are bit-identical to an in-process
//!    `Engine`/`Session` replay. `/metrics` shows the caches were still
//!    warm (chaos cost the memo plane nothing) and that a default-config
//!    server under [`CONNECTIONS`] clients rejected nothing.
//!
//! Run it with `cargo test --test chaos_replay`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::server::{
    Client, ClientConfig, ClientError, FaultPlan, Server, ServerConfig, DRAIN_STOPPED,
};
use semantic_strings::service::{ApplyRequest, Engine, LearnRequest, ServiceError};

/// Chaos-driven sessions; at least one per suite task.
const SESSIONS: usize = 60;

/// Client connections (= worker threads).
const CONNECTIONS: usize = 8;

/// Floor on injected faults before the churn phase may end.
const TARGET_FAULTS: usize = 60;

/// `deadline-ms: 0` learns in the cancellation phase.
const CANCEL_REQUESTS: usize = 40;

/// Fault probability per site visit, parts per million.
const RATE_PPM: u32 = 80_000;

/// Injected delay length.
const FAULT_DELAY_MS: u64 = 15;

/// Seed for the fault schedule.
const SEED: u64 = 0xC4A0_55ED;

/// Bound on one `deadline-ms: 0` learn round trip.
const CANCEL_BOUND: Duration = Duration::from_secs(1);

/// Consecutive failed attempts before the harness declares a hang/crash.
const MAX_PERSIST_ATTEMPTS: usize = 50;

/// Examples a session may use before it counts as unconverged.
const MAX_EXAMPLES: usize = 3;

fn inputs_of(task: &BenchmarkTask) -> Vec<Vec<String>> {
    task.rows.iter().map(|r| r.inputs.clone()).collect()
}

/// The failures that mean the stack leaked something untyped. A fault
/// must surface as a transport error or a typed 408/429/5xx; an
/// undecodable response (`decode`) or any other status (`http_other`)
/// must never happen.
#[derive(Default)]
struct ChaosCounts {
    decode: AtomicU64,
    http_other: AtomicU64,
}

impl ChaosCounts {
    fn record(&self, err: &ClientError) {
        let bucket = match err {
            ClientError::Decode(_) => &self.decode,
            ClientError::Http { status, .. } if !matches!(status, 408 | 429 | 500..) => {
                &self.http_other
            }
            _ => return,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `jobs.len()` closures over [`CONNECTIONS`] worker threads, each
/// worker owning one keep-alive [`Client`] built from `config`.
fn fan_out<J: Send, R: Send>(
    addr: SocketAddr,
    config: &ClientConfig,
    jobs: Vec<J>,
    work: impl Fn(&mut Client, J) -> R + Sync,
) -> Vec<R> {
    let jobs = Mutex::new(jobs.into_iter().map(Some).collect::<Vec<_>>());
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
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
/// hang or crash into a loud test failure instead of a stall.
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
fn drive_chaos_session(
    addr: SocketAddr,
    config: &ClientConfig,
    client: &mut Client,
    task: &BenchmarkTask,
    engine: &str,
    counts: &ChaosCounts,
) -> bool {
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

#[test]
fn served_stack_absorbs_injected_faults_and_replays_bit_identically() {
    // Injected handler panics unwind through the default hook before the
    // server's `catch_unwind` absorbs them; silence exactly those so the
    // output stays readable. Everything else still prints.
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

    let tasks = all_tasks();
    assert!(SESSIONS >= tasks.len(), "every task needs a chaos session");
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

    let plan = Arc::new(FaultPlan::new(SEED, RATE_PPM, FAULT_DELAY_MS));
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
    let chaos_jobs: Vec<usize> = (0..SESSIONS).map(|k| k % tasks.len()).collect();
    let chaos_outcomes = fan_out(addr, &drive_config, chaos_jobs, |client, t| {
        drive_chaos_session(
            addr,
            &drive_config,
            client,
            &tasks[t],
            &engine_names[t],
            &counts,
        )
    });
    let chaos_converged = chaos_outcomes.iter().filter(|c| **c).count();

    // Phase 2: churn until the plan has injected at least the target
    // fault count. The retry-enabled clients absorb drops and 5xx with
    // backoff; the server's sst_retries_total counts what they resent.
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
        if (plan.injected().total() as usize) >= TARGET_FAULTS && retried > 0 {
            break;
        }
        churn_rounds += 1;
        assert!(
            churn_rounds <= 400,
            "churn failed to reach {TARGET_FAULTS} injected faults with client retries"
        );
        let batch: Vec<usize> = (0..CONNECTIONS * 8).collect();
        fan_out(addr, &churn_config, batch, |client, _| {
            if let Err(err) = client.metrics_text() {
                counts.record(&err);
                *client = Client::connect_with(addr, churn_config.clone())
                    .expect("reconnect churn client");
            }
        });
    }
    drop(churn_client);
    let injected = plan.injected();

    // Phase 3: injection off; deadline-ms: 0 learns must answer typed
    // 408 in bounded time.
    plan.set_enabled(false);
    let timed_out = AtomicUsize::new(0);
    let cancel_jobs: Vec<usize> = (0..CANCEL_REQUESTS).map(|k| k % tasks.len()).collect();
    fan_out(addr, &drive_config, cancel_jobs, |client, t| {
        client.set_deadline_ms(Some(0));
        let task = &tasks[t];
        let request = LearnRequest::new(vec![task.rows[0].clone(), task.rows[1].clone()]);
        let start = Instant::now();
        let result = client.learn(&engine_names[t], std::slice::from_ref(&request));
        let elapsed = start.elapsed();
        match result {
            Err(ClientError::Http {
                status: 408,
                error: ServiceError::DeadlineExceeded { .. },
            }) => {
                timed_out.fetch_add(1, Ordering::Relaxed);
            }
            other => panic!("deadline-ms 0 learn must answer typed 408, got {other:?}"),
        }
        assert!(
            elapsed < CANCEL_BOUND,
            "cancellation must abort in bounded time, took {elapsed:?}"
        );
        client.set_deadline_ms(None);
    });

    // Phase 4: fault-free wave on the same live server — every task
    // replayed over the wire and in-process, compared bit for bit, with
    // the memo plane still warm from the chaos traffic.
    let mut scrape_client = Client::connect(addr).expect("connect scrape client");
    let before = scrape_client.metrics_text().expect("metrics");
    let final_jobs: Vec<usize> = (0..tasks.len()).collect();
    let final_outcomes = fan_out(addr, &drive_config, final_jobs, |client, t| {
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
    let after = scrape_client.metrics_text().expect("metrics");
    let warm_hits = scrape_counter(&after, "sst_cache_hits_total")
        - scrape_counter(&before, "sst_cache_hits_total");
    let wave_rejected = scrape_counter(&after, "sst_rejected_total")
        - scrape_counter(&before, "sst_rejected_total");
    let tasks_converged = final_outcomes.iter().filter(|o| o.1).count();

    let mut mismatches = Vec::new();
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
            mismatches.push(format!(
                "task {} ({}): local converged={} examples={} vs wire converged={} examples={}",
                task.id,
                task.name,
                local.converged,
                local.examples_used,
                wire_converged,
                wire_examples.len()
            ));
        }
    }

    let metrics_text = scrape_client.metrics_text().expect("metrics");
    let healthz_ok = scrape_client.healthz().expect("healthz");
    let panics_caught = server.caught_panics();
    let retries_seen = scrape_counter(&metrics_text, "sst_retries_total");
    drop(scrape_client);
    server.shutdown();
    let drained = server.drain_state() == DRAIN_STOPPED && server.active_requests() == 0;

    // The chaos contract.
    assert!(
        injected.total() as usize >= TARGET_FAULTS,
        "injected {} faults, needed {TARGET_FAULTS}",
        injected.total()
    );
    assert_eq!(
        counts.decode.load(Ordering::Relaxed),
        0,
        "a fault leaked an undecodable response"
    );
    assert_eq!(
        counts.http_other.load(Ordering::Relaxed),
        0,
        "a fault surfaced as an unexpected HTTP status"
    );
    assert_eq!(
        panics_caught, injected.panics,
        "every injected panic must be caught by the request boundary, and nothing else may panic"
    );
    assert_eq!(
        timed_out.load(Ordering::Relaxed),
        CANCEL_REQUESTS,
        "every deadline-ms 0 learn must answer typed 408"
    );
    assert_eq!(
        chaos_converged, SESSIONS,
        "chaos sessions failed to converge"
    );
    assert_eq!(
        tasks_converged,
        tasks.len(),
        "some tasks failed to converge over the wire"
    );
    assert!(
        mismatches.is_empty(),
        "fault-free wave diverged from in-process:\n{}",
        mismatches.join("\n")
    );
    assert!(warm_hits > 0, "chaos cost the engines their warm caches");
    assert_eq!(
        wave_rejected, 0,
        "admission rejected requests under the default config"
    );
    assert!(
        retries_seen > 0,
        "client retry loop never reached the server"
    );
    assert!(healthz_ok, "server unhealthy after chaos");
    assert!(drained, "shutdown failed to drain in-flight requests");
}
