//! `wire_mixed`: two keep-alive `Client` connections to a `Server` in the
//! same process hosting one engine per suite task.
//!
//! Each connection follows its own seeded mix: half the operations are a
//! stateless `apply` of a converged example set; most of the rest are a
//! §3.2 conversation over the wire (`create_session` from a
//! seed-chosen truth row, `run_column`, `add_examples` on the first
//! mismatch, …, `close_session`); a small fixed share insert a row of
//! novel strings into the task's first table through the shared `Engine`
//! and delete it again (the wire has no mutation endpoint). Every wire
//! answer is checked against the same apply or conversation replayed
//! in-process on a separate engine during set-up; the mutations leave the
//! tables' contents unchanged, so those references stay valid.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use semantic_strings::core::{Example, SynthesisOptions};
use semantic_strings::server::{Client, ClientError, Server, ServerConfig};
use semantic_strings::service::{ApplyRequest, Engine};

use crate::common::{
    converse_in_process, first_mismatch, load_suite, ms, Column, Deck, Rng, Speed, Task,
    PROBE_EVERY,
};
use crate::counters::Counters;
use crate::trace::{Span, Tracer};
use crate::{Config, Measured};

/// Set-ups per run; `setup_s` is their median (a set-up takes
/// milliseconds, most of them thread wake-ups).
const SETUP_REPS: usize = 15;

const STREAM_MIX: u64 = 22;

const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Apply,
    Conversation,
    Mutation,
}

/// Each connection's schedule is blocks of 20 operations in a seeded
/// order: 10 stateless applies, 9 conversations and 1 row mutation.
const BLOCK: [Op; 20] = {
    let mut block = [Op::Apply; 20];
    let mut i = 10;
    while i < 19 {
        block[i] = Op::Conversation;
        i += 1;
    }
    block[19] = Op::Mutation;
    block
};

/// How often the traced run samples `sst_sessions_live`.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Endpoints whose server-side and wire time the traced run reports.
const ENDPOINTS: [&str; 5] = [
    "apply",
    "session_create",
    "run_column",
    "add_examples",
    "session_close",
];

/// One hosted task with its in-process references.
struct Hosted {
    task: usize,
    name: String,
    /// The server's engine (clones share all state), for mutations.
    engine: Engine,
    /// Converged examples the stateless applies send.
    examples: Vec<Example>,
    apply_ref: Column,
    /// Per start row: the `run_column` output of every conversation step.
    conversations: Vec<Vec<Column>>,
}

/// What one connection did.
#[derive(Default)]
struct Conn {
    attempted: u64,
    failed: u64,
    requests: u64,
    apply_ms: Vec<f64>,
    session_ms: Vec<f64>,
    mutate_us: Vec<f64>,
    retained_pct: Vec<f64>,
    counters: Counters,
    tracer: Option<Tracer>,
}

pub fn run(cfg: &Config) -> Measured {
    let mut m = Measured {
        callers: CONNECTIONS,
        counters: Counters::new(cfg.trace),
        ..Measured::default()
    };
    let mut boot = None;
    let mut speed = Speed::new();
    for _ in 0..SETUP_REPS {
        // The previous set-up's server and connections go down first.
        drop(boot.take());
        speed.probe();
        let started = Instant::now();
        let tasks = load_suite();
        let engines: Vec<(String, Engine)> = tasks
            .iter()
            .map(|t| {
                let engine = Engine::with_options(Arc::clone(&t.db), SynthesisOptions::default());
                (format!("t{}", t.meta.id), engine)
            })
            .collect();
        let server =
            Server::bind_named(engines.clone(), ServerConfig::default()).expect("bind the server");
        let clients: Vec<Client> = (0..CONNECTIONS)
            .map(|_| {
                let mut client = Client::connect(server.local_addr()).expect("connect");
                assert!(client.healthz().expect("healthz"), "server unhealthy");
                client
            })
            .collect();
        m.setup
            .push(started.elapsed().as_secs_f64() * speed.factor());
        boot = Some((tasks, engines, server, clients));
    }
    let (tasks, engines, server, clients) = boot.expect("at least one set-up");
    let hosted = references(&tasks, engines);
    let mutable: Vec<usize> = (0..hosted.len())
        .filter(|&h| !tasks[hosted[h].task].db.is_empty())
        .collect();

    let metrics_before = cfg.trace.then(|| scrape(&server));
    let engine_stats: Vec<_> = hosted
        .iter()
        .map(|h| (h.engine.cache_stats(), h.engine.arena_stats()))
        .collect();
    // Connections run each operation under a read guard; the main thread
    // takes the write side to probe the machine's speed between operations.
    let gate = RwLock::new(());
    let factor = AtomicU64::new(speed.factor().to_bits());
    let done = AtomicBool::new(false);
    let origin = Instant::now();
    let deadline = origin + cfg.seconds;
    let mut window_ref_s = 0.0;
    let (conns, live_peak) = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let shared = Shared {
                    tasks: &tasks,
                    hosted: &hosted,
                    mutable: &mutable,
                    gate: &gate,
                    factor: &factor,
                };
                s.spawn(move || drive(i, client, shared, cfg, origin, deadline))
            })
            .collect();
        let sampler = cfg.trace.then(|| {
            let (done, server) = (&done, &server);
            s.spawn(move || sample_live_sessions(server, done))
        });
        let mut resumed = Instant::now();
        while resumed < deadline {
            std::thread::sleep(PROBE_EVERY.min(deadline - resumed));
            let _paused = gate.write().expect("no connection panics under the gate");
            window_ref_s += resumed.elapsed().as_secs_f64() * speed.factor();
            speed.probe();
            factor.store(speed.factor().to_bits(), Ordering::Relaxed);
            resumed = Instant::now();
        }
        let conns: Vec<Conn> = workers
            .into_iter()
            .map(|w| w.join().expect("connection thread"))
            .collect();
        window_ref_s += resumed.elapsed().as_secs_f64() * speed.factor();
        done.store(true, Ordering::Release);
        let peak = sampler.map_or(0.0, |h| h.join().expect("sampler thread"));
        (conns, peak)
    });
    m.window_s = origin.elapsed().as_secs_f64();
    m.probe_ms = speed.median_ms();

    let (mut requests, mut mutate_us, mut retained_pct) = (0, Vec::new(), Vec::new());
    for mut c in conns {
        m.attempted += c.attempted;
        m.failed += c.failed;
        requests += c.requests;
        m.op_ms.append(&mut c.apply_ms);
        m.flow_ms.append(&mut c.session_ms);
        mutate_us.append(&mut c.mutate_us);
        retained_pct.append(&mut c.retained_pct);
        m.counters.merge_quality(&c.counters);
        m.tracers.extend(c.tracer);
    }
    m.throughput = requests as f64 / window_ref_s;
    if let Some(before) = metrics_before {
        for (h, (cache, arena)) in hosted.iter().zip(&engine_stats) {
            m.counters.add(
                cache,
                &h.engine.cache_stats(),
                arena,
                &h.engine.arena_stats(),
            );
        }
        let after = scrape(&server);
        server_layers(&mut m, &before, &after, live_peak);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.layers.push(("tables.mutate_us".into(), mean(&mutate_us)));
        m.layers
            .push(("cache.entries_retained_pct".into(), mean(&retained_pct)));
    }
    m
}

/// Per-task references, replayed in-process on engines the server does
/// not see: the example set converged from the first row and its apply,
/// and every conversation the schedule can start.
fn references(tasks: &[Task], engines: Vec<(String, Engine)>) -> Vec<Hosted> {
    let mut hosted = Vec::new();
    for (i, (task, (name, engine))) in tasks.iter().zip(engines).enumerate() {
        let local = Engine::with_options(Arc::clone(&task.db), SynthesisOptions::default());
        let conversations: Vec<_> = (0..task.rows.len())
            .map(|start| converse_in_process(&local, task, start).expect("reference conversation"))
            .collect();
        let (steps, examples) = &conversations[0];
        if first_mismatch(&task.rows, steps.last().expect("one step")).is_some() {
            continue;
        }
        let apply_ref = local
            .apply(examples, &task.inputs)
            .expect("reference apply");
        hosted.push(Hosted {
            task: i,
            name,
            engine,
            examples: examples.clone(),
            apply_ref,
            conversations: conversations.into_iter().map(|(steps, _)| steps).collect(),
        });
    }
    hosted
}

/// What the connection threads share.
#[derive(Clone, Copy)]
struct Shared<'a> {
    tasks: &'a [Task],
    hosted: &'a [Hosted],
    mutable: &'a [usize],
    gate: &'a RwLock<()>,
    /// The current `Speed::factor`, as `f64` bits.
    factor: &'a AtomicU64,
}

fn drive(
    conn: usize,
    mut client: Client,
    shared: Shared,
    cfg: &Config,
    origin: Instant,
    deadline: Instant,
) -> Conn {
    let Shared {
        tasks,
        hosted,
        mutable,
        gate,
        factor,
    } = shared;
    let mut rng = Rng::new(cfg.seed, STREAM_MIX + conn as u64);
    let mut tracer = Tracer::new(cfg.trace, origin, (conn as u64) << 40);
    let mut c = Conn {
        counters: Counters::new(false),
        ..Conn::default()
    };
    let mut block = BLOCK;
    let (mut applies, mut conversations) = (Deck::new(hosted.len()), Deck::new(hosted.len()));
    let mut mutations = Deck::new(mutable.len());
    let mut start_rows: Vec<Deck> = hosted
        .iter()
        .map(|h| Deck::new(tasks[h.task].rows.len()))
        .collect();
    while Instant::now() < deadline {
        let slot = c.attempted as usize % BLOCK.len();
        if slot == 0 {
            rng.shuffle(&mut block);
        }
        let op = block[slot];
        let h = match op {
            Op::Apply => applies.draw(&mut rng),
            Op::Conversation => conversations.draw(&mut rng),
            Op::Mutation => mutable[mutations.draw(&mut rng)],
        };
        let (h, start_rows) = (&hosted[h], &mut start_rows[h]);
        let _running = gate.read().expect("the prober never panics under the gate");
        let factor = f64::from_bits(factor.load(Ordering::Relaxed));
        let task = &tasks[h.task];
        c.attempted += 1;
        tracer.next_op();
        let ok = match op {
            Op::Apply => {
                let request = [ApplyRequest::new(h.examples.clone(), task.inputs.clone())];
                let started = Instant::now();
                tracer.begin("apply");
                let answer = tracer.span("wire.apply", || client.apply(&h.name, &request));
                tracer.end();
                let elapsed = ms(started.elapsed()) * factor;
                c.requests += 1;
                let ok = matches!(&answer, Ok(r) if r.len() == 1 && r[0].outputs() == Some(&h.apply_ref[..]));
                if ok {
                    c.apply_ms.push(elapsed);
                }
                ok
            }
            Op::Conversation => {
                let start = start_rows.draw(&mut rng);
                let started = Instant::now();
                tracer.begin("session");
                let result = converse(&mut client, &mut tracer, h, task, start, &mut c.requests);
                tracer.end();
                let elapsed = ms(started.elapsed()) * factor;
                match result {
                    Ok((true, examples, converged)) => {
                        c.session_ms.push(elapsed);
                        c.counters.conversation(examples, converged);
                        true
                    }
                    _ => false,
                }
            }
            Op::Mutation => {
                let name = format!("\u{2047}mut-{}-{conn}-{}", cfg.seed, c.attempted);
                mutate(&mut tracer, h, task, &name, &mut c)
            }
        };
        if !ok {
            eprintln!("wire_mixed: task {} {op:?} failed", task.meta.id);
            c.failed += 1;
        }
    }
    c.tracer = cfg.trace.then_some(tracer);
    c
}

/// One conversation over the wire. Returns whether every step matched the
/// in-process replay, the examples used and whether it converged.
fn converse(
    client: &mut Client,
    tracer: &mut Tracer,
    h: &Hosted,
    task: &Task,
    start: usize,
    requests: &mut u64,
) -> Result<(bool, usize, bool), ClientError> {
    let expected = &h.conversations[start];
    let first = [task.rows[start].clone()];
    let info = tracer.span("wire.session_create", || {
        client.create_session(&h.name, &first)
    })?;
    *requests += 1;
    let mut examples = 1;
    let mut matched = true;
    let mut converged = false;
    for (step, want) in expected.iter().enumerate() {
        let got = tracer.span("wire.run_column", || {
            client.run_column(&h.name, info.session, &task.inputs)
        })?;
        *requests += 1;
        if &got != want {
            matched = false;
            break;
        }
        match first_mismatch(&task.rows, &got) {
            None => converged = true,
            Some(row) if step + 1 < expected.len() => {
                let example = [task.rows[row].clone()];
                tracer.span("wire.add_examples", || {
                    client.add_examples(&h.name, info.session, &example)
                })?;
                *requests += 1;
                examples += 1;
            }
            Some(_) => {}
        }
    }
    tracer.span("wire.session_close", || {
        client.close_session(&h.name, info.session)
    })?;
    *requests += 1;
    Ok((matched, examples, converged))
}

/// Inserts one row of novel strings into the task's first table and
/// deletes it again, through the server's own engine.
fn mutate(tracer: &mut Tracer, h: &Hosted, task: &Task, name: &str, c: &mut Conn) -> bool {
    const TABLE: u32 = 0;
    let width = task.db.table(TABLE).width();
    let row: Vec<String> = (0..width).map(|col| format!("{name}-{col}")).collect();
    let entries = |e: &Engine| {
        let (dags, examples, intersections) = e.cache_entries();
        dags + examples + intersections
    };
    let before = tracer.is_on().then(|| entries(&h.engine));
    tracer.begin("mutation");
    let started = Instant::now();
    let removed = tracer
        .span("tables.insert_rows", || {
            h.engine.insert_rows(TABLE, vec![row])
        })
        .and_then(|ids| tracer.span("tables.delete_rows", || h.engine.delete_rows(TABLE, &ids)));
    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
    if let Some(before) = before {
        tracer.span("cache.validate", || h.engine.validate_cache());
        if before > 0 {
            c.retained_pct
                .push(100.0 * entries(&h.engine) as f64 / before as f64);
        }
    }
    tracer.end();
    c.mutate_us.push(elapsed_us);
    removed == Ok(1)
}

/// The server's `/metrics` text, through a connection of its own.
fn scrape(server: &Server) -> String {
    Client::connect(server.local_addr())
        .expect("metrics connection")
        .metrics_text()
        .expect("metrics text")
}

/// Peak of `sst_sessions_live` until `done`.
fn sample_live_sessions(server: &Server, done: &AtomicBool) -> f64 {
    let mut client = Client::connect(server.local_addr()).expect("metrics connection");
    let mut peak = 0.0f64;
    while !done.load(Ordering::Acquire) {
        let text = client.metrics_text().expect("metrics text");
        peak = peak.max(metric(&text, "sst_sessions_live").unwrap_or(0.0));
        std::thread::sleep(SAMPLE_EVERY);
    }
    peak
}

/// The value of the sample `key` (name plus labels) in `/metrics` text.
fn metric(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn server_layers(m: &mut Measured, before: &str, after: &str, live_peak: f64) {
    let mut client_ns = [(0u64, 0u64); ENDPOINTS.len()];
    for span in m.tracers.iter().flat_map(|t| t.spans()) {
        if let Some(i) = ENDPOINTS.iter().position(|e| span_is(span, e)) {
            client_ns[i].0 += span.end_ns - span.start_ns;
            client_ns[i].1 += 1;
        }
    }
    for (i, endpoint) in ENDPOINTS.iter().enumerate() {
        let at = |text: &str, suffix: &str| {
            metric(
                text,
                &format!("sst_request_latency_ns{suffix}{{endpoint=\"{endpoint}\"}}"),
            )
            .unwrap_or(0.0)
        };
        let p50 = metric(
            after,
            &format!("sst_request_latency_ns{{endpoint=\"{endpoint}\",quantile=\"0.5\"}}"),
        )
        .unwrap_or(0.0);
        let count = at(after, "_count") - at(before, "_count");
        let server_mean_ms = (at(after, "_sum") - at(before, "_sum")) / count.max(1.0) / 1e6;
        let (ns, n) = client_ns[i];
        let client_mean_ms = ns as f64 / n.max(1) as f64 / 1e6;
        m.layers
            .push((format!("server.{endpoint}_p50_ms"), p50 / 1e6));
        if n > 0 && count > 0.0 {
            m.layers.push((
                format!("wire.{endpoint}_overhead_ms"),
                client_mean_ms - server_mean_ms,
            ));
        }
    }
    let rejected = metric(after, "sst_rejected_total").unwrap_or(0.0);
    m.layers.push(("server.rejected".into(), rejected));
    m.layers
        .push(("server.sessions_live_peak".into(), live_peak));
}

fn span_is(span: &Span, endpoint: &str) -> bool {
    span.name.strip_prefix("wire.") == Some(endpoint)
}
