//! The repository's benchmark: one workload per process, inputs generated
//! from a seed, every output checked against a reference that is not the
//! code under test.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. Standard error gets a
//! readable summary. `perfbench/BENCHMARK.md` documents every metric.

mod apply_warm;
mod common;
mod counters;
mod learn_cold;
mod report;
mod trace;
mod wire_mixed;

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use semantic_strings::core::{LearnedPrograms, Pool, SynthesisError};
use semantic_strings::service::ServiceError;

use common::{median, peak_rss_mb, percentile};
use counters::Counters;
use report::Report;
use trace::{SelfTimes, Tracer};

pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch space inside the checkout (snapshots, span files).
    pub out_dir: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds per set-up.
    pub setup: Vec<f64>,
    /// Latencies of the workload's primary operation.
    pub op_ms: Vec<f64>,
    /// Latencies of its longer unit of work.
    pub flow_ms: Vec<f64>,
    pub throughput: f64,
    /// Median `Speed` probe time over the run, ms.
    pub probe_ms: f64,
    /// Wall time of the measured loop, and how many callers shared it.
    pub window_s: f64,
    pub callers: usize,
    pub tracers: Vec<Tracer>,
    pub counters: Counters,
    /// Per-layer values the workload computed itself.
    pub layers: Vec<(String, f64)>,
}

/// One benchmark workload.
struct Workload {
    name: &'static str,
    run: fn(&Config) -> Measured,
    /// Root span of the primary operation in the traced run.
    op_root: &'static str,
    /// Names the end-to-end `op`, `flow` and `throughput` metrics carry for
    /// this workload in the summary.
    aliases: [(&'static str, &'static str); 3],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "learn_cold",
        run: learn_cold::run,
        op_root: "step",
        aliases: [
            ("learn_step", "ms"),
            ("conversation", "ms"),
            ("conversations_per_s", "1/s"),
        ],
    },
    Workload {
        name: "apply_warm",
        run: apply_warm::run,
        op_root: "small",
        aliases: [
            ("apply", "ms"),
            ("fill", "ms"),
            ("fill_rows_per_s", "rows/s"),
        ],
    },
    Workload {
        name: "wire_mixed",
        run: wire_mixed::run,
        op_root: "apply",
        aliases: [
            ("wire_apply", "ms"),
            ("wire_session", "ms"),
            ("wire_ops_per_s", "requests/s"),
        ],
    },
];

/// The four public calls that `Engine::apply` and `Session::run_column`
/// bundle after their learn, each in its own span: rank, compile, apply.
pub fn apply_learned(
    learned: &LearnedPrograms,
    rows: &[Vec<String>],
    pool: &Pool,
    tracer: &mut Tracer,
) -> Result<Vec<Option<String>>, ServiceError> {
    let top = tracer
        .span("rank.top", || learned.top())
        .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))?;
    let compiled = tracer.span("compiled.compile", || top.compile());
    Ok(tracer.span("compiled.run_column", || compiled.run_column(rows, pool)))
}

fn parse_args() -> Result<(&'static Workload, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        out_dir: PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("perfbench-out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => cfg.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <learn_cold|apply_warm|wire_mixed> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut m = (workload.run)(&cfg);
    let mut report = Report::new(m.attempted, m.failed);
    let prefix = if cfg.trace { "traced." } else { "" };
    let e2e = [
        ("op_p50_ms", percentile(&mut m.op_ms, 0.5)),
        ("op_p90_ms", percentile(&mut m.op_ms, 0.9)),
        ("flow_p50_ms", percentile(&mut m.flow_ms, 0.5)),
        ("flow_p90_ms", percentile(&mut m.flow_ms, 0.9)),
        ("throughput_per_s", m.throughput),
    ];
    for (name, value) in e2e {
        report.set(&format!("{prefix}{name}"), value);
    }
    if cfg.trace {
        layer_metrics(workload, &cfg, &m, &mut report);
    } else {
        report.set("setup_s", median(&mut m.setup));
        report.set("peak_rss_mb", peak_rss_mb());
    }
    summarize(workload, &cfg, &m, &report);
    println!("{}", report.json_line(cfg.trace));
    ExitCode::SUCCESS
}

fn layer_metrics(workload: &Workload, cfg: &Config, m: &Measured, report: &mut Report) {
    let mut times = SelfTimes::default();
    let mut spans = 0usize;
    for tracer in &m.tracers {
        times.add(tracer.spans());
        spans += tracer.spans().len();
    }
    let op = workload.op_root;
    for (prefix, root) in [("", op), ("fill.", "fill")] {
        for layer in [
            "service.learn",
            "rank.top",
            "compiled.compile",
            "compiled.run_column",
        ] {
            report.set(
                &format!("{prefix}{layer}_ms"),
                times.per_root_ms(root, layer),
            );
        }
    }
    report.set("bench.self_ms", times.per_root_ms(op, op));
    let cost = trace::span_cost_ns();
    report.set("trace.spans", spans as f64);
    report.set("trace.span_cost_ns", cost);
    let busy_ns = m.window_s * 1e9 * m.callers.max(1) as f64;
    report.set("trace.overhead_pct", 100.0 * spans as f64 * cost / busy_ns);
    m.counters.report(report);
    for (name, value) in &m.layers {
        report.set(name, *value);
    }
    if let Err(err) = write_trace(workload, cfg, m) {
        eprintln!("perfbench: writing spans failed: {err}");
    }
}

/// Writes every span as one JSON line, after the measurement.
fn write_trace(workload: &Workload, cfg: &Config, m: &Measured) -> std::io::Result<()> {
    let path = cfg
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", workload.name, cfg.seed));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    let mut base = 0;
    for tracer in &m.tracers {
        trace::write_spans(&mut out, tracer.spans(), base)?;
        base += tracer.spans().len();
    }
    out.flush()?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// The readable report on standard error, with each generic end-to-end
/// metric also under the workload's own name.
fn summarize(workload: &Workload, cfg: &Config, m: &Measured, report: &Report) {
    let prefix = if cfg.trace { "traced." } else { "" };
    let [(op, op_unit), (flow, flow_unit), (rate, rate_unit)] = workload.aliases;
    let value = |generic: &str| report.get(&format!("{prefix}{generic}"));
    let mut lines = vec![
        (format!("{op}_p50"), value("op_p50_ms"), op_unit),
        (format!("{op}_p90"), value("op_p90_ms"), op_unit),
        (format!("{flow}_p50"), value("flow_p50_ms"), flow_unit),
        (format!("{flow}_p90"), value("flow_p90_ms"), flow_unit),
        (rate.to_string(), value("throughput_per_s"), rate_unit),
    ];
    if !cfg.trace {
        lines.push(("setup".into(), report.get("setup_s"), "s"));
        lines.push(("peak_rss".into(), report.get("peak_rss_mb"), "MiB"));
    }
    eprintln!(
        "{} seed={} trace={} attempted={} failed={} ops={} flows={} probe={:.4}ms (reference {} ms)",
        workload.name,
        cfg.seed,
        u8::from(cfg.trace),
        m.attempted,
        m.failed,
        m.op_ms.len(),
        m.flow_ms.len(),
        m.probe_ms,
        common::PROBE_REF_MS,
    );
    for (name, value, unit) in lines {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    if cfg.trace {
        for (name, unit) in report::PER_LAYER {
            eprintln!("  {name:<34} {:>14.4} {unit}", report.get(name));
        }
    }
}
