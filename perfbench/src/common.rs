//! Pieces every workload shares: the seeded generator, the suite loader,
//! the ground-truth check, percentiles and the process's peak RSS.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::core::Example;
use semantic_strings::service::{Engine, ServiceError};
use semantic_strings::tables::Database;

/// What one `Speed` probe takes on the reference machine, ms. Times are
/// reported as if the machine ran at that speed.
pub const PROBE_REF_MS: f64 = 1.5;
/// How often a measured loop pauses to probe the machine's speed.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Probes a speed factor is the median of (about the last second).
const PROBE_WINDOW: usize = 20;

/// Examples a simulated user gives before a conversation counts as
/// unconverged (the suite's §7 convention).
pub const MAX_EXAMPLES: usize = 3;

/// splitmix64: every generated input derives from the `--seed` argument
/// through one of these, each on its own stream so that adding a draw to
/// one stream never shifts another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws `0..n` in seeded permutations, reshuffled whenever one is used
/// up, so every value comes up equally often and a run's mix of tasks and
/// rows varies little from seed to seed.
#[derive(Debug, Clone)]
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(n: usize) -> Deck {
        assert!(n > 0, "a deck needs at least one card");
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// One suite task as the workloads use it: the database behind an `Arc`
/// so that engines share it, and the task's spreadsheet.
pub struct Task {
    pub db: Arc<Database>,
    /// Ground-truth rows: inputs with the output the user wants.
    pub rows: Vec<Example>,
    /// The spreadsheet's input column (the inputs of `rows`).
    pub inputs: Vec<Vec<String>>,
    /// The task without its database, for `apply_column`.
    pub meta: BenchmarkTask,
}

/// Builds the 50 suite tasks: tables, candidate keys and indexes.
pub fn load_suite() -> Vec<Task> {
    all_tasks()
        .into_iter()
        .map(|mut meta| {
            let db = Arc::new(std::mem::take(&mut meta.db));
            Task {
                db,
                rows: meta.rows.clone(),
                inputs: meta.input_rows(),
                meta,
            }
        })
        .collect()
}

/// One output per input row, as `run_column` and `Engine::apply` return.
pub type Column = Vec<Option<String>>;

/// The first row whose output differs from the ground truth — the row the
/// simulated user corrects next — or `None` when the column is right.
pub fn first_mismatch(rows: &[Example], outputs: &[Option<String>]) -> Option<usize> {
    if outputs.len() != rows.len() {
        return Some(0);
    }
    rows.iter()
        .zip(outputs)
        .position(|(row, out)| out.as_deref() != Some(row.output.as_str()))
}

/// One §3.2 conversation through an in-process session, starting from
/// ground-truth row `start`: the output of each step and the examples it
/// ended with. The last step matches the ground truth iff it converged.
pub fn converse_in_process(
    engine: &Engine,
    task: &Task,
    start: usize,
) -> Result<(Vec<Column>, Vec<Example>), ServiceError> {
    let mut session = engine.session();
    session.add_example(task.rows[start].clone());
    let mut steps = Vec::new();
    loop {
        let outputs = session.run_column(&task.inputs)?;
        let next = first_mismatch(&task.rows, &outputs);
        steps.push(outputs);
        match next {
            Some(row) if session.examples().len() < MAX_EXAMPLES => {
                session.add_example(task.rows[row].clone())
            }
            _ => return Ok((steps, session.examples().to_vec())),
        }
    }
}

/// FNV-1a over a column of outputs, `None` distinct from every string, so
/// a 20 000-row reference costs eight bytes to keep.
pub fn column_hash(outputs: &[Option<String>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for out in outputs {
        match out {
            Some(s) => {
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
            None => eat(&u64::MAX.to_le_bytes()),
        }
    }
    h
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `values` (sorted in place), `q` in (0, 1].
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's current speed, from a fixed probe of sorting and hashing
/// run between operations on two threads at once, as the engine's pool
/// runs.
///
/// A shared host slows this machine by up to half over minutes, far more
/// than the bound a regression must stay within. The probe is benchmark
/// code that no change to the program touches; it reuses its own buffers,
/// so neither the allocator nor the program's memory footprint moves it,
/// and it slows with the host as the workloads do. A time multiplied by
/// `factor()` is what it would have read on a machine where the probe
/// takes `PROBE_REF_MS`.
#[derive(Debug)]
pub struct Speed {
    bufs: [Vec<u64>; 2],
    recent: Vec<f64>,
    all: Vec<f64>,
    last: Instant,
}

impl Speed {
    pub fn new() -> Speed {
        let mut speed = Speed {
            bufs: [vec![0; 1 << 15], vec![0; 1 << 15]],
            recent: Vec::new(),
            all: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..PROBE_WINDOW {
            speed.probe();
        }
        speed
    }

    /// Probes now.
    pub fn probe(&mut self) {
        let started = Instant::now();
        let [a, b] = &mut self.bufs;
        std::thread::scope(|s| {
            s.spawn(|| sort_and_hash(a));
            sort_and_hash(b);
        });
        let took = ms(started.elapsed());
        if self.recent.len() == PROBE_WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(took);
        self.all.push(took);
        self.last = Instant::now();
    }

    /// Probes if `PROBE_EVERY` has passed since the last probe.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.probe();
        }
    }

    /// Multiplier from a wall time measured now to reference-speed time.
    pub fn factor(&self) -> f64 {
        PROBE_REF_MS / median(&mut self.recent.clone())
    }

    /// Median probe time over the whole run, ms.
    pub fn median_ms(&self) -> f64 {
        median(&mut self.all.clone())
    }
}

/// The probe's unit of work: fill, sort and hash one buffer.
fn sort_and_hash(buf: &mut [u64]) {
    let mut rng = Rng::new(0, 0);
    for x in buf.iter_mut() {
        *x = rng.next_u64();
    }
    buf.sort_unstable();
    let mut hasher = DefaultHasher::new();
    buf.hash(&mut hasher);
    std::hint::black_box(hasher.finish());
}
