//! Observational-equivalence pin for the `Lu` ranking (§5.4).
//!
//! Ranking is a pure function of a learned structure and the weights, so
//! any change to how the shortest-path DP prices or materializes programs
//! must leave its output bit-identical. Three observables are pinned,
//! recorded from the materializing DP that built a concrete expression for
//! every atom it priced:
//!
//! * for every task, `top()`'s display and cost at each prefix of the
//!   §3.2 conversation (`converge` from row 0);
//! * the `top_k(10)` (display, cost) list on the converged example set;
//! * one FNV-1a digest over single-row learns from every ground-truth row
//!   of every task: each learn's `top()` and `top_k(3)` displays and costs.
//!
//! The first two live in `ranking_equivalence.pins`, one line per
//! program. On a mismatch the test writes what it saw next to the build
//! (under `CARGO_TARGET_TMPDIR`) and names the first differing line.

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{converge, Example, LearnedPrograms, Synthesizer};

const PINS: &str = include_str!("ranking_equivalence.pins");

/// FNV-1a (64-bit) over every single-row learn of the suite.
const SINGLE_ROW_DIGEST: u64 = 0x1601_f957_988e_5419;
const SINGLE_ROW_LEARNS: usize = 209;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 10;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn top_line(learned: &LearnedPrograms) -> String {
    match learned.top() {
        Some(p) => format!("{} | {p}", p.cost()),
        None => "none".to_string(),
    }
}

/// The pinned rendering of every task's conversation and converged top-k.
fn render_conversations() -> String {
    let mut out = String::new();
    for task in all_tasks() {
        out.push_str(&format!("task {} {}\n", task.id, task.name));
        let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
        for n in 1..=report.examples.len() {
            let learned = synthesizer
                .learn(&report.examples[..n])
                .unwrap_or_else(|e| panic!("task {} ({}) prefix {n}: {e}", task.id, task.name));
            out.push_str(&format!("  top@{n}: {}\n", top_line(&learned)));
        }
        let learned = report.learned;
        for (rank, p) in learned.top_k(TOP_K).iter().enumerate() {
            out.push_str(&format!("  k{rank}: {} | {p}\n", p.cost()));
        }
    }
    out
}

#[test]
fn conversation_tops_and_top_k_match_the_pins() {
    let actual = render_conversations();
    if actual == PINS {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ranking_equivalence.actual");
    std::fs::write(&path, &actual).expect("write the observed ranking");
    let (line, want, got) = PINS
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(actual.lines().map(Some).chain(std::iter::repeat(None)))
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| (i + 1, w.unwrap_or("<end>"), g.unwrap_or("<end>")))
        .expect("unequal renderings differ on some line");
    panic!(
        "ranking drifted at pin line {line}:\n  pinned: {want}\n  now:    {got}\n(full output: {})",
        path.display()
    );
}

#[test]
fn single_row_learns_match_the_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut learns = 0;
    for task in all_tasks() {
        let synthesizer = Synthesizer::new(std::sync::Arc::new(task.db.clone()));
        for (i, row) in task.rows.iter().enumerate() {
            learns += 1;
            fnv1a(&mut hash, format!("{} {i}\n", task.id).as_bytes());
            let Ok(learned) = synthesizer.learn(std::slice::from_ref::<Example>(row)) else {
                fnv1a(&mut hash, b"unlearnable\n");
                continue;
            };
            fnv1a(&mut hash, top_line(&learned).as_bytes());
            for p in learned.top_k(3) {
                fnv1a(&mut hash, format!("\n{} | {p}", p.cost()).as_bytes());
            }
            fnv1a(&mut hash, b"\n");
        }
    }
    assert_eq!(learns, SINGLE_ROW_LEARNS, "the suite's row count moved");
    assert_eq!(
        hash, SINGLE_ROW_DIGEST,
        "single-row ranking drifted: digest {hash:#018x}"
    );
}
