//! Synthetic workload generators: the Theorem 1 worst cases, a long-output
//! family, and large apply columns for the compiled bytecode plane.
//!
//! Two families from §4.2, learned in the `Lt` fragment
//! (`sst_core::generate_str_t`, the exact reachability gate):
//!
//! * [`chain_database`] — Example 3's table chain (Fig. 4): reaching the
//!   output walks `m` tables, and the number of consistent lookup programs
//!   grows like a Fibonacci sequence (Θ(φ^m)) while the data structure
//!   stays linear.
//! * [`wide_key_database`] — the CNF worst case: one table whose first `n`
//!   columns form the (declared) candidate key and `m` input variables all
//!   equal to the key value `s`; there are `(m+1)^n` consistent programs
//!   (each key column independently matched by the constant or any
//!   variable) represented in `O(n + m)` space.
//!
//! One syntactic family: [`long_output_pair`] — `n` words reversed and
//! joined by `-`, with no tables. The output DAG has one edge per
//! substring of the output, so `Intersect_u`'s edge product grows like
//! the fourth power of the output length; the pair exercises deadlines
//! inside that product.
//!
//! And one serving-side family: [`apply_column`] synthesizes a large input
//! column (10⁵–10⁶ rows) from a suite task's own input distribution, for
//! benchmarking `run_column` throughput at spreadsheet scale.

use crate::task::BenchmarkTask;
use sst_core::Example;
use sst_tables::{Database, Table};

/// Builds the Example 3 chain: tables `T1..Tm`, each with columns
/// `C1, C2, C3`, where `Ti` holds the row `(s_i, s_{i+1}, s_{i+2})` plus a
/// decoy row so keys stay meaningful. The example maps `s_1` to `s_m`.
///
/// Values are zero-padded (`s001`) so no value is a substring of another —
/// keeping `Lu`'s relaxed reachability identical to `Lt`'s exact
/// reachability on this workload.
pub fn chain_database(m: usize) -> (Database, Example) {
    assert!(m >= 2, "chain needs at least two strings");
    let s = |i: usize| format!("s{i:03}");
    let d = |i: usize| format!("d{i:03}");
    let mut tables = Vec::with_capacity(m - 1);
    for i in 1..m {
        // Ti reaches s_{i+1} (and s_{i+2} when it exists) from s_i.
        let row = vec![s(i), s(i + 1), s((i + 2).min(m))];
        let decoy = vec![d(i), d(i + 1), d(i + 2)];
        tables.push(
            Table::new(format!("T{i}"), vec!["C1", "C2", "C3"], vec![row, decoy])
                .expect("chain table"),
        );
    }
    let db = Database::from_tables(tables).expect("chain database");
    let example = Example::new(vec![s(1)], s(m));
    (db, example)
}

/// Builds the wide-key worst case: a table `Wide` with columns
/// `K1..Kn, Out`, declared key `K1..Kn`, one row `(s, s, ..., s, t)`, and
/// an example with `m` input variables all equal to `s` mapping to `t`.
pub fn wide_key_database(n: usize, m: usize) -> (Database, Example) {
    assert!(n >= 1 && m >= 1);
    let mut cols: Vec<String> = (1..=n).map(|i| format!("K{i}")).collect();
    cols.push("Out".to_string());
    let mut row: Vec<String> = vec!["s".to_string(); n];
    row.push("t".to_string());
    let key_cols: Vec<String> = (1..=n).map(|i| format!("K{i}")).collect();
    let key_refs: Vec<&str> = key_cols.iter().map(String::as_str).collect();
    let table = Table::with_keys("Wide", cols, vec![row], vec![key_refs]).expect("wide table");
    let db = Database::from_tables(vec![table]).expect("wide database");
    let example = Example::new(vec!["s"; m], "t");
    (db, example)
}

/// Two examples of the long-output family: each input is `n`
/// deterministic lowercase words joined by spaces (lengths alternate 4
/// and 5, letters drawn per example), and its output is the same words in
/// reverse order joined by `-`. The database is empty. An even `n` gives
/// outputs of `5.5·n − 1` characters: 43, 87, 186 and 373 for `n` = 8,
/// 16, 34 and 68.
pub fn long_output_pair(n: usize) -> (Database, [Example; 2]) {
    let example = |seed: u64| {
        let mut rng = XorShift::new(seed);
        let words: Vec<String> = (0..n)
            .map(|i| {
                (0..4 + i % 2)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let output: Vec<&str> = words.iter().rev().map(String::as_str).collect();
        Example::new(vec![words.join(" ")], output.join("-"))
    };
    (Database::new(), [example(1), example(2)])
}

/// A deterministic xorshift64* stream — no RNG dependency, same column on
/// every run and platform for a given seed.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        XorShift(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Synthesizes a large apply column (`rows` input rows) from a suite
/// task's own input distribution: the spreadsheet's input rows are cycled
/// in shuffled order, and roughly one row in eight is mutated — a cell
/// value perturbed into a string the background tables have never seen, or
/// an input cleared to the empty string — so a learned program's
/// lookup-miss and undefined paths stay exercised at scale. Deterministic:
/// seeded by `task.id`, so benchmarks and differential tests replay the
/// exact same column.
pub fn apply_column(task: &BenchmarkTask, rows: usize) -> Vec<Vec<String>> {
    let base: Vec<&[String]> = task.rows.iter().map(|e| e.inputs.as_slice()).collect();
    assert!(!base.is_empty(), "task {} has no rows", task.id);
    let mut rng = XorShift::new(task.id as u64);
    (0..rows)
        .map(|i| {
            let mut row: Vec<String> = base[rng.below(base.len())].to_vec();
            // ~1/8 of rows exercise miss/undefined paths.
            if rng.below(8) == 0 && !row.is_empty() {
                let cell = rng.below(row.len());
                if rng.below(4) == 0 {
                    row[cell].clear();
                } else {
                    // A value no table cell contains: unique per row and
                    // outside every suite alphabet.
                    row[cell] = format!("\u{2047}miss{i}\u{2047}");
                }
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::generate_str_t;
    use sst_counting::BigUint;

    #[test]
    fn chain_reachability_depth_matches_fig4() {
        // With the C3 skip edges of Fig. 4 the shortest reachability path
        // to s_m takes ⌈(m-1)/2⌉ steps.
        for m in [2usize, 4, 6, 9] {
            let (db, example) = chain_database(m);
            assert_eq!(db.len(), m - 1);
            let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
            let d = generate_str_t(&db, &refs, &example.output, db.len());
            assert!(d.has_programs(), "chain m={m} must reach its output");
            let min_steps = (m - 1).div_ceil(2);
            let short = generate_str_t(&db, &refs, &example.output, min_steps - 1);
            assert!(!short.has_programs(), "chain m={m} reachable too early");
            let exact = generate_str_t(&db, &refs, &example.output, min_steps);
            assert!(exact.has_programs(), "chain m={m} at minimal depth");
        }
    }

    #[test]
    fn chain_count_grows_superlinearly_size_linearly() {
        // Theorem 1 on Fig. 4's chain: the program count grows
        // exponentially (at least 64x per two links) while the structure
        // grows by the same number of terminals per two links.
        let measured: Vec<(usize, BigUint, usize)> = (4..=18)
            .step_by(2)
            .map(|m| {
                let (db, example) = chain_database(m);
                let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
                let d = generate_str_t(&db, &refs, &example.output, db.len());
                (m, d.count(db.len()), d.size())
            })
            .collect();
        let step = measured[1].2 - measured[0].2;
        for pair in measured.windows(2) {
            let ((m0, c0, s0), (m1, c1, s1)) = (&pair[0], &pair[1]);
            assert_eq!(
                s1 - s0,
                step,
                "Theorem 1: chain size must grow linearly, m={m0}: {s0} -> m={m1}: {s1}"
            );
            assert!(
                *c1 >= c0 * &BigUint::from(64u64),
                "Theorem 1: chain count must grow at least 64x, m={m0}: {c0} -> m={m1}: {c1}"
            );
        }
    }

    #[test]
    fn wide_key_count_is_m_plus_1_to_the_n() {
        for (n, m) in [
            (1usize, 1usize),
            (2, 3),
            (3, 2),
            (4, 4),
            (6, 5),
            (8, 8),
            (10, 10),
        ] {
            let (db, example) = wide_key_database(n, m);
            let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
            let d = generate_str_t(&db, &refs, &example.output, db.len());
            let expected = BigUint::from((m as u64) + 1).pow(n as u32);
            assert_eq!(
                d.count(db.len()),
                expected,
                "Theorem 1: wide-key count for n={n}, m={m} is (m+1)^n"
            );
        }
    }

    #[test]
    fn lu_reachability_matches_lt_on_chains() {
        // Chain values are padded so no value is a substring of another:
        // the Lu relaxed gate must therefore activate exactly the rows Lt
        // activates, and the output stays reachable (Theorem 3 analogue).
        use sst_core::{generate_str_u, LuOptions};
        for m in [3usize, 6] {
            let (db, example) = chain_database(m);
            let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
            let lt = generate_str_t(&db, &refs, &example.output, db.len());
            let lu = generate_str_u(&db, &refs, &example.output, &LuOptions::default());
            assert!(lu.has_programs(), "Lu must reach chain m={m}");
            // Same set of reachable strings (node values).
            let mut lt_vals: Vec<&str> = lt.nodes.iter().map(|n| n.vals[0].as_str()).collect();
            let mut lu_vals: Vec<&str> = lu.nodes.iter().map(|n| n.vals[0].as_str()).collect();
            lt_vals.sort_unstable();
            lu_vals.sort_unstable();
            assert_eq!(lt_vals, lu_vals, "chain m={m}");
        }
    }

    #[test]
    fn lu_chain_size_stays_polynomial() {
        // Theorem 3(b)/4(a): Du's size is O(t² p m ℓ²) — polynomial in the
        // number of reachable strings (quadratic here: every predicate DAG
        // ranges over all known strings), while the represented program
        // count grows exponentially (Fibonacci-like, see the Lt tests).
        use sst_core::{generate_str_u, LuOptions};
        let size = |m: usize| {
            let (db, example) = chain_database(m);
            let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
            generate_str_u(&db, &refs, &example.output, &LuOptions::default()).size()
        };
        let s4 = size(4);
        let s8 = size(8);
        let s16 = size(16);
        // Doubling the chain may quadruple size (quadratic) but must not
        // grow it exponentially (2^8 over this span).
        assert!(s8 < s4 * 5, "s4={s4}, s8={s8}");
        assert!(s16 < s8 * 5, "s8={s8}, s16={s16}");
    }

    #[test]
    fn wide_key_size_linear_in_n_plus_m() {
        let size = |n: usize, m: usize| {
            let (db, example) = wide_key_database(n, m);
            let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
            generate_str_t(&db, &refs, &example.output, db.len()).size()
        };
        // Doubling n roughly doubles the size; it must not square it.
        let s4 = size(4, 3);
        let s8 = size(8, 3);
        assert!(s8 <= s4 * 3, "s4={s4}, s8={s8}");
    }

    #[test]
    fn long_output_pair_is_deterministic_and_reversed() {
        for (n, chars) in [(8usize, 43usize), (16, 87), (34, 186), (68, 373)] {
            let (db, examples) = long_output_pair(n);
            assert!(db.is_empty());
            assert_eq!(examples, long_output_pair(n).1, "n={n}");
            assert_ne!(examples[0], examples[1], "n={n}");
            for e in &examples {
                assert_eq!(e.output.chars().count(), chars, "n={n}");
                let mut words: Vec<&str> = e.inputs[0].split(' ').collect();
                assert_eq!(words.len(), n);
                words.reverse();
                assert_eq!(e.output, words.join("-"));
            }
        }
    }

    #[test]
    fn apply_column_is_deterministic_and_task_shaped() {
        let tasks = crate::all_tasks();
        let task = &tasks[0];
        let width = task.rows[0].inputs.len();
        let a = apply_column(task, 2000);
        let b = apply_column(task, 2000);
        assert_eq!(a, b, "same seed must give the same column");
        assert_eq!(a.len(), 2000);
        assert!(a.iter().all(|r| r.len() == width), "row arity preserved");
        // Mutations happen, but most rows come straight from the suite.
        let suite: std::collections::BTreeSet<&[String]> =
            task.rows.iter().map(|e| e.inputs.as_slice()).collect();
        let unseen = a.iter().filter(|r| !suite.contains(r.as_slice())).count();
        assert!(unseen > 0, "some rows must exercise miss paths");
        assert!(unseen < a.len() / 4, "most rows follow the distribution");
    }

    #[test]
    fn apply_column_differs_across_tasks() {
        let tasks = crate::all_tasks();
        let a = apply_column(&tasks[0], 100);
        let b = apply_column(&tasks[1], 100);
        assert_ne!(a, b, "different tasks draw different columns");
    }
}
