//! Property tests for the memoized DAG plane and the pruned `Intersect_u`
//! (vendored proptest shim; randomized tables and example steps).
//!
//! Three families of properties:
//!
//! * **Soundness bounds on intersection** — `intersect_du(a, b)`
//!   represents the set intersection of two program sets, so its count can
//!   never exceed either operand's (the `min(|a|, |b|)` bound the
//!   behavioral soundness suite in `tests/soundness_properties.rs` checks
//!   pointwise).
//! * **Edge-pair pruning vs the oracle** — the optimized `Intersect_u`
//!   (forward-reached edge pairs only, empty-progset short-circuit,
//!   nested-DAG memo) must never drop (or invent) a program the naive
//!   `intersect_du_unpruned` oracle keeps: counts, sizes, emptiness and
//!   ranked outputs all agree.
//! * **Cache equivalence under randomized multi-step sessions** — a
//!   `DagCache`-backed generation sequence is bit-identical to fresh
//!   generations, including repeated examples (the whole-example memo
//!   path) and repeated key values (the `(sources_epoch, value)` path).

use std::sync::Arc;

use proptest::prelude::*;

use sst_core::{
    eval_sem, generate_str_u, intersect_du, intersect_du_unpruned, Example, LuOptions,
    LuRankWeights, SemDStruct, Synthesizer,
};
use sst_tables::{Database, Table};

/// A random 2-column code table with `n` rows; codes unique, names drawn
/// from a small alphabet so distinct rows often repeat values — the
/// repeated-key-value case the DAG cache and nested-DAG memo exist for.
fn code_table(n: usize, seed: u8, repeat_names: bool) -> Table {
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let name = if repeat_names {
                format!("N{}", (b'A' + (i % 3) as u8) as char)
            } else {
                format!("Val{}{}", (b'A' + seed % 20) as char, i)
            };
            vec![format!("k{seed}{i}"), name]
        })
        .collect();
    Table::new("T", vec!["Code", "Name"], rows).expect("valid random table")
}

fn gen(db: &Database, input: &str, output: &str) -> SemDStruct {
    generate_str_u(db, &[input], output, &LuOptions::default())
}

/// Compares every observable of two intersection results: emptiness,
/// depth-bounded counts, sizes, and the behavior of the ranked top
/// programs on the training inputs.
fn assert_observably_equal(
    pruned: &SemDStruct,
    oracle: &SemDStruct,
    db: &Database,
    inputs: &[&str],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let depth = LuOptions::default().depth_for(db);
    prop_assert_eq!(
        pruned.has_programs(),
        oracle.has_programs(),
        "emptiness drifted: {}",
        ctx
    );
    for d in 0..=depth {
        prop_assert_eq!(
            pruned.count(d),
            oracle.count(d),
            "count at depth {} drifted: {}",
            d,
            ctx
        );
    }
    prop_assert_eq!(pruned.size(), oracle.size(), "size drifted: {}", ctx);
    let w = LuRankWeights::default();
    let tokens = LuOptions::default().syntactic.token_set;
    let (tp, to) = (w.top_k(pruned, depth, 4), w.top_k(oracle, depth, 4));
    prop_assert_eq!(tp.len(), to.len(), "top-k arity drifted: {}", ctx);
    for (p, o) in tp.iter().zip(&to) {
        prop_assert_eq!(p.cost, o.cost, "ranked cost drifted: {}", ctx);
        for input in inputs {
            prop_assert_eq!(
                eval_sem(&p.expr, db, &[input], &tokens),
                eval_sem(&o.expr, db, &[input], &tokens),
                "ranked behavior drifted on {:?}: {}",
                input,
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// |a ∩ b| ≤ min(|a|, |b|) at every lookup depth.
    #[test]
    fn intersection_count_never_exceeds_either_side(
        n in 3usize..7,
        seed in 0u8..20,
        pick1 in 0usize..8,
        pick2 in 0usize..8,
        repeat in 0u8..2,
    ) {
        let table = code_table(n, seed, repeat == 1);
        let (p1, p2) = (pick1 % n, pick2 % n);
        let in1 = table.cell(0, p1 as u32).to_string();
        let out1 = table.cell(1, p1 as u32).to_string();
        let in2 = table.cell(0, p2 as u32).to_string();
        let out2 = table.cell(1, p2 as u32).to_string();
        let db = Database::from_tables(vec![table]).unwrap();
        let d1 = gen(&db, &in1, &out1);
        let d2 = gen(&db, &in2, &out2);
        let inter = intersect_du(&d1, &d2);
        let depth = LuOptions::default().depth_for(&db);
        for d in 0..=depth {
            let (ci, c1, c2) = (inter.count(d), d1.count(d), d2.count(d));
            let min = if c1 <= c2 { c1 } else { c2 };
            prop_assert!(
                ci <= min,
                "depth {d}: |inter| = {ci} exceeds min(|a|, |b|) = {min} \
                 for {in1:?}->{out1:?} x {in2:?}->{out2:?}"
            );
        }
    }

    /// The optimized intersection agrees with the naive oracle on every
    /// observable — in particular, edge-pair pruning never drops a program
    /// the unpruned `Intersect_u` keeps.
    #[test]
    fn pruned_intersection_matches_unpruned_oracle(
        n in 3usize..7,
        seed in 0u8..20,
        pick1 in 0usize..8,
        pick2 in 0usize..8,
        repeat in 0u8..2,
        extra in "[a-z]{0,3}",
    ) {
        let table = code_table(n, seed, repeat == 1);
        let (p1, p2) = (pick1 % n, pick2 % n);
        let in1 = table.cell(0, p1 as u32).to_string();
        let out1 = format!("{}{extra}", table.cell(1, p1 as u32));
        let in2 = table.cell(0, p2 as u32).to_string();
        let out2 = format!("{}{extra}", table.cell(1, p2 as u32));
        let db = Database::from_tables(vec![table]).unwrap();
        let d1 = gen(&db, &in1, &out1);
        let d2 = gen(&db, &in2, &out2);
        let pruned = intersect_du(&d1, &d2);
        let oracle = intersect_du_unpruned(&d1, &d2);
        let ctx = format!("{in1:?}->{out1:?} x {in2:?}->{out2:?}");
        assert_observably_equal(&pruned, &oracle, &db, &[&in1, &in2], &ctx)?;
    }

    /// A randomized multi-step session through one synthesizer's
    /// `DagCache` produces bit-identical structures to fresh uncached
    /// generations — including the repeated-example (memo hit) and
    /// repeated-key-value cases.
    #[test]
    fn cached_generation_is_bit_identical_across_sessions(
        n in 3usize..7,
        seed in 0u8..20,
        steps in prop::collection::vec(0usize..8, 2..6),
    ) {
        let table = code_table(n, seed, true);
        let db = Arc::new(Database::from_tables(vec![table.clone()]).unwrap());
        let opts = LuOptions::default();
        let depth = opts.depth_for(&db);
        let synthesizer = Synthesizer::new(Arc::clone(&db));
        for &pick in &steps {
            let pick = pick % n;
            let input = table.cell(0, pick as u32).to_string();
            let output = table.cell(1, pick as u32).to_string();
            let learned = synthesizer
                .learn(&[Example::new(vec![input.as_str()], output.as_str())])
                .expect("one example always learns");
            let cached = learned.dstruct();
            let fresh = generate_str_u(&db, &[&input], &output, &opts);
            prop_assert_eq!(cached.len(), fresh.len());
            prop_assert_eq!(cached.count(depth), fresh.count(depth));
            prop_assert_eq!(cached.size(), fresh.size());
            // Intersecting a cached and a fresh structure exercises the
            // Arc-shared DAGs through the full pipeline.
            let inter = intersect_du(cached, &fresh);
            prop_assert_eq!(inter.count(depth), fresh.count(depth));
        }
    }
}

#[test]
fn dag_cache_shares_repeated_key_value_dags() {
    // A composite candidate key (Brand, Disp): single key-column values
    // repeat across rows ("Ducati" pins three of them), so every row
    // activated in one step re-derives the same predicate DAG. With the
    // cache, the first build serves the rest — observable as per-value DAG
    // hits.
    let table = Table::new(
        "Bikes",
        vec!["Brand", "Disp", "Price"],
        vec![
            vec!["Ducati", "100", "10,000"],
            vec!["Ducati", "125", "12,500"],
            vec!["Ducati", "250", "18,000"],
            vec!["Honda", "125", "11,500"],
        ],
    )
    .unwrap();
    let synthesizer = Synthesizer::new(Arc::new(Database::from_tables(vec![table]).unwrap()));
    let learned = synthesizer
        .learn(&[Example::new(vec!["Ducati 125 vs Ducati 250"], "12,500")])
        .expect("one example always learns");
    assert!(learned.dstruct().has_programs());
    let stats = synthesizer.cache_stats();
    assert!(
        stats.dag_hits > 0,
        "repeated key values must hit the per-value DAG memo: {stats:?}"
    );
}
