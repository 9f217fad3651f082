//! Property-based tests for the `Ls` substrate.
//!
//! The contracts under test are the soundness halves of Definitions 1 and
//! 2 instantiated for the syntactic language, plus internal invariants of
//! the DAG representation (counts match enumeration on small instances,
//! pruning preserves the denotation).

use proptest::prelude::*;

use sst_counting::BigUint;
use sst_syntactic::{
    eval_expr, eval_pos_with_runs, generate_dag, intersect_dags, AtomSet, GenOptions,
    PositionLearner, RankWeights, StringRuns, TokenSet, Var,
};

fn ascii() -> impl Strategy<Value = String> {
    "[ -~]{1,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every position expression learned for (s, t) evaluates back to t.
    #[test]
    fn learned_positions_are_sound(s in ascii()) {
        let set = TokenSet::standard();
        let runs = StringRuns::compute(&s, &set);
        let learner = PositionLearner::new(&runs, &set, 2);
        for t in 0..=runs.len() {
            for pset in learner.learn(t) {
                for p in pset.enumerate(64) {
                    prop_assert_eq!(
                        eval_pos_with_runs(&p, &runs, &set),
                        Some(t),
                        "position {} at t={} in {:?}", p, t, &s
                    );
                }
            }
        }
    }

    /// Every program in the generated DAG maps the input to the output
    /// (sampled; output is built from the input to make sources useful).
    #[test]
    fn generate_dag_sound_on_derived_outputs(
        input in "[A-Za-z0-9 ,./-]{2,10}",
        a in 0usize..10,
        b in 0usize..10,
    ) {
        let chars: Vec<char> = input.chars().collect();
        let (a, b) = (a % chars.len(), b % chars.len());
        let (a, b) = (a.min(b), a.max(b) + 1);
        let output: String = chars[a..b].iter().collect();
        let opts = GenOptions::default();
        let sources = [(Var(0), input.as_str())];
        let dag = generate_dag(&sources, &output, &opts);
        for prog in dag.enumerate_programs(100) {
            let got = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| input.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got.as_deref(), Some(output.as_str()), "prog {}", prog);
        }
    }

    /// Intersection soundness: surviving programs reproduce both examples.
    #[test]
    fn intersection_sound_on_random_pairs(
        in1 in "[a-z]{2,6} [0-9]{1,4}",
        in2 in "[a-z]{2,6} [0-9]{1,4}",
    ) {
        let out1: String = in1.split(' ').nth(1).unwrap().to_string();
        let out2: String = in2.split(' ').nth(1).unwrap().to_string();
        let opts = GenOptions::default();
        let d1 = generate_dag(&[(Var(0), in1.as_str())], &out1, &opts);
        let d2 = generate_dag(&[(Var(0), in2.as_str())], &out2, &opts);
        let Some(inter) = intersect_dags(&d1, &d2, &mut |a: &Var, b: &Var| {
            (a == b).then_some(*a)
        }) else {
            return Ok(());
        };
        for prog in inter.enumerate_programs(60) {
            let got1 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| in1.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got1.as_deref(), Some(out1.as_str()), "prog {}", prog);
            let got2 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| in2.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got2.as_deref(), Some(out2.as_str()), "prog {}", prog);
        }
    }

    /// Counting agrees with exhaustive enumeration on tiny instances.
    #[test]
    fn count_matches_enumeration_when_small(
        input in "[a-z]{1,3}",
        output in "[a-z]{1,3}",
    ) {
        let opts = GenOptions::default();
        let dag = generate_dag(&[(Var(0), input.as_str())], &output, &opts);
        let count = dag.count_programs(&mut |_| BigUint::one());
        if let Some(c) = count.to_u64() {
            if c <= 2000 {
                let all = dag.enumerate_programs(4000);
                prop_assert_eq!(all.len() as u64, c);
            }
        }
    }

    /// The top-ranked program always reproduces its own example.
    #[test]
    fn top_program_reproduces_training_example(
        input in "[A-Za-z0-9,./ -]{1,10}",
        output in "[A-Za-z0-9 ]{1,6}",
    ) {
        let opts = GenOptions::default();
        let dag = generate_dag(&[(Var(0), input.as_str())], &output, &opts);
        let (_, top) = RankWeights::default()
            .best_program(&dag, &mut |_| Some(0))
            .expect("const program always exists");
        let row = &mut |v: &Var| (v.0 == 0).then(|| input.clone());
        prop_assert_eq!(eval_expr(&top, row, &opts.token_set), Some(output));
    }

    /// Cost-first ranking prices exactly what it would build: every atom
    /// set's and position set's allocation-free cost equals its best
    /// concrete atom's or position's, and the top program's cost is the
    /// sum of its atoms' costs. One source is vetoed at random.
    #[test]
    fn cost_first_pricing_matches_built_programs(
        in0 in "[A-Za-z0-9 ,.-]{1,8}",
        in1 in "[a-z0-9 ]{1,6}",
        output in "[A-Za-z0-9 ,.-]{1,8}",
        veto in 0u32..3,
    ) {
        let w = RankWeights::default();
        let sources = [(Var(0), in0.as_str()), (Var(1), in1.as_str())];
        let dag = generate_dag(&sources, &output, &GenOptions::default());
        let mut src_cost = |v: &Var| (v.0 != veto).then_some(u64::from(v.0) * 3);
        for node in 0..dag.num_nodes {
            for (_, atoms) in dag.outgoing(node) {
                for aset in atoms {
                    let built = w.best_atom(aset, &mut src_cost);
                    prop_assert_eq!(w.atom_cost(aset, &mut src_cost), built.as_ref().map(|b| b.0));
                    if let Some((cost, atom)) = &built {
                        prop_assert_eq!(w.atom_expr_cost(atom, &mut src_cost), Some(*cost));
                    }
                    if let AtomSet::SubStr { p1, p2, .. } = aset {
                        for pset in p1.iter().chain(p2.iter()) {
                            prop_assert_eq!(w.pos_cost(pset), w.best_pos(pset).0);
                        }
                    }
                }
            }
        }
        let (cost, prog) = w.best_program(&dag, &mut src_cost).expect("constants survive a veto");
        let summed = prog
            .atoms
            .iter()
            .map(|a| w.atom_expr_cost(a, &mut src_cost).map(|c| c + w.per_atom))
            .sum::<Option<u64>>();
        prop_assert_eq!(summed, Some(cost), "program {}", prog);
    }

    /// Self-intersection preserves the program count (idempotence up to
    /// representation).
    #[test]
    fn self_intersection_preserves_count(input in "[a-z0-9]{2,6}") {
        let opts = GenOptions::default();
        let output: String = input.chars().rev().collect();
        let dag = generate_dag(&[(Var(0), input.as_str())], &output, &opts);
        let inter = intersect_dags(&dag, &dag, &mut |a: &Var, b: &Var| {
            (a == b).then_some(*a)
        })
        .expect("nonempty");
        prop_assert_eq!(
            dag.count_programs(&mut |_| BigUint::one()),
            inter.count_programs(&mut |_| BigUint::one())
        );
    }
}
