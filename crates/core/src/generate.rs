//! `GenerateStr_u` (§5.3) and its exact fragment `GenerateStr_t` (§4.3):
//! synthesis of all programs consistent with one example.
//!
//! `GenerateStr_u` is `GenerateStr'_t` followed by a final `GenerateStr_s`:
//!
//! 1. **Relaxed reachability.** Like `GenerateStr_t`, but a cell `T[C, r]`
//!    is reachable from the frontier when it can be *syntactically
//!    assembled* from known strings — not only when it equals one. Per the
//!    paper's practical restriction we first require a substring relation
//!    (`T[C,r] ⊑ w` or `w ⊑ T[C,r]` for some known `w`), then require the
//!    assembly DAG to contain an expression using at least one non-constant
//!    atom ("uses a variable from σ ∪ η̃").
//! 2. **Generalized conditions.** For an activated row, each candidate-key
//!    column `C'` gets the predicate `C' = GenerateStr_s(σ ∪ η̃, T[C', r])`
//!    — a nested DAG whose constant paths subsume `Lt`'s `C' = s`.
//! 3. **Top-level DAG.** `GenerateStr_s(σ ∪ η̃, s)` over all reachable
//!    strings builds the output DAG whose atoms reference lookup nodes.
//!
//! `Lu` extends `Lt` (§5), so [`generate_str_t`] writes its result as the
//! same [`SemDStruct`]: a key predicate `C = {s, η}` (§4.2) is a one-edge
//! DAG carrying `{ConstStr(s), Whole(η)}`, and the top DAG is one edge
//! `{Whole(η_t)}`. Intersection, counting, ranking and evaluation are
//! `Lu`'s own.
//!
//! The iteration bound `k` defaults to the number of tables (§4.3). The
//! iteration itself is the shared engine in `crate::reach`; this module
//! contributes its two gates:
//!
//! * [`ExactGate`] (`GenerateStr_t`): a row activates when a frontier value
//!   equals one of its cells ([`Database::cells_equal`], one `u32` hash
//!   per frontier symbol);
//! * [`RelaxedGate`] (`GenerateStr_u`): a cell activates when it is
//!   substring-related to a frontier string (answered by the
//!   `SubstringIndex` postings behind [`Database::cells_related_to`] — no
//!   cell scan) and assemblable from the known strings with at least one
//!   non-constant atom, and conditions carry nested-DAG predicates over
//!   the step's σ ∪ η̃ snapshot.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use sst_syntactic::{generate_dag_prepared, AtomSet, Dag, GenOptions, PreparedSources};
use sst_tables::{ColId, Database, IntMap, RowId, Symbol, TableId};

use crate::cache::{DagCache, SourcesEpoch};
use crate::dstruct::{NodeId, SemDStruct};
use crate::reach::{reach, Activation, ReachPolicy, ReachState};
use crate::CancelToken;

/// Options for `Lu` generation.
#[derive(Debug, Clone)]
pub struct LuOptions {
    /// Reachability depth bound; `None` = number of tables.
    pub max_depth: Option<usize>,
    /// Syntactic-layer options (token set, context bound).
    pub syntactic: GenOptions,
    /// §5.3's "stronger restriction": only consider cells in a substring
    /// relation with a known string. `true` (the paper's experimental
    /// setting, and ours) trades a sliver of completeness for large
    /// speedups; `false` gates on assemblability alone.
    pub substring_gate: bool,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            max_depth: None,
            syntactic: GenOptions::default(),
            substring_gate: true,
        }
    }
}

impl LuOptions {
    /// Effective depth bound for a database.
    pub fn depth_for(&self, db: &Database) -> usize {
        self.max_depth.unwrap_or_else(|| db.len().max(1))
    }
}

/// The exact-equality gate of `GenerateStr_t` (Fig. 5a): a row activates
/// when a frontier value equals one of its cells, and each key column `C'`
/// of the row gets the paper's `C' = {s, η}` as a one-edge DAG carrying
/// `ConstStr(s)` and, when `s` is a node's value, `Whole(η)`.
struct ExactGate;

impl ReachPolicy for ExactGate {
    // Empty inputs still seed nodes (the frontier probe skips them:
    // empty strings match empty cells only vacuously).
    const SEED_EMPTY_INPUTS: bool = true;

    fn activations(
        &mut self,
        db: &Database,
        state: &ReachState,
        frontier: &[NodeId],
        out: &mut Vec<Activation>,
    ) {
        // Rows matched by the frontier values, with their matched columns.
        let mut matched: IntMap<(TableId, RowId), Vec<ColId>> = IntMap::default();
        for &node in frontier {
            let val = state.val(node);
            if val.is_empty() {
                continue;
            }
            for (tid, cell) in db.cells_equal(val) {
                matched.entry((tid, cell.row)).or_default().push(cell.col);
            }
        }
        let mut keys: Vec<(TableId, RowId)> = matched.keys().copied().collect();
        keys.sort_unstable();
        for key @ (table, row) in keys {
            out.push(Activation {
                table,
                row,
                hit_cols: matched.remove(&key).expect("key came from the map"),
            });
        }
    }

    fn key_dag(&mut self, state: &ReachState, value: Symbol) -> Option<Arc<Dag<NodeId>>> {
        if value.is_empty() {
            return Some(Arc::new(Dag::empty_output()));
        }
        let mut atoms = vec![AtomSet::ConstStr(value.as_str().to_string())];
        atoms.extend(state.node_of(value).map(AtomSet::Whole));
        Some(Arc::new(one_edge(atoms)))
    }
}

/// A two-node DAG whose single edge carries `atoms`.
fn one_edge(atoms: Vec<AtomSet<NodeId>>) -> Dag<NodeId> {
    Dag {
        num_nodes: 2,
        source: 0,
        target: 1,
        edges: BTreeMap::from([((0, 1), atoms)]),
    }
}

/// The relaxed-reachability gate (§5.3): substring relation via the
/// precomputed index, then syntactic assemblability, with nested-DAG key
/// predicates over the step's σ ∪ η̃ snapshot.
///
/// The assemblability check ("the cell's DAG has a program using at least
/// one non-constant atom") never builds a DAG here. A freshly generated DAG
/// has every `(i, j)` edge present and every edge carries the constant
/// atom, so a non-constant program exists iff *some atom anywhere* is
/// non-constant — iff some single character of the cell occurs in some
/// source. Two consequences the gate exploits:
///
/// * **substring gate on** — every candidate passes vacuously: the
///   relating frontier string is itself a source, and either direction of
///   the relation is an occurrence (cell ⊑ w occurs in `w`; `w` ⊑ cell
///   puts `w` on one of the cell's edges), so the per-candidate check is
///   skipped entirely;
/// * **substring gate off** — the check reduces to one character-set
///   membership probe per cell character against the union of source
///   characters.
struct RelaxedGate<'a> {
    opts: &'a LuOptions,
    /// The σ ∪ η̃ snapshot: prepared sources for every node the engine had
    /// when the current step's [`RelaxedGate::activations`] ran —
    /// conditions see the *pre-expansion* sources, as the paper specifies.
    /// Extended incrementally (sources only grow), so token runs and
    /// learned positions are computed once per node across all steps.
    prepared: Option<PreparedSources<NodeId>>,
    /// The snapshot's values in node order — the content identity the
    /// [`DagCache`] interns into a sources epoch. Extended in lockstep
    /// with `prepared`.
    source_syms: Vec<Symbol>,
    /// The memoized DAG plane, when the caller runs with one. Shared (the
    /// cache is interior-mutable): concurrent generations over synthesizer
    /// clones read-probe the same plane without serializing.
    cache: Option<&'a DagCache>,
    /// The current snapshot's interned epoch; `None` while no cache is
    /// attached (or before the first sync).
    epoch: Option<SourcesEpoch>,
    /// Cooperative cancellation, checked once per reachability step and
    /// once per key cell of an activated row (coarse granularity — never
    /// inside the per-character loops). A fired token dries the frontier
    /// up: no further activations or conditions are produced, so `reach`
    /// terminates with whatever partial state it had, and the caller
    /// discards it.
    cancel: &'a CancelToken,
}

impl RelaxedGate<'_> {
    /// Brings `prepared` (and the snapshot epoch) up to date with every
    /// node the engine holds.
    fn sync_sources(&mut self, state: &ReachState) {
        let prepared = self.prepared.get_or_insert_with(|| {
            PreparedSources::new(&[] as &[(NodeId, &str)], &self.opts.syntactic)
        });
        if prepared.len() < state.len() {
            let fresh: Vec<(NodeId, &'static str)> = state
                .iter()
                .skip(prepared.len())
                .map(|(id, val)| (id, val.as_str()))
                .collect();
            self.source_syms.extend(
                state
                    .iter()
                    .skip(self.source_syms.len())
                    .map(|(_, val)| val),
            );
            prepared.extend(&fresh);
        }
        if let Some(cache) = self.cache {
            self.epoch = Some(cache.epoch_of(&self.source_syms));
        }
    }

    /// The DAG of all expressions producing `value` over the current
    /// snapshot — served from the cache when one is attached (keyed by
    /// `(sources_epoch, value)`, so repeated key values share one
    /// allocation), built fresh otherwise.
    fn dag_for_value(&mut self, value: Symbol) -> Arc<Dag<NodeId>> {
        let prepared = self.prepared.as_ref().expect("sync_sources ran this step");
        match (self.cache, self.epoch) {
            (Some(cache), Some(epoch)) => cache.dag_for(epoch, value, || {
                generate_dag_prepared(prepared, value.as_str())
            }),
            _ => Arc::new(generate_dag_prepared(prepared, value.as_str())),
        }
    }
}

impl ReachPolicy for RelaxedGate<'_> {
    // Empty inputs are dropped up front: they can neither relate to a cell
    // nor contribute atoms.
    const SEED_EMPTY_INPUTS: bool = false;

    fn activations(
        &mut self,
        db: &Database,
        state: &ReachState,
        frontier: &[NodeId],
        out: &mut Vec<Activation>,
    ) {
        // Cancellation checkpoint (once per reachability step): producing
        // no activations dries the frontier up and `reach` terminates.
        if self.cancel.is_cancelled() {
            return;
        }
        // Candidate cells: substring-related to some frontier string (the
        // paper's experimental restriction), answered by the per-table
        // `SubstringIndex` postings; or every cell when the gate is
        // disabled.
        let mut candidates: HashSet<(TableId, RowId, ColId)> = HashSet::new();
        if self.opts.substring_gate {
            for &node in frontier {
                let w = state.val(node).as_str();
                for (tid, cell) in db.cells_related_to(w) {
                    candidates.insert((tid, cell.row, cell.col));
                }
            }
        } else {
            for (tid, table) in db.iter() {
                for (cell, v) in table.iter_cells() {
                    if !v.is_empty() {
                        candidates.insert((tid, cell.row, cell.col));
                    }
                }
            }
        }
        // NOTE: cells hit by an earlier frontier are *revisited* when the
        // current frontier relates to them again — the paper's line-15
        // behavior of adding a Select with the updated condition set `B`
        // (richer sources). Duplicate Selects are deduplicated on insert.
        let mut ordered: Vec<(TableId, RowId, ColId)> = candidates.into_iter().collect();
        ordered.sort_unstable();

        // Snapshot σ ∪ η̃ (this step's new nodes). (Symbols resolve to
        // `&'static str`, so the snapshot borrows nothing from `state`.)
        self.sync_sources(state);

        // Gate: the matched cell must be assemblable with ≥1 non-constant
        // atom from the *current* sources. Substring-related candidates
        // pass vacuously (see the type docs); the full-enumeration path
        // checks shared characters instead of building DAGs.
        if self.opts.substring_gate {
            for (tid, row, col) in ordered {
                out.push(Activation {
                    table: tid,
                    row,
                    hit_cols: vec![col],
                });
            }
        } else {
            let mut source_chars: HashSet<char> = HashSet::new();
            for (_, val) in state.iter() {
                source_chars.extend(val.as_str().chars());
            }
            for (tid, row, col) in ordered {
                let value = db.table(tid).cell(col, row);
                if value.chars().any(|c| source_chars.contains(&c)) {
                    out.push(Activation {
                        table: tid,
                        row,
                        hit_cols: vec![col],
                    });
                }
            }
        }
    }

    fn key_dag(&mut self, _state: &ReachState, value: Symbol) -> Option<Arc<Dag<NodeId>>> {
        // Cancellation checkpoint (once per key cell): abandoning the row
        // skips its remaining predicate-DAG builds.
        (!self.cancel.is_cancelled()).then(|| self.dag_for_value(value))
    }
}

/// Builds the `Du` structure of all `Lu` programs consistent with one
/// input-output example. Never fails: the all-constant program always
/// exists (ranking deprioritizes it).
pub fn generate_str_u(
    db: &Database,
    inputs: &[&str],
    output: &str,
    opts: &LuOptions,
) -> SemDStruct {
    generate_str_u_impl(db, inputs, output, opts, None, &CancelToken::default())
}

/// [`generate_str_u`] backed by a [`DagCache`], under the cache's own
/// generation options: per-value DAGs are served from
/// `(sources_epoch, value)` entries and whole repeated examples from the
/// example memo, with results bit-identical to [`generate_str_u`] (the
/// cache validates itself against `db.epoch()` first, so a mutated
/// database never serves stale structures). Also reports the structure's
/// example id, the link of the intersection memo's chain keys
/// (`Synthesizer::learn` keys `d₁ ∩ d₂ ∩ …` on the examples' ids, in fold
/// order). A cancellation observed during the build skips the
/// whole-example store (the partial structure never enters the memo) and
/// reports no id.
pub(crate) fn generate_str_u_keyed(
    db: &Database,
    inputs: &[&str],
    output: &str,
    cache: &DagCache,
    cancel: &CancelToken,
) -> (SemDStruct, Option<u32>) {
    // Whole-example memo: `Synthesize` on a growing example prefix (the
    // §3.2 loop) replays generation for every earlier example; generation
    // is deterministic in (db, inputs, output, opts), so an unmutated
    // database can serve the previous structure outright.
    let db_epoch = db.epoch();
    cache.validate(db_epoch);
    let ins: Vec<Symbol> = inputs.iter().map(|s| Symbol::intern(s)).collect();
    let out = Symbol::intern(output);
    if let Some((id, hit)) = cache.example(db_epoch, &ins, out) {
        return (hit, Some(id));
    }
    let opts = &cache.options().lu;
    let d = generate_str_u_impl(db, inputs, output, opts, Some(cache), cancel);
    if cancel.is_cancelled() {
        // Partial structure: never enters the whole-example memo.
        return (d, None);
    }
    let id = cache.store_example(db_epoch, &ins, out, &d);
    (d, id)
}

/// The one `GenerateStr_u` worker, with an optional [`DagCache`] and a
/// cooperative [`CancelToken`]: a fired token makes the reachability
/// frontier dry up at the next coarse checkpoint and the (partial) result
/// return early; the caller checks the token and discards it.
pub(crate) fn generate_str_u_impl(
    db: &Database,
    inputs: &[&str],
    output: &str,
    opts: &LuOptions,
    cache: Option<&DagCache>,
    cancel: &CancelToken,
) -> SemDStruct {
    let mut gate = RelaxedGate {
        opts,
        prepared: None,
        source_syms: Vec::new(),
        cache,
        epoch: None,
        cancel,
    };
    let state = reach(db, inputs, opts.depth_for(db), &mut gate);

    // Top-level DAG over every known string: extend the last step's
    // snapshot with the final expansion's nodes instead of re-preparing.
    // Served from the same `(sources_epoch, value)` plane as the predicate
    // DAGs — an output equal to a cached key value shares its allocation.
    gate.sync_sources(&state);
    let top: Arc<Dag<NodeId>> = gate.dag_for_value(Symbol::intern(output));

    SemDStruct {
        nodes: state.into_nodes(),
        top: Some(top),
    }
}

/// `GenerateStr_t` (Fig. 5a): the `Du` structure of all `Lt` programs of
/// lookup depth ≤ `depth` consistent with one example. The top DAG is the
/// single edge `{Whole(η_t)}` when the output is a reachable value and
/// `None` otherwise. Unpruned, like [`generate_str_u`]; fold examples with
/// [`crate::intersect_du`].
pub fn generate_str_t(db: &Database, inputs: &[&str], output: &str, depth: usize) -> SemDStruct {
    let state = reach(db, inputs, depth, &mut ExactGate);
    let target = Symbol::get(output).and_then(|s| state.node_of(s));
    SemDStruct {
        nodes: state.into_nodes(),
        top: target.map(|t| Arc::new(one_edge(vec![AtomSet::Whole(t)]))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dstruct::GenLookupU;
    use crate::eval::eval_sem;
    use crate::rank::LuRankWeights;
    use sst_tables::Table;

    pub(crate) fn comp_db() -> Database {
        Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
                vec!["c4", "Facebook"],
                vec!["c5", "IBM"],
                vec!["c6", "Xerox"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    fn bike_db() -> Database {
        Database::from_tables(vec![Table::new(
            "BikePrices",
            vec!["Bike", "Price"],
            vec![
                vec!["Ducati100", "10,000"],
                vec!["Ducati125", "12,500"],
                vec!["Ducati250", "18,000"],
                vec!["Honda125", "11,500"],
                vec!["Honda250", "19,000"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    #[test]
    fn exact_lookup_still_works() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        assert!(d.has_programs());
        // The top DAG's full edge should offer a lookup-node atom.
        assert!(d.count(2) > sst_counting::BigUint::one());
    }

    #[test]
    fn example6_substring_indexed_lookup_reachable() {
        // "c4 c3 c1" -> "Facebook Apple Microsoft": cells c4/c3/c1 are
        // substrings of the input, so their rows activate and the names
        // become sources for the top DAG.
        let db = comp_db();
        let d = generate_str_u(
            &db,
            &["c4 c3 c1"],
            "Facebook Apple Microsoft",
            &LuOptions::default(),
        );
        assert!(d.has_programs());
        // Extraction must produce a program that generalizes.
        let w = LuRankWeights::default();
        let prog = w.best(&d, 2).expect("top program");
        let got = eval_sem(
            &prog.expr,
            &db,
            &["c2 c5 c6"],
            &LuOptions::default().syntactic.token_set,
        );
        assert_eq!(got.as_deref(), Some("Google IBM Xerox"));
        // The input contains key cells but equals none: `Lt`'s exact gate
        // activates nothing.
        let lt = gen_t(&db, &["c4 c3 c1"], "Facebook Apple Microsoft");
        assert_eq!((lt.len(), lt.has_programs()), (1, false));
    }

    #[test]
    fn example5_concat_indexed_lookup_reachable() {
        let db = bike_db();
        let d = generate_str_u(&db, &["Honda", "125"], "11,500", &LuOptions::default());
        assert!(d.has_programs());
        let w = LuRankWeights::default();
        let prog = w.best(&d, 2).expect("top program");
        let got = eval_sem(
            &prog.expr,
            &db,
            &["Ducati", "250"],
            &LuOptions::default().syntactic.token_set,
        );
        assert_eq!(got.as_deref(), Some("18,000"));
    }

    #[test]
    fn unrelated_output_const_only() {
        let db = comp_db();
        let d = generate_str_u(&db, &["zzz"], "!!??!!", &LuOptions::default());
        // Still has (constant) programs...
        assert!(d.has_programs());
        // ...and exactly the constant decompositions: no lookup atoms.
        assert_eq!(d.len(), 1, "no cells relate to zzz");
    }

    #[test]
    fn empty_output_has_empty_program() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c1"], "", &LuOptions::default());
        assert!(d.has_programs());
        assert_eq!(d.count(1).to_u64(), Some(1));
    }

    #[test]
    fn depth_bound_limits_expansion() {
        let db = comp_db();
        let opts = LuOptions {
            max_depth: Some(0),
            ..Default::default()
        };
        let d = generate_str_u(&db, &["c2"], "Google", &opts);
        // No reachability: only the input node exists and the output is
        // only constant-representable.
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn disabling_gate_finds_concat_assembled_keys() {
        // Key "XY" is assemblable from "X-Y" but not substring-related to
        // it: the paper's general condition (gate off) reaches the row,
        // the experimental restriction (gate on) does not.
        let db = Database::from_tables(vec![Table::new(
            "Pairs",
            vec!["Key", "Val"],
            vec![vec!["XY", "ok1"], vec!["ZW", "ok2"]],
        )
        .unwrap()])
        .unwrap();
        let gated = generate_str_u(&db, &["X-Y"], "ok1", &LuOptions::default());
        assert_eq!(gated.len(), 1, "gate should block the XY row");
        let open = generate_str_u(
            &db,
            &["X-Y"],
            "ok1",
            &LuOptions {
                substring_gate: false,
                ..Default::default()
            },
        );
        assert!(open.len() > 1, "general condition should reach the row");
        let vals: Vec<&str> = open.nodes.iter().map(|n| n.vals[0].as_str()).collect();
        assert!(vals.contains(&"ok1"));
        // The learned program under the open gate generalizes.
        let w = LuRankWeights::default();
        let prog = w.best(&open, 2).unwrap();
        let got = eval_sem(
            &prog.expr,
            &db,
            &["Z-W"],
            &LuOptions::default().syntactic.token_set,
        );
        assert_eq!(got.as_deref(), Some("ok2"));
    }

    #[test]
    fn substring_relation_gate_blocks_unrelated_cells() {
        let db = comp_db();
        let d = generate_str_u(&db, &["c2"], "Google", &LuOptions::default());
        // c2's row activates; unrelated rows (c4, Facebook, ...) must not.
        let vals: Vec<&str> = d.nodes.iter().map(|n| n.vals[0].as_str()).collect();
        assert!(vals.contains(&"Google"));
        assert!(!vals.contains(&"Facebook"));
    }

    /// Example 2's database (join through CustData to Sale).
    pub(crate) fn join_db() -> Database {
        Database::from_tables(vec![
            Table::new(
                "CustData",
                vec!["Name", "Addr", "St"],
                vec![
                    vec!["Sean Riley", "432", "15th"],
                    vec!["Peter Shaw", "24", "18th"],
                    vec!["Mike Henry", "432", "18th"],
                    vec!["Gary Lamb", "104", "12th"],
                ],
            )
            .unwrap(),
            Table::new(
                "Sale",
                vec!["Addr", "St", "Date", "Price"],
                vec![
                    vec!["24", "18th", "5/21", "110"],
                    vec!["104", "12th", "5/23", "225"],
                    vec!["432", "18th", "5/20", "2015"],
                    vec!["432", "15th", "5/24", "495"],
                ],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    /// `GenerateStr_t` at the default depth bound (the number of tables).
    pub(crate) fn gen_t(db: &Database, inputs: &[&str], output: &str) -> SemDStruct {
        generate_str_t(db, inputs, output, db.len().max(1))
    }

    /// Asserts every enumerated program (up to `limit`) maps `inputs` to
    /// `output`, and returns their renderings.
    fn assert_sound(d: &SemDStruct, db: &Database, inputs: &[&str], output: &str) -> Vec<String> {
        let tokens = LuOptions::default().syntactic.token_set;
        let exprs = d.enumerate(db.len().max(1), 500);
        assert!(!exprs.is_empty());
        exprs
            .iter()
            .map(|e| {
                let shown = crate::display_sem(e, db);
                assert_eq!(
                    eval_sem(e, db, inputs, &tokens).as_deref(),
                    Some(output),
                    "unsound: {shown}"
                );
                shown
            })
            .collect()
    }

    #[test]
    fn lt_generated_programs_are_sound() {
        let db = comp_db();
        let d = gen_t(&db, &["c2"], "Google");
        let shown = assert_sound(&d, &db, &["c2"], "Google");
        assert_eq!(d.count(db.len()).to_u64(), Some(shown.len() as u64));
    }

    #[test]
    fn lt_join_example2_reaches_price() {
        let db = join_db();
        let d = gen_t(&db, &["Peter Shaw"], "110");
        let shown = assert_sound(&d, &db, &["Peter Shaw"], "110");
        // The intended join (via Addr ∧ St node predicates) is represented.
        assert!(
            shown.iter().any(|s| s.starts_with("Select(Price, Sale")
                && s.contains("Addr = Select(Addr, CustData, Name = v1)")
                && s.contains("St = Select(St, CustData, Name = v1)")),
            "intended join expression missing"
        );
    }

    #[test]
    fn lt_unreachable_output_has_no_top() {
        let d = gen_t(&comp_db(), &["c2"], "Amazon");
        assert!(d.top.is_none());
        assert!(!d.has_programs());
        assert!(d.count(3).is_zero());
    }

    #[test]
    fn lt_depth_zero_only_variables() {
        let db = comp_db();
        let d = generate_str_t(&db, &["c2"], "Google", 0);
        assert!(!d.has_programs(), "no Select should be reachable at k=0");
        // The identity is the one depth-0 program.
        let d = generate_str_t(&db, &["c2"], "c2", 0);
        assert_eq!(assert_sound(&d, &db, &["c2"], "c2"), ["v1"]);
    }

    #[test]
    fn lt_duplicate_input_values_share_node() {
        let db = comp_db();
        let d = gen_t(&db, &["c2", "c2"], "Google");
        // Both v1 and v2 live on the same node.
        assert_eq!(d.node(NodeId(0)).progs.len(), 2);
        let shown = assert_sound(&d, &db, &["c2", "c2"], "Google");
        assert!(shown.iter().any(|s| s.contains("Id = v1")));
        assert!(shown.iter().any(|s| s.contains("Id = v2")));
    }

    #[test]
    fn lt_empty_cells_do_not_create_nodes() {
        let db = Database::from_tables(vec![Table::new(
            "T",
            vec!["A", "B"],
            vec![vec!["x", ""], vec!["y", "z"]],
        )
        .unwrap()])
        .unwrap();
        let d = gen_t(&db, &["x"], "z");
        // "" never becomes a node; "z" is unreachable from "x"'s row.
        assert!(!d.has_programs());
        assert!(d.nodes.iter().all(|n| !n.vals[0].is_empty()));
    }

    #[test]
    fn lt_empty_key_cell_is_the_empty_program() {
        // Key column B is empty in the matched row: its predicate is the
        // single empty program, not a constant or node alternative.
        let db = Database::from_tables(vec![Table::with_keys(
            "T",
            vec!["A", "B", "C"],
            vec![vec!["x", "", "out"]],
            vec![vec!["A", "B"]],
        )
        .unwrap()])
        .unwrap();
        let d = gen_t(&db, &["x"], "out");
        assert_sound(&d, &db, &["x"], "out");
        // A = {"x", v1} times B = {""}.
        assert_eq!(d.count(1).to_u64(), Some(2));
    }

    #[test]
    fn lt_same_row_keys_are_node_referenced() {
        // Both columns are candidate keys; reaching the row through A must
        // produce a Select over key B with a *node* reference (the pass-1 /
        // pass-2 split), enabling chains like Ex. 3.
        let db = Database::from_tables(vec![Table::new(
            "T",
            vec!["A", "B"],
            vec![vec!["in", "out"]],
        )
        .unwrap()])
        .unwrap();
        let d = gen_t(&db, &["in"], "out");
        let target = d.node(NodeId(1));
        assert_eq!(target.vals[0].as_str(), "out");
        let has_node_pred = target.progs.iter().any(|p| match p {
            GenLookupU::Select { conds, .. } => conds
                .iter()
                .flat_map(|c| c.preds.iter())
                .flat_map(|pred| pred.dag.edges.values().flatten())
                .any(|atom| matches!(atom, AtomSet::Whole(_))),
            _ => false,
        });
        assert!(has_node_pred);
    }

    #[test]
    fn lt_fixpoint_terminates_before_depth_bound() {
        // A self-contained row: reachability saturates in one step even
        // though k allows more.
        let d = generate_str_t(&comp_db(), &["c2"], "Google", 50);
        assert_eq!(d.len(), 2); // only "c2" and "Google" are reachable
    }

    /// Property tests for the `Lt` fragment on random single-table
    /// databases: soundness of generation and intersection, depth
    /// monotonicity of counts, and generalization of the learned program.
    mod lt_properties {
        use proptest::prelude::*;

        use super::*;
        use crate::intersect::intersect_du;

        /// A random 3-column table `R`: row i is (`id{seed}x{i}`,
        /// `Name{seed}x{i}`, `cat{i % 2}`); ids and names are unique,
        /// categories repeat.
        fn fixture(n: usize, seed: u8) -> Database {
            let rows: Vec<Vec<String>> = (0..n)
                .map(|i| {
                    vec![
                        format!("id{seed}x{i}"),
                        format!("Name{seed}x{i}"),
                        format!("cat{}", i % 2),
                    ]
                })
                .collect();
            let table = Table::new("R", vec!["Id", "Name", "Cat"], rows).expect("valid table");
            Database::from_tables(vec![table]).unwrap()
        }

        fn eval(e: &crate::SemExpr, db: &Database, input: &str) -> Option<String> {
            eval_sem(e, db, &[input], &LuOptions::default().syntactic.token_set)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Definition 1 soundness: every enumerated program maps the
            /// example input to the example output.
            #[test]
            fn generate_sound_on_random_rows(n in 2usize..7, seed in 0u8..9, pick in 0usize..8) {
                let db = fixture(n, seed);
                let (input, output) = (db.table(0).cell(0, (pick % n) as u32), db.table(0).cell(1, (pick % n) as u32));
                let d = gen_t(&db, &[input], output);
                prop_assert!(d.has_programs());
                for e in d.enumerate(db.len(), 200) {
                    prop_assert_eq!(eval(&e, &db, input), Some(output.to_string()));
                }
            }

            /// Counts are monotone in the depth bound.
            #[test]
            fn count_monotone_in_depth(n in 2usize..6, seed in 0u8..9) {
                let db = fixture(n, seed);
                let d = generate_str_t(&db, &[db.table(0).cell(0, 0)], db.table(0).cell(1, 0), 3);
                for depth in 0..3 {
                    prop_assert!(d.count(depth) <= d.count(depth + 1), "count must grow with depth");
                }
            }

            /// Intersection soundness: surviving programs satisfy both
            /// examples.
            #[test]
            fn intersect_sound_on_random_pairs(n in 3usize..7, seed in 0u8..9, p1 in 0usize..8, p2 in 0usize..8) {
                let db = fixture(n, seed);
                let (p1, p2) = ((p1 % n) as u32, (p2 % n) as u32);
                prop_assume!(p1 != p2);
                let t = db.table(0);
                let inter = intersect_du(&gen_t(&db, &[t.cell(0, p1)], t.cell(1, p1)), &gen_t(&db, &[t.cell(0, p2)], t.cell(1, p2)));
                prop_assert!(inter.has_programs(), "the Id->Name lookup must survive");
                for e in inter.enumerate(db.len(), 200) {
                    for row in [p1, p2] {
                        prop_assert_eq!(eval(&e, &db, t.cell(0, row)), Some(t.cell(1, row).to_string()), "e={:?}", e);
                    }
                }
            }

            /// The top-ranked program learned from two random examples
            /// generalizes to the whole table.
            #[test]
            fn learned_program_generalizes_from_two_examples(n in 3usize..7, seed in 0u8..9) {
                let db = fixture(n, seed);
                let t = db.table(0);
                let d = intersect_du(&gen_t(&db, &[t.cell(0, 0)], t.cell(1, 0)), &gen_t(&db, &[t.cell(0, 1)], t.cell(1, 1)));
                let top = LuRankWeights::default().best(&d, db.len()).expect("ranked");
                for r in 0..n as u32 {
                    prop_assert_eq!(eval(&top.expr, &db, t.cell(0, r)), Some(t.cell(1, r).to_string()));
                }
            }

            /// Repeating (non-key) values never pin rows: learning
            /// `cat -> name` from two rows sharing `cat0` must fail.
            #[test]
            fn non_key_inputs_cannot_pin_rows(n in 4usize..7, seed in 0u8..9) {
                let db = fixture(n, seed);
                let t = db.table(0);
                let d = intersect_du(&gen_t(&db, &["cat0"], t.cell(1, 0)), &gen_t(&db, &["cat0"], t.cell(1, 2)));
                prop_assert!(!d.has_programs());
            }
        }
    }
}
