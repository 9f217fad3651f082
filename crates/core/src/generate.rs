//! `GenerateStr_u`: synthesis of all `Lu` programs consistent with one
//! example (§5.3).
//!
//! The procedure is `GenerateStr'_t` followed by a final `GenerateStr_s`:
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
//! The iteration bound `k` defaults to the number of tables (§4.3).
//!
//! The iteration itself lives in `sst-lookup`'s shared reachability engine
//! ([`sst_lookup::reach`]); this module contributes only the *relaxed* gate
//! ([`RelaxedGate`]): a cell activates when it is substring-related to a
//! frontier string (answered by the `SubstringIndex` postings behind
//! [`Database::cells_related_to`] — no cell scan) and assemblable from the
//! known strings with at least one non-constant atom, and conditions carry
//! nested-DAG predicates over the step's σ ∪ η̃ snapshot.

use std::collections::HashSet;
use std::sync::Arc;

use sst_lookup::reach::{reach, Activation, ReachPolicy, ReachState};
use sst_lookup::NodeId;
use sst_par::CancelToken;
use sst_syntactic::{generate_dag_prepared, Dag, GenOptions, PreparedSources};
use sst_tables::{ColId, Database, IntMap, RowId, Symbol, TableId};

use crate::cache::{DagCache, ExampleDeps, SourcesEpoch};
use crate::dstruct::{GenCondU, GenLookupU, GenPredU, SemDStruct, SemNode};

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
    /// Per-step memo: condition handle per activated row. Rows activated
    /// through several cells in one step share one `Arc` instead of
    /// re-deriving the identical predicate DAGs (insert-time dedup made
    /// the duplicates no-ops anyway; the memo skips building them).
    row_conds: IntMap<(TableId, RowId), Arc<Vec<GenCondU>>>,
    /// The memoized DAG plane, when the caller runs with one. Shared (the
    /// cache is interior-mutable): concurrent generations over synthesizer
    /// clones read-probe the same plane without serializing.
    cache: Option<&'a DagCache>,
    /// The current snapshot's interned epoch; `None` while no cache is
    /// attached (or before the first sync).
    epoch: Option<SourcesEpoch>,
    /// Cooperative cancellation, checked once per reachability step and
    /// once per activated row (coarse granularity — never inside the
    /// per-cell loops). A fired token dries the frontier up: no further
    /// activations or conditions are produced, so `reach` terminates with
    /// whatever partial state it had, and the caller discards it.
    cancel: &'a CancelToken,
}

impl RelaxedGate<'_> {
    /// Brings `prepared` (and the snapshot epoch) up to date with every
    /// node the engine holds.
    fn sync_sources(&mut self, state: &ReachState<GenLookupU>) {
        let prepared = self.prepared.get_or_insert_with(|| {
            PreparedSources::new(&[] as &[(NodeId, &str)], &self.opts.syntactic)
        });
        if prepared.len() < state.len() {
            let fresh: Vec<(NodeId, &'static str)> = state
                .iter()
                .skip(prepared.len())
                .map(|(id, val)| (id, val.as_str()))
                .collect();
            self.source_syms
                .extend(state.symbols().skip(self.source_syms.len()));
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
    type Prog = GenLookupU;
    type Conds = Arc<Vec<GenCondU>>;

    // Empty inputs are dropped up front: they can neither relate to a cell
    // nor contribute atoms.
    const SEED_EMPTY_INPUTS: bool = false;
    // The assembled cell is not a lookup output — it is merely assemblable
    // — so it only becomes a node if some other activation reaches it.
    const MATERIALIZE_HITS: bool = false;

    fn var_prog(&self, var: u32) -> GenLookupU {
        GenLookupU::Var(var)
    }

    fn activations(
        &mut self,
        db: &Database,
        state: &ReachState<GenLookupU>,
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

        // Snapshot σ ∪ η̃ (this step's new nodes) and reset the per-step
        // condition memo. (Symbols resolve to `&'static str`, so the
        // snapshot borrows nothing from `state`.)
        self.sync_sources(state);
        self.row_conds.clear();

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

    fn conds(
        &mut self,
        db: &Database,
        _state: &ReachState<GenLookupU>,
        act: &Activation,
    ) -> Option<Arc<Vec<GenCondU>>> {
        // Cancellation checkpoint (once per activated row): skipping the
        // condition skips the row's predicate-DAG builds entirely.
        if self.cancel.is_cancelled() {
            return None;
        }
        if let Some(conds) = self.row_conds.get(&(act.table, act.row)) {
            return Some(Arc::clone(conds));
        }
        let table = db.table(act.table);
        let conds: Vec<GenCondU> = table
            .candidate_keys()
            .iter()
            .enumerate()
            .map(|(key_idx, key)| GenCondU {
                key: key_idx,
                preds: key
                    .iter()
                    .map(|&kc| GenPredU {
                        col: kc,
                        dag: self.dag_for_value(table.cell_sym(kc, act.row)),
                    })
                    .collect(),
            })
            .collect();
        let conds = (!conds.is_empty()).then(|| Arc::new(conds))?;
        self.row_conds
            .insert((act.table, act.row), Arc::clone(&conds));
        Some(conds)
    }

    fn select_prog(&self, act: &Activation, col: ColId, conds: &Arc<Vec<GenCondU>>) -> GenLookupU {
        GenLookupU::Select {
            col,
            table: act.table,
            conds: Arc::clone(conds),
        }
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

/// [`generate_str_u`] under a cooperative [`CancelToken`]: a fired token
/// makes the reachability frontier dry up at the next coarse checkpoint
/// and the (partial, to-be-discarded) structure return early. The caller
/// is responsible for checking the token and discarding the result.
pub(crate) fn generate_str_u_budgeted(
    db: &Database,
    inputs: &[&str],
    output: &str,
    opts: &LuOptions,
    cancel: &CancelToken,
) -> SemDStruct {
    generate_str_u_impl(db, inputs, output, opts, None, cancel)
}

/// [`generate_str_u`] backed by a [`DagCache`]: per-value DAGs are served
/// from `(sources_epoch, value)` entries and whole repeated examples from
/// the example memo, with results bit-identical to the uncached path (the
/// cache self-validates against `db.epoch()` first, so a mutated database
/// never serves stale structures). The cache must not be shared across
/// differing `opts`.
pub fn generate_str_u_cached(
    db: &Database,
    inputs: &[&str],
    output: &str,
    opts: &LuOptions,
    cache: &DagCache,
) -> SemDStruct {
    generate_str_u_keyed(db, inputs, output, opts, cache, &CancelToken::default()).0
}

/// [`generate_str_u_cached`] that also reports the structure's example
/// id, the link of the intersection memo's chain keys (`Synthesizer::learn`
/// keys `d₁ ∩ d₂ ∩ …` on the examples' ids, in fold order). A
/// cancellation observed during the build skips the whole-example store
/// (the partial structure never enters the memo) and reports no id.
pub(crate) fn generate_str_u_keyed(
    db: &Database,
    inputs: &[&str],
    output: &str,
    opts: &LuOptions,
    cache: &DagCache,
    cancel: &CancelToken,
) -> (SemDStruct, Option<u32>) {
    // Whole-example memo: `Synthesize` on a growing example prefix (the
    // §3.2 loop) replays generation for every earlier example; generation
    // is deterministic in (db, inputs, output, opts), so an unmutated
    // database can serve the previous structure outright.
    let db_epoch = db.epoch();
    cache.validate_db(db);
    let ins: Vec<Symbol> = inputs.iter().map(|s| Symbol::intern(s)).collect();
    let out = Symbol::intern(output);
    if let Some((id, hit)) = cache.example(db_epoch, &ins, out) {
        return (hit, Some(id));
    }
    let d = generate_str_u_impl(db, inputs, output, opts, Some(cache), cancel);
    if cancel.is_cancelled() {
        // Partial structure: never enters the whole-example memo.
        return (d, None);
    }
    // With the substring gate on, the structure's node values summarize
    // exactly the strings that could activate cells, so recording the
    // reads makes the entry revalidatable across unrelated row-level
    // mutations; gate-off activations also depend on shared characters,
    // which the summary cannot prove unaffected — those entries go stale
    // on any epoch move.
    let deps = opts.substring_gate.then(|| {
        let (tables, vals) = d.reads();
        ExampleDeps {
            tables: tables.into(),
            vals: vals.into(),
        }
    });
    let id = cache.store_example(db_epoch, &ins, out, &d, deps);
    (d, id)
}

fn generate_str_u_impl(
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
        row_conds: IntMap::default(),
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
        nodes: state
            .into_nodes()
            .into_iter()
            .map(|(val, progs)| SemNode {
                vals: vec![val],
                progs: progs.into_iter().collect(),
            })
            .collect(),
        top: Some(top),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_sem;
    use crate::rank::LuRankWeights;
    use sst_tables::Table;

    fn comp_db() -> Database {
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
}
