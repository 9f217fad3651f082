//! Gate-parameterized forward-reachability engine.
//!
//! `GenerateStr_t` (Fig. 5a) and `GenerateStr_u`'s relaxation of it (§5.3)
//! run the same iteration: seed one node per distinct input value, then
//! repeat up to `k` times — find table rows *activated* by the current
//! frontier, materialize nodes for the activated rows' cells, and attach a
//! generalized `Select` (conditions shared per row behind an `Arc`) to
//! every column not reached directly. The two differ only in their *gate*
//! — what activates a row, and what predicate DAG each key column gets —
//! supplied as a [`ReachPolicy`] by `crate::generate` (the exact and the
//! relaxed gate).
//!
//! The engine owns the frontier queue, the `val_to_node` interning map,
//! the two-pass row activation (materialize all nodes first so same-step
//! key columns are node-referenced, then build each row's conditions
//! once), and hash-indexed program deduplication ([`ProgSet`]).

use std::sync::Arc;

use sst_syntactic::Dag;
use sst_tables::{ColId, Database, IntMap, ProgSet, RowId, Symbol, SymbolMap, TableId};

use crate::dstruct::{GenCondU, GenLookupU, GenPredU, NodeId, SemNode};

/// One activated row within a reachability step: the row plus the columns
/// the gate hit directly. Hit columns neither receive a `Select` nor
/// materialize a node: they were reached another way (the exact gate's
/// matched cells equal a frontier node's value), or are merely assemblable
/// and become nodes only if some other activation reaches them (the
/// relaxed gate's).
#[derive(Debug, Clone)]
pub(crate) struct Activation {
    /// Owning table.
    pub table: TableId,
    /// Activated row.
    pub row: RowId,
    /// Columns the gate reached directly (exact gate: every matched
    /// column of the row; relaxed gate: the single assembled cell).
    pub hit_cols: Vec<ColId>,
}

/// The engine's node store: one node per distinct reachable value, with
/// hash-deduplicated generalized programs in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReachState {
    nodes: Vec<(Symbol, ProgSet<GenLookupU>)>,
    val_to_node: SymbolMap<NodeId>,
}

impl ReachState {
    /// The value of a node.
    pub fn val(&self, node: NodeId) -> Symbol {
        self.nodes[node.0 as usize].0
    }

    /// The node holding `val`, if reached.
    pub fn node_of(&self, val: Symbol) -> Option<NodeId> {
        self.val_to_node.get(&val).copied()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates `(node, value)` in node-id order. Nodes are append-only
    /// and never re-valued, so the values are a prefix-stable identity of
    /// the σ ∪ η̃ snapshot: the relaxed gate extends its `PreparedSources`
    /// incrementally and interns the values into a `DagCache` epoch.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Symbol)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, (val, _))| (NodeId(i as u32), *val))
    }

    /// Consumes the state into `Du` nodes, in node-id order.
    pub fn into_nodes(self) -> Vec<SemNode> {
        self.nodes
            .into_iter()
            .map(|(val, progs)| SemNode {
                vals: vec![val],
                progs: progs.into_iter().collect(),
            })
            .collect()
    }

    fn get_or_create(&mut self, val: Symbol) -> (NodeId, bool) {
        if let Some(&id) = self.val_to_node.get(&val) {
            return (id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push((val, ProgSet::new()));
        self.val_to_node.insert(val, id);
        (id, true)
    }

    fn insert_prog(&mut self, node: NodeId, prog: GenLookupU) {
        self.nodes[node.0 as usize].1.insert(prog);
    }
}

/// A reachability gate: which rows a frontier activates and the predicate
/// DAG each key column of an activated row gets.
///
/// The policy is stateful across one step: [`ReachPolicy::activations`]
/// runs first and may stash per-step context (the relaxed gate keeps its
/// prepared σ ∪ η̃ snapshot there) that [`ReachPolicy::key_dag`] consumes.
pub(crate) trait ReachPolicy {
    /// Whether empty example inputs still seed (empty-valued) nodes. The
    /// exact gate does (its frontier probe skips them); the relaxed gate
    /// drops them up front.
    const SEED_EMPTY_INPUTS: bool;

    /// Appends this step's activations to `out`, in the order both passes
    /// visit them (the order must be deterministic — sort before pushing).
    fn activations(
        &mut self,
        db: &Database,
        state: &ReachState,
        frontier: &[NodeId],
        out: &mut Vec<Activation>,
    );

    /// The predicate DAG `C = ẽ` for a key column holding `value` in an
    /// activated row; `None` abandons the row, so none of its `Select`s is
    /// attached (the relaxed gate's cancellation checkpoint).
    fn key_dag(&mut self, state: &ReachState, value: Symbol) -> Option<Arc<Dag<NodeId>>>;
}

/// The condition list of an activated row: one condition per candidate
/// key of its table, one predicate per key column. `None` when the table
/// has no candidate key or the policy abandons the row.
fn row_conds<P: ReachPolicy>(
    policy: &mut P,
    db: &Database,
    state: &ReachState,
    act: &Activation,
) -> Option<Arc<Vec<GenCondU>>> {
    let table = db.table(act.table);
    let mut conds = Vec::new();
    for (key, cols) in table.candidate_keys().iter().enumerate() {
        let preds = cols
            .iter()
            .map(|&col| {
                let dag = policy.key_dag(state, table.cell_sym(col, act.row))?;
                Some(GenPredU { col, dag })
            })
            .collect::<Option<Vec<_>>>()?;
        conds.push(GenCondU { key, preds });
    }
    (!conds.is_empty()).then(|| Arc::new(conds))
}

/// Runs forward reachability for up to `k` steps and returns the node
/// store. The loop also stops at the fixpoint (empty frontier), making the
/// procedure sound and `k`-complete regardless of gate.
pub(crate) fn reach<P: ReachPolicy>(
    db: &Database,
    inputs: &[&str],
    k: usize,
    policy: &mut P,
) -> ReachState {
    let mut state = ReachState::default();

    // Base case: one node per distinct input value.
    let mut frontier: Vec<NodeId> = Vec::new();
    for (i, value) in inputs.iter().enumerate() {
        if !P::SEED_EMPTY_INPUTS && value.is_empty() {
            continue;
        }
        let (node, is_new) = state.get_or_create(Symbol::intern(value));
        state.insert_prog(node, GenLookupU::Var(i as u32));
        if is_new {
            frontier.push(node);
        }
    }

    let mut activations: Vec<Activation> = Vec::new();
    // Per step: the condition list of each activated row. A row activated
    // through several cells in one step shares one `Arc`.
    let mut step_conds: IntMap<(TableId, RowId), Option<Arc<Vec<GenCondU>>>> = IntMap::default();
    for _step in 0..k {
        if frontier.is_empty() {
            break;
        }
        activations.clear();
        policy.activations(db, &state, &frontier, &mut activations);

        // Pass 1: materialize nodes for the activated rows' cells, so that
        // key columns reached in the same step are node-referenced when
        // conditions are built below. The paper's pseudocode (Fig. 5a,
        // line 10) would see `⊥` for a column whose node line 13 creates
        // moments later; materializing first only adds represented
        // programs, so soundness is unaffected.
        let mut next_frontier: Vec<NodeId> = Vec::new();
        for act in &activations {
            let table = db.table(act.table);
            for col in 0..table.width() as ColId {
                if act.hit_cols.contains(&col) {
                    continue;
                }
                let value = table.cell_sym(col, act.row);
                if value.is_empty() {
                    continue;
                }
                let (node, is_new) = state.get_or_create(value);
                if is_new {
                    next_frontier.push(node);
                }
            }
        }

        // Pass 2: build the shared condition list once per activated row
        // and attach Selects to every non-hit column.
        step_conds.clear();
        for act in &activations {
            let conds = step_conds
                .entry((act.table, act.row))
                .or_insert_with(|| row_conds(policy, db, &state, act));
            let Some(conds) = conds.clone() else {
                continue;
            };
            let table = db.table(act.table);
            for col in 0..table.width() as ColId {
                if act.hit_cols.contains(&col) {
                    continue;
                }
                let value = table.cell_sym(col, act.row);
                if value.is_empty() {
                    continue;
                }
                let node = state
                    .node_of(value)
                    .expect("pass 1 materialized every non-empty cell");
                let prog = GenLookupU::Select {
                    col,
                    table: act.table,
                    conds: Arc::clone(&conds),
                };
                state.insert_prog(node, prog);
            }
        }
        frontier = next_frontier;
    }
    state
}
