//! Gate-parameterized forward-reachability engine.
//!
//! Both synthesis layers run the same iteration shape (Fig. 5a and its §5.3
//! relaxation): seed one node per distinct input value, then repeat up to
//! `k` times — find table rows *activated* by the current frontier,
//! materialize nodes for the activated rows' cells, and attach a
//! generalized `Select` (conditions shared per row behind an `Arc`) to
//! every column not reached directly. The layers differ only in their
//! *gate* — what activates a row — and in the condition language:
//!
//! * the **exact** gate (`GenerateStr_t`) activates a row when a frontier
//!   value *equals* one of its cells, answered by
//!   [`sst_tables::ValueIndex`] via [`Database::cells_equal`], with
//!   constant-or-node predicates;
//! * the **relaxed** gate (`GenerateStr_u`, `sst-core`) activates a cell
//!   when it is substring-related to a frontier value *and* syntactically
//!   assemblable from the known strings, answered by
//!   [`sst_tables::SubstringIndex`] via `Database::cells_related_to`, with
//!   nested-DAG predicates.
//!
//! The engine owns everything the two hand-rolled loops used to duplicate:
//! the frontier queue, the `val_to_node` interning map, the two-pass row
//! activation (materialize all nodes first so same-step key columns are
//! node-referenced, then build conditions), and hash-indexed program
//! deduplication ([`ProgSet`]). A [`ReachPolicy`] supplies the gate and the
//! program/condition types; `reach` drives the fixpoint. Node ids, program
//! order and sharing are bit-for-bit what the two standalone loops
//! produced — the `tests/intern_equivalence.rs` pins hold across the
//! refactor.

use std::hash::Hash;

use sst_tables::{ColId, Database, ProgSet, RowId, Symbol, SymbolMap, TableId};

use crate::dstruct::NodeId;

/// One activated row within a reachability step: the row plus the columns
/// the gate hit directly. Hit columns never receive a `Select` (they were
/// reached another way); whether they still materialize nodes is the
/// policy's [`ReachPolicy::MATERIALIZE_HITS`].
#[derive(Debug, Clone)]
pub struct Activation {
    /// Owning table.
    pub table: TableId,
    /// Activated row.
    pub row: RowId,
    /// Columns the gate reached directly (exact layer: every matched
    /// column of the row; relaxed layer: the single assembled cell).
    pub hit_cols: Vec<ColId>,
}

/// The engine's node store: one node per distinct reachable value, with
/// hash-deduplicated generalized programs in insertion order.
#[derive(Debug, Clone)]
pub struct ReachState<P> {
    nodes: Vec<(Symbol, ProgSet<P>)>,
    val_to_node: SymbolMap<NodeId>,
}

impl<P> Default for ReachState<P> {
    fn default() -> Self {
        ReachState {
            nodes: Vec::new(),
            val_to_node: SymbolMap::default(),
        }
    }
}

impl<P: Hash + Eq> ReachState<P> {
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

    /// True iff no node was reached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(node, value)` in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Symbol)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, (val, _))| (NodeId(i as u32), *val))
    }

    /// The node values in node-id order — the content identity of the
    /// σ ∪ η̃ snapshot. Because nodes are append-only and never re-valued,
    /// this list is a *prefix-stable epoch key*: gates that extend a
    /// `sst_syntactic::PreparedSources` snapshot incrementally
    /// (`PreparedSources::extend`) can intern it (e.g. into a `DagCache`
    /// sources epoch upstream) and equal keys guarantee byte-identical
    /// prepared sources.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.nodes.iter().map(|(val, _)| *val)
    }

    /// Consumes the state into `(value, programs)` pairs in node-id order.
    pub fn into_nodes(self) -> Vec<(Symbol, ProgSet<P>)> {
        self.nodes
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

    fn insert_prog(&mut self, node: NodeId, prog: P) {
        self.nodes[node.0 as usize].1.insert(prog);
    }
}

/// A reachability gate plus its layer's program and condition languages.
///
/// The policy is stateful across one step: [`ReachPolicy::activations`]
/// runs first and may stash per-step context (the relaxed layer keeps its
/// prepared σ ∪ η̃ snapshot there) that [`ReachPolicy::conds`] consumes.
pub trait ReachPolicy {
    /// Generalized program stored at each node.
    type Prog: Hash + Eq;
    /// Shared per-row condition handle (typically `Arc<Vec<_>>`).
    type Conds;

    /// Whether empty example inputs still seed (empty-valued) nodes. The
    /// exact layer does (its frontier probe skips them); the relaxed layer
    /// drops them up front.
    const SEED_EMPTY_INPUTS: bool;

    /// Whether hit columns also materialize nodes. The exact layer's
    /// matched cells are themselves reachable strings; the relaxed layer's
    /// assembled cell is *not* a lookup output, so it only becomes a node
    /// if some other activation reaches it.
    const MATERIALIZE_HITS: bool;

    /// Program denoting input variable `var`.
    fn var_prog(&self, var: u32) -> Self::Prog;

    /// Appends this step's activations to `out`, in the order both passes
    /// visit them (the order must be deterministic — sort before pushing).
    fn activations(
        &mut self,
        db: &Database,
        state: &ReachState<Self::Prog>,
        frontier: &[NodeId],
        out: &mut Vec<Activation>,
    );

    /// Builds the shared condition handle for one activation; `None` skips
    /// `Select` attachment (e.g. a table without candidate keys).
    fn conds(
        &mut self,
        db: &Database,
        state: &ReachState<Self::Prog>,
        act: &Activation,
    ) -> Option<Self::Conds>;

    /// The generalized `Select` projecting `col` of the activated row.
    fn select_prog(&self, act: &Activation, col: ColId, conds: &Self::Conds) -> Self::Prog;
}

/// Runs forward reachability for up to `k` steps and returns the node
/// store. The loop also stops at the fixpoint (empty frontier), making the
/// procedure sound and `k`-complete regardless of gate.
pub fn reach<P: ReachPolicy>(
    db: &Database,
    inputs: &[&str],
    k: usize,
    policy: &mut P,
) -> ReachState<P::Prog> {
    let mut state = ReachState::default();

    // Base case: one node per distinct input value.
    let mut frontier: Vec<NodeId> = Vec::new();
    for (i, value) in inputs.iter().enumerate() {
        if !P::SEED_EMPTY_INPUTS && value.is_empty() {
            continue;
        }
        let (node, is_new) = state.get_or_create(Symbol::intern(value));
        state.insert_prog(node, policy.var_prog(i as u32));
        if is_new {
            frontier.push(node);
        }
    }

    let mut activations: Vec<Activation> = Vec::new();
    for _step in 0..k {
        if frontier.is_empty() {
            break;
        }
        activations.clear();
        policy.activations(db, &state, &frontier, &mut activations);

        // Pass 1: materialize nodes for the activated rows' cells, so that
        // key columns reached in the same step are node-referenced when
        // conditions are built below (see crate::generate's module note).
        let mut next_frontier: Vec<NodeId> = Vec::new();
        for act in &activations {
            let table = db.table(act.table);
            for col in 0..table.width() as ColId {
                if !P::MATERIALIZE_HITS && act.hit_cols.contains(&col) {
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

        // Pass 2: build the shared condition handle once per activation and
        // attach Selects to every non-hit column.
        for act in &activations {
            let Some(conds) = policy.conds(db, &state, act) else {
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
                let prog = policy.select_prog(act, col, &conds);
                state.insert_prog(node, prog);
            }
        }
        frontier = next_frontier;
    }
    state
}
