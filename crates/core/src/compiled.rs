//! Compiled apply plane: bytecode lowering and execution for `Lu`
//! programs.
//!
//! The interpreter ([`eval_sem`]) walks the expression tree per input row:
//! every atom allocates its intermediate `String`, every `SubStr` computes
//! [`StringRuns`] for the *whole* token set, every `Select` re-resolves its
//! condition values into fresh vectors. That is fine for learning (a
//! handful of rows) but not for the paper's deployment story — applying a
//! learned transformation to an entire spreadsheet column.
//!
//! [`CompiledProgram`] lowers a ranked program once into a flat op array
//! over the interned [`Symbol`] plane:
//!
//! - position expressions pre-resolve their token chains against the
//!   program's `TokenSet` ([`TokenPlan`]/[`CompiledPos`]), so per-row run
//!   computation covers only the tokens the program consults;
//! - `Select` conditions with constant right-hand sides intern their probe
//!   value at compile time (a symbol that matches no cell misses exactly
//!   like the interpreter's `Symbol::get` miss); an all-constant probe
//!   resolves to its cell **entirely at compile time**, and the common
//!   single-condition probe lowers to a direct `value → cell` hash map
//!   built from the table once (unique matches only — absence covers both
//!   the interpreter's postings miss and its ambiguity `None`, which are
//!   indistinguishable at the string level: both yield `""`). Remaining
//!   multi-condition probes stay `(col, Symbol) → rows` posting-map hits
//!   plus integer compares;
//! - concatenation and extraction write into reusable buffers owned by an
//!   [`ApplyScratch`], so a warmed-up row apply performs no allocation;
//! - repeated subexpressions are hash-consed at compile time (the
//!   interpreter re-evaluates them; they are pure, so reuse is
//!   observationally identical).
//!
//! Undefined values (`⊥`) short-circuit: ops are emitted in the
//! interpreter's evaluation order, and any undefined position, crossed
//! range or missing variable aborts the row with `None` — exactly when the
//! interpreter would. The equivalence (including lookup-miss empty
//! strings and unicode subjects) is pinned per-task, per-row and
//! per-thread-count by `tests/compiled_equivalence.rs`.
//!
//! [`eval_sem`]: crate::eval::eval_sem
//! [`StringRuns`]: sst_syntactic::StringRuns

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;
use std::sync::Arc;

use sst_syntactic::{eval_compiled_pos, AtomicExpr, CompiledPos, RunsBuf, TokenPlan, TokenSet};
use sst_tables::{ColId, Database, Symbol, TableId};

use crate::language::{LookupU, PredRhsU, SemAtom, SemExpr};
use crate::Pool;

/// Rows per parallel chunk floor: below this, fan-out overhead dominates.
const PAR_CHUNK_MIN: usize = 1024;

/// A dependency-free FxHash (the rustc/Firefox multiply-rotate hash):
/// probe keys are short cell values, where SipHash's per-call setup
/// dominates the default `HashMap` — this keeps the hot single-condition
/// probe to a few nanoseconds. Only used for compile-time-built maps, so
/// HashDoS resistance is irrelevant.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut rem = bytes.len() as u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            rem ^= (b as u64) << (8 * i + 8);
        }
        self.add(rem);
    }

    fn write_u8(&mut self, b: u8) {
        self.add(b as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A single-condition probe pre-resolved at compile time: condition value
/// → output cell, for exactly the values matching one row.
type ProbeMap = HashMap<&'static str, &'static str, BuildHasherDefault<FxHasher>>;

/// One instruction of the compiled program. String-producing ops write a
/// *slot* (a cheap descriptor of where the string lives); `Runs`/`Pos`
/// feed the position machinery.
#[derive(Debug, Clone)]
enum Op {
    /// `slots[dst] = consts[idx]`.
    Const { dst: u32, idx: u32 },
    /// `slots[dst] = row[var]`; row too short ⇒ undefined.
    Input { dst: u32, var: u32 },
    /// Compute plan-token runs of `slots[src]` into runs buffer `runs`.
    Runs { runs: u32, src: u32 },
    /// `pos[dst] = eval(pos)` against runs buffer `runs`; undefined ⇒ `⊥`.
    Pos {
        dst: u32,
        runs: u32,
        pos: CompiledPos,
    },
    /// `slots[dst] = slots[src][pos[p1]..pos[p2]]` (chars, via the byte
    /// table of `runs`); crossed positions ⇒ `⊥`.
    Extract {
        dst: u32,
        buf: u32,
        src: u32,
        runs: u32,
        p1: u32,
        p2: u32,
    },
    /// `slots[dst] = concat(slots[parts...])` into buffer `buf`.
    Concat {
        dst: u32,
        buf: u32,
        parts: Box<[u32]>,
    },
    /// `slots[dst] = cell` — a probe whose conditions were all constant,
    /// resolved once at compile time (`""` on miss/ambiguity).
    Cell { dst: u32, cell: &'static str },
    /// `slots[dst] = map[slots[slot]]` — a single-condition probe as a
    /// direct hash hit on the compile-time `value → cell` map (`""` on
    /// any absent key: never-interned values, postings misses and
    /// ambiguous values alike). `Arc` keeps program clones cheap.
    Probe1 {
        dst: u32,
        slot: u32,
        map: Arc<ProbeMap>,
    },
    /// `slots[dst] = table[col, find_unique_row(conds)]`, empty string on
    /// miss/ambiguity — the `Lt` semantics (multi-condition probes).
    Probe {
        dst: u32,
        table: TableId,
        col: ColId,
        conds: Box<[(ColId, CondVal)]>,
    },
}

/// A probe condition value: interned at compile time for constants,
/// resolved from a slot (then symbol-looked-up, never interned) otherwise.
#[derive(Debug, Clone, Copy)]
enum CondVal {
    Sym(Symbol),
    Slot(u32),
}

/// Where a slot's string currently lives. `Cell` strings are interner-backed
/// (`'static`), so probing results are zero-copy.
#[derive(Debug, Clone, Copy)]
enum SlotVal {
    Unset,
    Input(u32),
    Const(u32),
    Cell(&'static str),
    Buf(u32),
}

/// Reusable per-row execution state for one [`CompiledProgram`].
///
/// Holds every buffer a row apply needs — slot descriptors, string
/// buffers, run buffers, position registers, the probe-condition vector
/// and the output buffer — so applying row after row allocates nothing
/// once the buffers have warmed up.
#[derive(Debug, Default)]
pub struct ApplyScratch {
    slots: Vec<SlotVal>,
    bufs: Vec<String>,
    runs: Vec<RunsBuf>,
    pos: Vec<u32>,
    conds: Vec<(ColId, Symbol)>,
    out: String,
}

impl ApplyScratch {
    fn ensure(&mut self, p: &CompiledProgram) {
        if self.slots.len() < p.code.n_slots as usize {
            self.slots.resize(p.code.n_slots as usize, SlotVal::Unset);
        }
        if self.bufs.len() < p.code.n_bufs as usize {
            self.bufs.resize_with(p.code.n_bufs as usize, String::new);
        }
        if self.runs.len() < p.code.n_runs as usize {
            self.runs.resize_with(p.code.n_runs as usize, RunsBuf::new);
        }
        if self.pos.len() < p.code.n_pos as usize {
            self.pos.resize(p.code.n_pos as usize, 0);
        }
    }
}

/// A ranked `Lu` program lowered to linear bytecode; see the module docs.
///
/// Obtained from [`Program::compile`]; bundles the database snapshot and
/// the lowered ops, so it can be applied anywhere — single rows
/// ([`CompiledProgram::run_row`], or [`CompiledProgram::run_row_with`] to
/// reuse a scratch) or whole columns fanned across a worker pool
/// ([`CompiledProgram::run_column`]).
///
/// [`Program::compile`]: crate::synthesizer::Program::compile
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    db: Arc<Database>,
    code: Arc<Code>,
}

/// The lowered form of a compiled program: everything but the database it
/// runs against. Cells baked in at lowering time are interned `'static`
/// strings, so the code holds no reference into the database and can be
/// kept — by the ranked memo — without pinning one; it is only valid for
/// databases at the epoch it was lowered against.
#[derive(Debug)]
pub(crate) struct Code {
    plan: TokenPlan,
    ops: Box<[Op]>,
    output: Box<[u32]>,
    consts: Box<[String]>,
    n_slots: u32,
    n_bufs: u32,
    n_runs: u32,
    n_pos: u32,
}

impl CompiledProgram {
    /// Lowers an expression; called by `Program::compile`.
    pub(crate) fn lower(expr: &SemExpr, db: Arc<Database>, tokens: &TokenSet) -> Self {
        // The lowerer borrows the database (to pre-resolve probes); end
        // that borrow before moving the `Arc` into the program.
        let (mut plan, ops, output, consts, n_slots, n_bufs, n_runs, n_pos) = {
            let mut lw = Lowerer::new(&db, tokens);
            // Top-level atoms in concatenation order — the interpreter's
            // evaluation order, which the undef short-circuit relies on.
            let output: Vec<u32> = expr.atoms.iter().map(|a| lw.lower_atom(a)).collect();
            (
                lw.plan, lw.ops, output, lw.consts, lw.n_slots, lw.n_bufs, lw.n_runs, lw.n_pos,
            )
        };
        plan.seal();
        let code = Code {
            plan,
            ops: ops.into_boxed_slice(),
            output: output.into_boxed_slice(),
            consts: consts.into_boxed_slice(),
            n_slots,
            n_bufs,
            n_runs,
            n_pos,
        };
        CompiledProgram::with_code(db, Arc::new(code))
    }

    /// Pairs lowered `code` with `db`, a database at the epoch it was
    /// lowered against.
    pub(crate) fn with_code(db: Arc<Database>, code: Arc<Code>) -> Self {
        CompiledProgram { db, code }
    }

    /// The lowered code, without the database.
    pub(crate) fn code(&self) -> &Arc<Code> {
        &self.code
    }

    /// Number of lowered ops (introspection/benchmarks).
    pub fn op_count(&self) -> usize {
        self.code.ops.len()
    }

    /// Number of distinct tokens the program's positions consult —
    /// typically a small fraction of the learner's full `TokenSet`.
    pub fn token_count(&self) -> usize {
        self.code.plan.len()
    }

    /// A scratch sized for this program.
    pub fn new_scratch(&self) -> ApplyScratch {
        let mut scratch = ApplyScratch::default();
        scratch.ensure(self);
        scratch
    }

    /// Applies the program to one input row. Allocates a fresh scratch;
    /// batch callers should reuse one via [`CompiledProgram::run_row_with`]
    /// or use [`CompiledProgram::run_column`].
    pub fn run_row<S: AsRef<str>>(&self, row: &[S]) -> Option<String> {
        let mut scratch = self.new_scratch();
        self.run_row_with(row, &mut scratch).map(str::to_string)
    }

    /// Applies the program to one row, reusing `scratch`; the result
    /// borrows the scratch's output buffer (copy it out before the next
    /// row). Bit-identical to interpreting the source expression.
    pub fn run_row_with<'s, S: AsRef<str>>(
        &self,
        row: &[S],
        scratch: &'s mut ApplyScratch,
    ) -> Option<&'s str> {
        scratch.ensure(self);
        let ApplyScratch {
            slots,
            bufs,
            runs,
            pos,
            conds,
            out,
        } = scratch;
        for op in self.code.ops.iter() {
            match op {
                Op::Const { dst, idx } => slots[*dst as usize] = SlotVal::Const(*idx),
                Op::Input { dst, var } => {
                    if *var as usize >= row.len() {
                        return None;
                    }
                    slots[*dst as usize] = SlotVal::Input(*var);
                }
                Op::Runs { runs: r, src } => {
                    let subject = self.val_str(slots[*src as usize], bufs, row);
                    runs[*r as usize].compute(subject, &self.code.plan);
                }
                Op::Pos {
                    dst,
                    runs: r,
                    pos: p,
                } => {
                    pos[*dst as usize] = eval_compiled_pos(p, &runs[*r as usize])?;
                }
                Op::Extract {
                    dst,
                    buf,
                    src,
                    runs: r,
                    p1,
                    p2,
                } => {
                    let (a, b) = (pos[*p1 as usize], pos[*p2 as usize]);
                    if a > b {
                        return None;
                    }
                    // Take the destination buffer out first so the source
                    // (possibly another buffer) can be borrowed shared.
                    let mut tmp = mem::take(&mut bufs[*buf as usize]);
                    tmp.clear();
                    let subject = self.val_str(slots[*src as usize], bufs, row);
                    let (ba, bb) = runs[*r as usize].byte_range(a, b);
                    tmp.push_str(&subject[ba..bb]);
                    bufs[*buf as usize] = tmp;
                    slots[*dst as usize] = SlotVal::Buf(*buf);
                }
                Op::Concat { dst, buf, parts } => {
                    let mut tmp = mem::take(&mut bufs[*buf as usize]);
                    tmp.clear();
                    for &part in parts.iter() {
                        tmp.push_str(self.val_str(slots[part as usize], bufs, row));
                    }
                    bufs[*buf as usize] = tmp;
                    slots[*dst as usize] = SlotVal::Buf(*buf);
                }
                Op::Cell { dst, cell } => slots[*dst as usize] = SlotVal::Cell(cell),
                Op::Probe1 { dst, slot, map } => {
                    let val = self.val_str(slots[*slot as usize], bufs, row);
                    let cell = map.get(val).copied().unwrap_or("");
                    slots[*dst as usize] = SlotVal::Cell(cell);
                }
                Op::Probe {
                    dst,
                    table,
                    col,
                    conds: probe_conds,
                } => {
                    conds.clear();
                    let mut missed = false;
                    for (ccol, val) in probe_conds.iter() {
                        let sym = match val {
                            CondVal::Sym(s) => Some(*s),
                            CondVal::Slot(slot) => {
                                Symbol::get(self.val_str(slots[*slot as usize], bufs, row))
                            }
                        };
                        match sym {
                            Some(s) => conds.push((*ccol, s)),
                            // A probe value that was never interned cannot
                            // equal any cell: a miss, same as the
                            // interpreter's `find_unique_row`.
                            None => {
                                missed = true;
                                break;
                            }
                        }
                    }
                    let cell = if missed {
                        ""
                    } else {
                        let t = self.db.table(*table);
                        match t.find_unique_row_sym(conds) {
                            Some(row) => t.cell(*col, row),
                            None => "",
                        }
                    };
                    slots[*dst as usize] = SlotVal::Cell(cell);
                }
            }
        }
        // A single interner-backed output (the pure-lookup shape) needs no
        // copy: the cell outlives every scratch.
        if let [part] = self.code.output[..] {
            if let SlotVal::Cell(s) = slots[part as usize] {
                return Some(s);
            }
        }
        out.clear();
        for &part in self.code.output.iter() {
            out.push_str(self.val_str(slots[part as usize], bufs, row));
        }
        Some(out)
    }

    /// Applies the program to a whole column, fanning contiguous row
    /// ranges across `pool` (one scratch per chunk). Output order matches
    /// the input rows by construction at every pool width.
    pub fn run_column<S: AsRef<str> + Sync>(
        &self,
        rows: &[Vec<S>],
        pool: &Pool,
    ) -> Vec<Option<String>> {
        let apply_range = |range: &[Vec<S>]| -> Vec<Option<String>> {
            let mut scratch = self.new_scratch();
            range
                .iter()
                .map(|row| self.run_row_with(row, &mut scratch).map(str::to_string))
                .collect()
        };
        if !pool.is_parallel() || rows.len() < 2 * PAR_CHUNK_MIN {
            return apply_range(rows);
        }
        let chunk = rows.len().div_ceil(pool.threads() * 4).max(PAR_CHUNK_MIN);
        let ranges: Vec<(usize, usize)> = (0..rows.len())
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(rows.len())))
            .collect();
        let chunks =
            pool.par_map_indexed(&ranges, |_, &(start, end)| apply_range(&rows[start..end]));
        let mut out = Vec::with_capacity(rows.len());
        for c in chunks {
            out.extend(c);
        }
        out
    }

    fn val_str<'a, S: AsRef<str>>(
        &'a self,
        val: SlotVal,
        bufs: &'a [String],
        row: &'a [S],
    ) -> &'a str {
        match val {
            SlotVal::Input(v) => row[v as usize].as_ref(),
            SlotVal::Const(i) => &self.code.consts[i as usize],
            SlotVal::Cell(s) => s,
            SlotVal::Buf(b) => &bufs[b as usize],
            SlotVal::Unset => {
                debug_assert!(false, "slot read before write");
                ""
            }
        }
    }
}

/// The lowering pass: emits ops in interpreter evaluation order and
/// hash-conses repeated subexpressions (pure, so reuse preserves
/// semantics; each shared node is evaluated at its first occurrence,
/// exactly where the interpreter first evaluates it).
struct Lowerer<'a> {
    db: &'a Database,
    set: &'a TokenSet,
    plan: TokenPlan,
    ops: Vec<Op>,
    consts: Vec<String>,
    n_slots: u32,
    n_bufs: u32,
    n_runs: u32,
    n_pos: u32,
    atom_memo: HashMap<SemAtom, u32>,
    expr_memo: HashMap<SemExpr, u32>,
    lookup_memo: HashMap<LookupU, u32>,
    const_memo: HashMap<String, u32>,
    runs_memo: HashMap<u32, u32>,
    pos_memo: HashMap<(u32, CompiledPos), u32>,
}

impl<'a> Lowerer<'a> {
    fn new(db: &'a Database, set: &'a TokenSet) -> Self {
        Lowerer {
            db,
            set,
            plan: TokenPlan::new(),
            ops: Vec::new(),
            consts: Vec::new(),
            n_slots: 0,
            n_bufs: 0,
            n_runs: 0,
            n_pos: 0,
            atom_memo: HashMap::new(),
            expr_memo: HashMap::new(),
            lookup_memo: HashMap::new(),
            const_memo: HashMap::new(),
            runs_memo: HashMap::new(),
            pos_memo: HashMap::new(),
        }
    }

    fn new_slot(&mut self) -> u32 {
        self.n_slots += 1;
        self.n_slots - 1
    }

    fn new_buf(&mut self) -> u32 {
        self.n_bufs += 1;
        self.n_bufs - 1
    }

    fn lower_expr(&mut self, e: &SemExpr) -> u32 {
        if let Some(&slot) = self.expr_memo.get(e) {
            return slot;
        }
        let slot = if e.atoms.len() == 1 {
            self.lower_atom(&e.atoms[0])
        } else {
            let parts: Vec<u32> = e.atoms.iter().map(|a| self.lower_atom(a)).collect();
            let dst = self.new_slot();
            let buf = self.new_buf();
            self.ops.push(Op::Concat {
                dst,
                buf,
                parts: parts.into_boxed_slice(),
            });
            dst
        };
        self.expr_memo.insert(e.clone(), slot);
        slot
    }

    fn lower_atom(&mut self, a: &SemAtom) -> u32 {
        if let Some(&slot) = self.atom_memo.get(a) {
            return slot;
        }
        let slot = match a {
            AtomicExpr::ConstStr(s) => self.lower_const(s),
            AtomicExpr::Whole(src) => self.lower_lookup(src),
            AtomicExpr::SubStr { src, p1, p2 } => {
                let subject = self.lower_lookup(src);
                let runs = self.runs_for(subject);
                let c1 = self.plan.lower_pos(p1, self.set);
                let c2 = self.plan.lower_pos(p2, self.set);
                let p1 = self.pos_for(runs, c1);
                let p2 = self.pos_for(runs, c2);
                let dst = self.new_slot();
                let buf = self.new_buf();
                self.ops.push(Op::Extract {
                    dst,
                    buf,
                    src: subject,
                    runs,
                    p1,
                    p2,
                });
                dst
            }
        };
        self.atom_memo.insert(a.clone(), slot);
        slot
    }

    fn lower_const(&mut self, s: &str) -> u32 {
        if let Some(&slot) = self.const_memo.get(s) {
            return slot;
        }
        let idx = self.consts.len() as u32;
        self.consts.push(s.to_string());
        let dst = self.new_slot();
        self.ops.push(Op::Const { dst, idx });
        self.const_memo.insert(s.to_string(), dst);
        dst
    }

    fn lower_lookup(&mut self, l: &LookupU) -> u32 {
        if let Some(&slot) = self.lookup_memo.get(l) {
            return slot;
        }
        let slot = match l {
            LookupU::Var(v) => {
                let dst = self.new_slot();
                self.ops.push(Op::Input { dst, var: *v });
                dst
            }
            LookupU::Select { col, table, cond } => {
                // Condition values first, in predicate order — the
                // interpreter resolves them in this order, and their
                // undefs must fire before the probe.
                let conds: Vec<(ColId, CondVal)> = cond
                    .iter()
                    .map(|p| {
                        let val = match &p.rhs {
                            PredRhsU::Const(s) => CondVal::Sym(Symbol::intern(s)),
                            PredRhsU::Expr(e) => CondVal::Slot(self.lower_expr(e)),
                        };
                        (p.col, val)
                    })
                    .collect();
                let dst = self.new_slot();
                let t = self.db.table(*table);
                let all_const = conds.iter().all(|(_, v)| matches!(v, CondVal::Sym(_)));
                if all_const {
                    // Every condition is constant: the probe yields the
                    // same cell on every row — resolve it now.
                    let resolved: Vec<(ColId, Symbol)> = conds
                        .iter()
                        .map(|(c, v)| match v {
                            CondVal::Sym(s) => (*c, *s),
                            CondVal::Slot(_) => unreachable!("all_const"),
                        })
                        .collect();
                    let cell = match t.find_unique_row_sym(&resolved) {
                        Some(r) => t.cell(*col, r),
                        None => "",
                    };
                    self.ops.push(Op::Cell { dst, cell });
                } else if let [(ccol, CondVal::Slot(slot))] = conds.as_slice() {
                    // One runtime condition: pre-resolve the whole table
                    // into a `value → cell` map. A value matching exactly
                    // one row maps to that row's output cell; everything
                    // else (never-interned values, postings misses,
                    // ambiguous values) is absent and yields `""` — the
                    // same partition `Symbol::get` + `find_unique_row_sym`
                    // computes per row.
                    let mut uniq: HashMap<Symbol, Option<u32>> = HashMap::new();
                    for r in t.row_ids() {
                        uniq.entry(t.cell_sym(*ccol, r))
                            .and_modify(|e| *e = None)
                            .or_insert(Some(r));
                    }
                    let map: ProbeMap = uniq
                        .into_iter()
                        .filter_map(|(sym, r)| r.map(|r| (sym.as_str(), t.cell(*col, r))))
                        .collect();
                    self.ops.push(Op::Probe1 {
                        dst,
                        slot: *slot,
                        map: Arc::new(map),
                    });
                } else {
                    self.ops.push(Op::Probe {
                        dst,
                        table: *table,
                        col: *col,
                        conds: conds.into_boxed_slice(),
                    });
                }
                dst
            }
        };
        self.lookup_memo.insert(l.clone(), slot);
        slot
    }

    fn runs_for(&mut self, src: u32) -> u32 {
        if let Some(&r) = self.runs_memo.get(&src) {
            return r;
        }
        let r = self.n_runs;
        self.n_runs += 1;
        self.ops.push(Op::Runs { runs: r, src });
        self.runs_memo.insert(src, r);
        r
    }

    fn pos_for(&mut self, runs: u32, pos: CompiledPos) -> u32 {
        if let Some(&p) = self.pos_memo.get(&(runs, pos.clone())) {
            return p;
        }
        let dst = self.n_pos;
        self.n_pos += 1;
        self.ops.push(Op::Pos {
            dst,
            runs,
            pos: pos.clone(),
        });
        self.pos_memo.insert((runs, pos), dst);
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_sem;
    use crate::language::PredicateU;
    use sst_syntactic::{PosExpr, RegexSeq, Token};
    use sst_tables::Table;

    fn tokens() -> TokenSet {
        TokenSet::standard()
    }

    fn bike_db() -> Arc<Database> {
        Arc::new(
            Database::from_tables(vec![Table::new(
                "BikePrices",
                vec!["Bike", "Price"],
                vec![
                    vec!["Ducati100", "10,000"],
                    vec!["Ducati125", "12,500"],
                    vec!["Honda125", "11,500"],
                ],
            )
            .unwrap()])
            .unwrap(),
        )
    }

    /// Differential check against the interpreter on one expression/row.
    fn assert_equiv(expr: &SemExpr, db: &Arc<Database>, rows: &[Vec<&str>]) {
        let compiled = CompiledProgram::lower(expr, Arc::clone(db), &tokens());
        let mut scratch = compiled.new_scratch();
        for row in rows {
            let expected = eval_sem(expr, db, row, &tokens());
            assert_eq!(
                compiled.run_row_with(row, &mut scratch).map(str::to_string),
                expected,
                "row {row:?} of {expr}"
            );
            assert_eq!(compiled.run_row(row), expected);
        }
    }

    #[test]
    fn concat_indexed_lookup_matches_interpreter() {
        // Example 5: Select(Price, BikePrices, Bike = Concatenate(v1, v2)).
        let db = bike_db();
        let expr = SemExpr::atom(AtomicExpr::Whole(LookupU::Select {
            col: 1,
            table: 0,
            cond: vec![PredicateU {
                col: 0,
                rhs: PredRhsU::Expr(SemExpr {
                    atoms: vec![
                        AtomicExpr::Whole(LookupU::Var(0)),
                        AtomicExpr::Whole(LookupU::Var(1)),
                    ],
                }),
            }],
        }));
        assert_equiv(
            &expr,
            &db,
            &[
                vec!["Ducati", "125"],
                vec!["Honda", "125"],
                vec!["Yamaha", "50"], // lookup miss: empty string
                vec!["Ducati"],       // missing variable: undefined
                vec![],
            ],
        );
    }

    #[test]
    fn substr_and_const_matches_interpreter() {
        let db = bike_db();
        let word = |i: i32| AtomicExpr::SubStr {
            src: LookupU::Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::AlphNum),
                c: i,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::AlphNum),
                r2: RegexSeq::epsilon(),
                c: i,
            },
        };
        let expr = SemExpr {
            atoms: vec![
                word(2),
                AtomicExpr::ConstStr(" ··· ".into()),
                word(1),
                AtomicExpr::ConstStr(" ··· ".into()),
                word(2),
            ],
        };
        assert_equiv(
            &expr,
            &db,
            &[
                vec!["Alan Turing"],
                vec!["héllo wörld"],
                vec!["single"], // second word undefined
                vec![""],
                vec!["  spaced  out  "],
            ],
        );
    }

    #[test]
    fn compile_time_interned_const_cond_misses_like_interpreter() {
        let db = bike_db();
        // The constant was never a cell value: both paths must yield the
        // miss semantics (empty string), not undefined.
        let expr = SemExpr::atom(AtomicExpr::Whole(LookupU::Select {
            col: 1,
            table: 0,
            cond: vec![PredicateU {
                col: 0,
                rhs: PredRhsU::Const("NotABike".into()),
            }],
        }));
        assert_equiv(&expr, &db, &[vec![]]);
        let compiled = CompiledProgram::lower(&expr, Arc::clone(&db), &tokens());
        assert_eq!(compiled.run_row::<&str>(&[]).as_deref(), Some(""));
    }

    #[test]
    fn crossed_and_oob_positions_are_undefined() {
        let db = bike_db();
        let crossed = SemExpr::atom(AtomicExpr::SubStr {
            src: LookupU::Var(0),
            p1: PosExpr::CPos(-1),
            p2: PosExpr::CPos(0),
        });
        let oob = SemExpr::atom(AtomicExpr::SubStr {
            src: LookupU::Var(0),
            p1: PosExpr::CPos(7),
            p2: PosExpr::CPos(9),
        });
        assert_equiv(&crossed, &db, &[vec!["ab"], vec![""]]);
        assert_equiv(&oob, &db, &[vec!["ab"], vec!["long enough str"]]);
    }

    #[test]
    fn cse_shares_subexpressions() {
        let db = bike_db();
        let word = AtomicExpr::SubStr {
            src: LookupU::Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::AlphNum),
                c: 1,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::AlphNum),
                r2: RegexSeq::epsilon(),
                c: 1,
            },
        };
        let expr = SemExpr {
            atoms: vec![word.clone(), word.clone(), word],
        };
        let compiled = CompiledProgram::lower(&expr, Arc::clone(&db), &tokens());
        // One Input, one Runs, two Pos, one Extract — the repeats reuse it.
        assert_eq!(compiled.op_count(), 5);
        assert_equiv(&expr, &db, &[vec!["Alan Turing"], vec![" x "]]);
    }

    #[test]
    fn run_column_preserves_order_and_width_independence() {
        let db = bike_db();
        let expr = SemExpr {
            atoms: vec![
                AtomicExpr::Whole(LookupU::Var(0)),
                AtomicExpr::ConstStr("-".into()),
                AtomicExpr::Whole(LookupU::Select {
                    col: 1,
                    table: 0,
                    cond: vec![PredicateU {
                        col: 0,
                        rhs: PredRhsU::Expr(SemExpr::atom(AtomicExpr::Whole(LookupU::Var(0)))),
                    }],
                }),
            ],
        };
        let compiled = CompiledProgram::lower(&expr, Arc::clone(&db), &tokens());
        let rows: Vec<Vec<String>> = (0..5000)
            .map(|i| {
                vec![match i % 3 {
                    0 => "Ducati125".to_string(),
                    1 => "Honda125".to_string(),
                    _ => format!("Unknown{i}"),
                }]
            })
            .collect();
        let expected: Vec<Option<String>> = rows
            .iter()
            .map(|row| {
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                eval_sem(&expr, &db, &refs, &tokens())
            })
            .collect();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            assert_eq!(
                compiled.run_column(&rows, &pool),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn token_plan_is_a_small_subset() {
        let db = bike_db();
        let expr = SemExpr::atom(AtomicExpr::SubStr {
            src: LookupU::Var(0),
            p1: PosExpr::Pos {
                r1: RegexSeq::epsilon(),
                r2: RegexSeq::token(Token::Num),
                c: 1,
            },
            p2: PosExpr::Pos {
                r1: RegexSeq::token(Token::Num),
                r2: RegexSeq::epsilon(),
                c: -1,
            },
        });
        let compiled = CompiledProgram::lower(&expr, Arc::clone(&db), &tokens());
        assert_eq!(compiled.token_count(), 1);
        assert_equiv(&expr, &db, &[vec!["ab12cd34"], vec!["no digits"]]);
    }
}
