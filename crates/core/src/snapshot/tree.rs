//! The memo plane's snapshot form: a plain tree walk over the `Du`
//! structures.
//!
//! The live structures share subterms through `Arc`s: one per-value DAG is
//! referenced from every predicate and memo entry that reached it, one
//! position list from every atom probing the same boundary, one condition
//! list from every column of an activated row. A [`TreeEncoder`] keeps one
//! pointer memo per allocation kind for a whole encode, so each distinct
//! allocation is written in full once — as a `0` marker and its contents —
//! and every later reference writes `index + 1` into the table of
//! allocations written before it. A [`TreeDecoder`] rebuilds that table
//! as it reads, so a restored cache holds exactly the live sharing.
//!
//! Node references are validated on *every* reference, not once per
//! allocation: a back-referenced DAG can sit inside a structure with fewer
//! nodes than the one it was first written under. Each decoded DAG and
//! condition list therefore records the node count its atoms need.

use std::collections::BTreeMap;
use std::sync::Arc;

use sst_syntactic::{AtomSet, Dag, PosSet};
use sst_tables::IntMap;

use super::codec::{decode_pos, encode_pos, Reader, SymDecoder, SymEncoder, Writer};
use super::{corrupt, ArenaStats, SnapshotError};
use crate::dstruct::{GenCondU, GenLookupU, GenPredU, NodeId, SemDStruct, SemNode};

/// Fails unless an allocation whose atoms need `needs` nodes fits a
/// structure (or sources epoch) of `nodes` nodes.
pub(crate) fn within(needs: u32, nodes: u32) -> Result<(), SnapshotError> {
    if needs > nodes {
        return Err(corrupt(format!(
            "atom references node {}, structure has {nodes}",
            needs - 1
        )));
    }
    Ok(())
}

/// Pointer memos of one whole encode (see the module docs). Addresses are
/// sound keys only while every allocation written stays alive: the caller
/// holds the structures (the cache, its read lock) for the whole walk, so
/// no address is freed and reused mid-encode.
#[derive(Debug, Default)]
pub(crate) struct TreeEncoder {
    dags: IntMap<usize, u32>,
    pos: IntMap<usize, u32>,
    conds: IntMap<usize, u32>,
    /// Sharing counters so far (`resident_bytes` is the caller's).
    pub(crate) stats: ArenaStats,
}

/// Writes a reference to the allocation `arc`: its back-reference when
/// `memo` has seen it (returns `false`), else the full-write marker
/// (returns `true`: the caller writes the contents next).
fn share<T>(
    memo: &mut IntMap<usize, u32>,
    stats: &mut ArenaStats,
    arc: &Arc<T>,
    w: &mut Writer,
) -> bool {
    stats.interned += 1;
    let next = memo.len() as u32;
    let index = *memo.entry(Arc::as_ptr(arc) as usize).or_insert(next);
    if index != next {
        w.u32(index + 1);
        return false;
    }
    stats.stored += 1;
    w.u32(0);
    true
}

impl TreeEncoder {
    pub(crate) fn dag(&mut self, dag: &Arc<Dag<NodeId>>, w: &mut Writer, sym: &mut SymEncoder) {
        if !share(&mut self.dags, &mut self.stats, dag, w) {
            return;
        }
        for v in [dag.num_nodes, dag.source, dag.target] {
            w.u32(v);
        }
        w.list(&dag.edges, |w, (&(a, b), atoms)| {
            w.u32(a);
            w.u32(b);
            w.list(atoms, |w, atom| match atom {
                AtomSet::ConstStr(s) => {
                    w.u8(0);
                    sym.str(s, w);
                }
                AtomSet::Whole(n) => {
                    w.u8(1);
                    w.u32(n.0);
                }
                AtomSet::SubStr { src, p1, p2 } => {
                    w.u8(2);
                    w.u32(src.0);
                    self.pos_list(p1, w);
                    self.pos_list(p2, w);
                }
            });
        });
    }

    fn pos_list(&mut self, list: &Arc<Vec<PosSet>>, w: &mut Writer) {
        if share(&mut self.pos, &mut self.stats, list, w) {
            w.list(list.iter(), |w, p| encode_pos(p, w));
        }
    }

    fn conds(&mut self, conds: &Arc<Vec<GenCondU>>, w: &mut Writer, sym: &mut SymEncoder) {
        if share(&mut self.conds, &mut self.stats, conds, w) {
            w.list(conds.iter(), |w, cond| {
                w.u32(cond.key as u32);
                w.list(&cond.preds, |w, pred| {
                    w.u32(pred.col);
                    self.dag(&pred.dag, w, sym);
                });
            });
        }
    }

    /// Writes one whole `Du` structure: its nodes (values and programs, in
    /// order) and its top DAG.
    pub(crate) fn structure(&mut self, d: &SemDStruct, w: &mut Writer, sym: &mut SymEncoder) {
        w.list(&d.nodes, |w, node| {
            w.list(&node.vals, |w, &v| sym.sym(v, w));
            w.list(&node.progs, |w, prog| match prog {
                GenLookupU::Var(v) => {
                    w.u8(0);
                    w.u32(*v);
                }
                GenLookupU::Select { col, table, conds } => {
                    w.u8(1);
                    w.u32(*col);
                    w.u32(*table);
                    self.conds(conds, w, sym);
                }
            });
        });
        w.bool(d.top.is_some());
        if let Some(dag) = &d.top {
            self.dag(dag, w, sym);
        }
    }
}

/// The allocations of one whole decode, in first-write order (see the
/// module docs). DAGs and condition lists carry the node count their atoms
/// need.
#[derive(Debug, Default)]
pub(crate) struct TreeDecoder {
    dags: Vec<(Arc<Dag<NodeId>>, u32)>,
    pos: Vec<Arc<Vec<PosSet>>>,
    conds: Vec<(Arc<Vec<GenCondU>>, u32)>,
    /// Sharing counters so far (`resident_bytes` is the caller's).
    pub(crate) stats: ArenaStats,
}

/// Reads one reference: `None` when the allocation follows in full, else
/// the table entry it names.
fn shared<T: Clone>(
    table: &[T],
    stats: &mut ArenaStats,
    r: &mut Reader<'_>,
    what: &str,
) -> Result<Option<T>, SnapshotError> {
    stats.interned += 1;
    match r.u32()? {
        0 => {
            stats.stored += 1;
            Ok(None)
        }
        i => match table.get(i as usize - 1) {
            Some(hit) => Ok(Some(hit.clone())),
            None => Err(corrupt(format!(
                "{what} back-reference {} past the {} decoded",
                i - 1,
                table.len()
            ))),
        },
    }
}

impl TreeDecoder {
    /// One DAG and the node count its atoms need; the caller checks that
    /// against the referencing structure with [`within`].
    pub(crate) fn dag(
        &mut self,
        r: &mut Reader<'_>,
        sym: &SymDecoder,
    ) -> Result<(Arc<Dag<NodeId>>, u32), SnapshotError> {
        if let Some(hit) = shared(&self.dags, &mut self.stats, r, "dag")? {
            return Ok(hit);
        }
        let (num_nodes, source, target) = (r.u32()?, r.u32()?, r.u32()?);
        if num_nodes == 0 || source >= num_nodes || target >= num_nodes {
            return Err(corrupt("dag source/target out of range"));
        }
        let mut needs = 0;
        let mut edges = BTreeMap::new();
        for _ in 0..r.count()? {
            let (a, b) = (r.u32()?, r.u32()?);
            if a >= b || b >= num_nodes {
                return Err(corrupt("dag edge endpoints out of range"));
            }
            if edges.last_key_value().is_some_and(|(&k, _)| k >= (a, b)) {
                return Err(corrupt("dag edges out of order"));
            }
            let atoms = r.list(|r| {
                let atom = match r.u8()? {
                    0 => AtomSet::ConstStr(sym.sym(r)?.as_str().to_string()),
                    1 => AtomSet::Whole(NodeId(r.u32()?)),
                    2 => AtomSet::SubStr {
                        src: NodeId(r.u32()?),
                        p1: self.pos_list(r)?,
                        p2: self.pos_list(r)?,
                    },
                    other => return Err(corrupt(format!("unknown atom tag {other}"))),
                };
                if let AtomSet::Whole(n) | AtomSet::SubStr { src: n, .. } = &atom {
                    needs = needs.max(n.0.saturating_add(1));
                }
                Ok(atom)
            })?;
            edges.insert((a, b), atoms);
        }
        let dag = Arc::new(Dag {
            num_nodes,
            source,
            target,
            edges,
        });
        self.dags.push((Arc::clone(&dag), needs));
        Ok((dag, needs))
    }

    fn pos_list(&mut self, r: &mut Reader<'_>) -> Result<Arc<Vec<PosSet>>, SnapshotError> {
        if let Some(hit) = shared(&self.pos, &mut self.stats, r, "position list")? {
            return Ok(hit);
        }
        let list = Arc::new(r.list(decode_pos)?);
        self.pos.push(Arc::clone(&list));
        Ok(list)
    }

    fn conds(
        &mut self,
        r: &mut Reader<'_>,
        sym: &SymDecoder,
    ) -> Result<(Arc<Vec<GenCondU>>, u32), SnapshotError> {
        if let Some(hit) = shared(&self.conds, &mut self.stats, r, "condition list")? {
            return Ok(hit);
        }
        let mut needs = 0;
        let conds = Arc::new(r.list(|r| {
            let key = r.u32()? as usize;
            let preds = r.list(|r| {
                let col = r.u32()?;
                let (dag, dag_needs) = self.dag(r, sym)?;
                needs = needs.max(dag_needs);
                Ok(GenPredU { col, dag })
            })?;
            Ok(GenCondU { key, preds })
        })?);
        self.conds.push((Arc::clone(&conds), needs));
        Ok((conds, needs))
    }

    /// One whole `Du` structure. Every node reference of its top DAG and
    /// predicate DAGs stays below its node count, and every node carries
    /// the same number of per-example values.
    pub(crate) fn structure(
        &mut self,
        r: &mut Reader<'_>,
        sym: &SymDecoder,
    ) -> Result<SemDStruct, SnapshotError> {
        let n = r.count()? as u32;
        let mut nodes: Vec<SemNode> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let vals = r.list(|r| sym.sym(r))?;
            if nodes
                .first()
                .is_some_and(|first| first.vals.len() != vals.len())
            {
                return Err(corrupt("nodes disagree on per-example value count"));
            }
            let progs = r.list(|r| match r.u8()? {
                0 => Ok(GenLookupU::Var(r.u32()?)),
                1 => {
                    let (col, table) = (r.u32()?, r.u32()?);
                    let (conds, needs) = self.conds(r, sym)?;
                    within(needs, n)?;
                    Ok(GenLookupU::Select { col, table, conds })
                }
                other => Err(corrupt(format!("unknown program tag {other}"))),
            })?;
            nodes.push(SemNode { vals, progs });
        }
        let top = if r.bool()? {
            let (dag, needs) = self.dag(r, sym)?;
            within(needs, n)?;
            Some(dag)
        } else {
            None
        };
        Ok(SemDStruct { nodes, top })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_tables::Symbol;

    /// A two-node DAG whose one edge holds `atoms`.
    fn edge(atoms: Vec<AtomSet<NodeId>>) -> Arc<Dag<NodeId>> {
        let edges = BTreeMap::from([((0, 1), atoms)]);
        Arc::new(Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges,
        })
    }

    fn sample_struct(output: &str) -> SemDStruct {
        let boundary = Arc::new(vec![PosSet::CPos(0), PosSet::CPos(-1)]);
        let key_dag = edge(vec![
            AtomSet::ConstStr("k1".to_string()),
            AtomSet::Whole(NodeId(0)),
            AtomSet::SubStr {
                src: NodeId(0),
                p1: Arc::clone(&boundary),
                p2: boundary,
            },
        ]);
        let preds = (0..2)
            .map(|col| GenPredU {
                col,
                dag: Arc::clone(&key_dag),
            })
            .collect();
        let select = GenLookupU::Select {
            col: 1,
            table: 0,
            conds: Arc::new(vec![GenCondU { key: 0, preds }]),
        };
        SemDStruct {
            nodes: vec![
                SemNode {
                    vals: vec![Symbol::intern("in")],
                    progs: vec![GenLookupU::Var(0)],
                },
                SemNode {
                    vals: vec![Symbol::intern(output)],
                    progs: vec![select],
                },
            ],
            top: Some(edge(vec![AtomSet::ConstStr(output.to_string())])),
        }
    }

    /// Writes `structs` through one encoder and reads them back through one
    /// decoder, returning both sides' counters.
    fn round_trip(structs: &[&SemDStruct]) -> (Vec<SemDStruct>, ArenaStats, ArenaStats) {
        let mut body = Writer::new();
        let mut sym = SymEncoder::new();
        let mut enc = TreeEncoder::default();
        for d in structs {
            enc.structure(d, &mut body, &mut sym);
        }
        let mut w = Writer::new();
        sym.write_table(&mut w);
        w.raw(&body.into_bytes());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let syms = SymDecoder::read_table(&mut r).unwrap();
        let mut dec = TreeDecoder::default();
        let back = structs
            .iter()
            .map(|_| dec.structure(&mut r, &syms).unwrap())
            .collect();
        r.expect_end().unwrap();
        (back, enc.stats, dec.stats)
    }

    #[test]
    fn decode_inverts_encode_and_reshares_arcs() {
        let d = sample_struct("out");
        let (back, enc, dec) = round_trip(&[&d, &d]);
        assert_eq!(back[0], d);
        assert_eq!(back[1], d);
        // The key DAG appears twice (two predicate columns); the restore
        // re-shares one allocation, and so does the boundary list.
        let GenLookupU::Select { conds, .. } = &back[0].nodes[1].progs[0] else {
            panic!("expected select");
        };
        let key_dag = &conds[0].preds[0].dag;
        assert!(Arc::ptr_eq(key_dag, &conds[0].preds[1].dag));
        let AtomSet::SubStr { p1, p2, .. } = &key_dag.edges[&(0, 1)][2] else {
            panic!("expected substring atom");
        };
        assert!(Arc::ptr_eq(p1, p2));
        // The second structure back-references every allocation of the
        // first, exactly as the live one shares them.
        assert!(Arc::ptr_eq(
            back[0].top.as_ref().unwrap(),
            back[1].top.as_ref().unwrap()
        ));
        let GenLookupU::Select { conds: again, .. } = &back[1].nodes[1].progs[0] else {
            panic!("expected select");
        };
        assert!(Arc::ptr_eq(conds, again));
        // Written in full: key DAG, top DAG, boundary list, condition list.
        // Referenced: the first structure names its condition list, the key
        // DAG twice, the boundary twice and the top DAG; the second names
        // only its condition list and top DAG, as back-references.
        assert_eq!(enc.stored, 4);
        assert_eq!(enc.interned, 6 + 2);
        assert_eq!(dec, enc, "decode counts what encode wrote");
    }

    #[test]
    fn equal_but_distinct_allocations_stay_distinct() {
        let (a, b) = (sample_struct("same"), sample_struct("same"));
        let (back, enc, _) = round_trip(&[&a, &b]);
        assert_eq!(back[0], back[1]);
        assert!(!Arc::ptr_eq(
            back[0].top.as_ref().unwrap(),
            back[1].top.as_ref().unwrap()
        ));
        assert_eq!(enc.stored, 8, "pointer sharing, not structural dedup");
    }

    #[test]
    fn empty_struct_round_trips() {
        let d = SemDStruct::default();
        let (back, enc, _) = round_trip(&[&d]);
        assert_eq!(back[0], d);
        assert_eq!(enc, ArenaStats::default(), "no allocation to write");
    }
}
