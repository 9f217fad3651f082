//! The payload codec under the snapshot frame: the varint [`Writer`] and
//! bounds-checked [`Reader`], the process-independent symbol table
//! ([`SymEncoder`]/[`SymDecoder`]), and the token, position-set and
//! database codecs.
//!
//! Interned [`Symbol`]s are process-local (shard-packed ids), so a
//! snapshot never stores raw symbol ids: [`SymEncoder`] assigns dense
//! indices to every symbol the payload references and writes the string
//! table once; [`SymDecoder`] re-interns the strings on restore and maps
//! indices to the new process's symbols.

use sst_syntactic::{PosSet, RegexSeq, Token};
use sst_tables::{ColId, Database, Symbol, SymbolMap, Table};

use super::{corrupt, SnapshotError};

/// Payload writer: varint `u32`/`i32`, little-endian `u64`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends one `u32` as an LEB128 varint (1–5 bytes).
    pub fn u32(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `i32` as a zigzag varint (small magnitudes of either
    /// sign take one byte).
    pub fn i32(&mut self, v: i32) {
        self.u32(((v << 1) ^ (v >> 31)) as u32);
    }

    /// Appends one bool.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends one length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a count, then each item through `f`.
    pub fn list<I: IntoIterator<IntoIter: ExactSizeIterator>>(
        &mut self,
        items: I,
        mut f: impl FnMut(&mut Self, I::Item),
    ) {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }

    /// Appends raw bytes (framing already accounted for by the caller).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked payload reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// One LEB128 varint `u32`. An encoding longer than needed (a zero
    /// final byte after the first) or one that overflows 32 bits is
    /// corrupt: every value has exactly one accepted encoding.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut v = 0u32;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            if shift == 28 && b > 0x0f {
                return Err(corrupt("varint overflows u32"));
            }
            v |= u32::from(b & 0x7f) << shift;
            if b < 0x80 {
                if b == 0 && shift > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// One zigzag varint `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        let u = self.u32()?;
        Ok((u >> 1) as i32 ^ -((u & 1) as i32))
    }

    /// One bool (`0` or `1`; anything else is corrupt).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// One length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// One element count: a varint sanity-bounded by the remaining payload
    /// (every encoded element is at least one byte), so a corrupted count
    /// fails typed instead of driving a huge allocation.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt("element count exceeds remaining payload"));
        }
        Ok(n)
    }

    /// A [`Reader::count`], then that many items read by `f`.
    pub fn list<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Fails unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(corrupt("unconsumed payload bytes"));
        }
        Ok(())
    }
}

/// Assigns dense indices to every [`Symbol`] a payload references, so the
/// string table can be written once ahead of the payload (raw interner
/// ids are process-local and never serialized).
#[derive(Debug, Default)]
pub struct SymEncoder {
    ids: SymbolMap<u32>,
    order: Vec<Symbol>,
}

impl SymEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        SymEncoder::default()
    }

    /// Writes one symbol reference: its dense index, assigned on first
    /// reference.
    pub fn sym(&mut self, s: Symbol, w: &mut Writer) {
        let next = self.order.len() as u32;
        let id = *self.ids.entry(s).or_insert(next);
        if id == next {
            self.order.push(s);
        }
        w.u32(id);
    }

    /// Writes the string table (decode this *before* the payload that
    /// references it).
    pub fn write_table(&self, w: &mut Writer) {
        w.list(&self.order, |w, s| w.str(s.as_str()));
    }
}

/// Reads a [`SymEncoder`] string table and re-interns every string into
/// the current process, mapping dense indices to fresh symbols.
#[derive(Debug)]
pub struct SymDecoder {
    syms: Vec<Symbol>,
}

impl SymDecoder {
    /// Reads the string table.
    pub fn read_table(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let syms = r.list(|r| Ok(Symbol::intern(r.str()?)))?;
        Ok(SymDecoder { syms })
    }

    /// Reads one symbol reference.
    pub fn sym(&self, r: &mut Reader<'_>) -> Result<Symbol, SnapshotError> {
        let idx = r.u32()? as usize;
        self.syms
            .get(idx)
            .copied()
            .ok_or_else(|| corrupt(format!("symbol index {idx} out of range")))
    }
}

// ---------------------------------------------------------------------------
// Tokens and position sets
// ---------------------------------------------------------------------------

fn encode_token(t: Token, w: &mut Writer) {
    match t {
        Token::Upper => w.u8(0),
        Token::Lower => w.u8(1),
        Token::Alpha => w.u8(2),
        Token::Num => w.u8(3),
        Token::AlphNum => w.u8(4),
        Token::DecNum => w.u8(5),
        Token::Whitespace => w.u8(6),
        Token::Punct => w.u8(7),
        Token::Start => w.u8(8),
        Token::End => w.u8(9),
        Token::Special(c) => {
            w.u8(10);
            w.u32(c as u32);
        }
    }
}

fn decode_token(r: &mut Reader<'_>) -> Result<Token, SnapshotError> {
    Ok(match r.u8()? {
        0 => Token::Upper,
        1 => Token::Lower,
        2 => Token::Alpha,
        3 => Token::Num,
        4 => Token::AlphNum,
        5 => Token::DecNum,
        6 => Token::Whitespace,
        7 => Token::Punct,
        8 => Token::Start,
        9 => Token::End,
        10 => Token::Special(
            char::from_u32(r.u32()?).ok_or_else(|| corrupt("invalid special-token char"))?,
        ),
        other => return Err(corrupt(format!("unknown token tag {other}"))),
    })
}

/// Writes one position set.
pub fn encode_pos(p: &PosSet, w: &mut Writer) {
    match p {
        PosSet::CPos(k) => {
            w.u8(0);
            w.i32(*k);
        }
        PosSet::Pos { r1s, r2s, cs } => {
            w.u8(1);
            for rs in [r1s, r2s] {
                w.list(rs, |w, seq| w.list(&seq.0, |w, &t| encode_token(t, w)));
            }
            w.list(cs, |w, &c| w.i32(c));
        }
    }
}

/// Reads one position set written by [`encode_pos`].
pub fn decode_pos(r: &mut Reader<'_>) -> Result<PosSet, SnapshotError> {
    Ok(match r.u8()? {
        0 => PosSet::CPos(r.i32()?),
        1 => {
            let mut seqs = || r.list(|r| Ok(RegexSeq(r.list(decode_token)?)));
            let (r1s, r2s) = (seqs()?, seqs()?);
            PosSet::Pos {
                r1s,
                r2s,
                cs: r.list(Reader::i32)?,
            }
        }
        other => return Err(corrupt(format!("unknown pos-set tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

/// Writes the database: every table's name, columns, declared candidate
/// keys and live rows (cells as symbol references), in [`TableId`]
/// (`sst_tables::TableId`) order — so table ids survive the round trip
/// and memo entries referencing them stay meaningful.
pub fn encode_database(db: &Database, w: &mut Writer, sym: &mut SymEncoder) {
    w.u32(db.len() as u32);
    for (_, table) in db.iter() {
        w.str(table.name());
        let columns = table.columns();
        w.list(columns, |w, col| w.str(col));
        w.list(table.candidate_keys(), |w, key| {
            w.list(key, |w, &c| w.u32(c))
        });
        w.u32(table.len() as u32);
        for row in table.row_ids() {
            for c in 0..columns.len() {
                sym.sym(table.cell_sym(c as ColId, row), w);
            }
        }
    }
}

/// Reads a database written by [`encode_database`]. Each table rebuilds its
/// indexes from the rows (they are derived state), candidate keys are restored
/// exactly as declared, and the database draws a **fresh** mutation
/// epoch — snapshot epochs are process-local and never serialized.
pub fn decode_database(r: &mut Reader<'_>, sym: &SymDecoder) -> Result<Database, SnapshotError> {
    let tables = r.list(|r| {
        let name = r.str()?.to_string();
        let columns = r.list(|r| Ok(r.str()?.to_string()))?;
        let n_cols = columns.len();
        let keys = r.list(|r| {
            r.list(|r| match r.u32()? {
                c if (c as usize) < n_cols => Ok(c as ColId),
                c => Err(corrupt(format!("key column {c} out of range"))),
            })
        })?;
        let rows = r.list(|r| {
            (0..n_cols)
                .map(|_| Ok(sym.sym(r)?.as_str().to_string()))
                .collect()
        })?;
        Table::from_parts(name, columns, rows, keys)
            .map_err(|e| corrupt(format!("table rejected: {e}")))
    })?;
    Database::from_tables(tables).map_err(|e| corrupt(format!("database rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_edges() {
        let us = [0, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX];
        let is = [0, 1, -1, 63, -64, 64, -65, i32::MAX, i32::MIN, i32::MIN + 1];
        let mut w = Writer::new();
        w.list(us, |w, u| w.u32(u));
        w.list(is, |w, i| w.i32(i));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.list(Reader::u32).unwrap(), us);
        assert_eq!(r.list(Reader::i32).unwrap(), is);
        r.expect_end().unwrap();
        let encoded = |f: fn(&mut Writer)| {
            let mut w = Writer::new();
            f(&mut w);
            w.into_bytes()
        };
        let max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        assert_eq!(encoded(|w| w.u32(127)), [0x7f]);
        assert_eq!(encoded(|w| w.u32(128)), [0x80, 0x01]);
        assert_eq!(encoded(|w| w.u32(u32::MAX)), max);
        assert_eq!(
            encoded(|w| w.i32(-64)),
            [0x7f],
            "zigzag keeps small negatives short"
        );
        assert_eq!(encoded(|w| w.i32(i32::MIN)), max);
    }

    #[test]
    fn malformed_varints_fail_typed() {
        let read = |bytes: &[u8]| Reader::new(bytes).u32();
        let cases: [(&str, &[u8]); 5] = [
            ("overlong zero", &[0x80, 0x00]),
            ("overlong one", &[0x81, 0x80, 0x00]),
            ("5th byte above 0x0f", &[0xff, 0xff, 0xff, 0xff, 0x10]),
            ("5th byte continues", &[0xff, 0xff, 0xff, 0xff, 0x8f, 0x01]),
            ("5th byte 0x7f", &[0x80, 0x80, 0x80, 0x80, 0x7f]),
        ];
        for (why, bytes) in cases {
            assert!(
                matches!(read(bytes), Err(SnapshotError::Corrupt(_))),
                "{why}: {:?}",
                read(bytes)
            );
        }
        assert!(matches!(
            Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x10]).i32(),
            Err(SnapshotError::Corrupt(_))
        ));
        for cut in [&[][..], &[0x80], &[0xff, 0xff, 0xff, 0xff]] {
            assert_eq!(read(cut), Err(SnapshotError::Truncated), "cut {cut:?}");
        }
        assert_eq!(read(&[0xff, 0xff, 0xff, 0xff, 0x0f]), Ok(u32::MAX));
    }

    #[test]
    fn symbols_round_trip_densely() {
        let mut w = Writer::new();
        let mut enc = SymEncoder::new();
        let syms = [
            Symbol::intern("naïve"),
            Symbol::intern(""),
            Symbol::intern("naïve"),
            Symbol::intern("b"),
        ];
        let mut body = Writer::new();
        for &s in &syms {
            enc.sym(s, &mut body);
        }
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 3, "repeat referenced once: a three-entry table");
        let mut r = Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        for &s in &syms {
            assert_eq!(dec.sym(&mut r).unwrap(), s);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn database_round_trips() {
        let db = Database::from_tables(vec![
            Table::new(
                "CutePets",
                vec!["Id", "Name", "Où"],
                vec![
                    vec!["p1", "Rex", "Lyon"],
                    vec!["p2", "", "Paris"],
                    vec!["p3", "Rex", ""],
                ],
            )
            .unwrap(),
            Table::new("K", vec!["A"], vec![vec!["x"]]).unwrap(),
        ])
        .unwrap();
        let mut body = Writer::new();
        let mut enc = SymEncoder::new();
        encode_database(&db, &mut body, &mut enc);
        let mut w = Writer::new();
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        let restored = decode_database(&mut r, &dec).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.len(), db.len());
        for (id, table) in db.iter() {
            let rt = restored.table(id);
            assert_eq!(rt.name(), table.name());
            assert_eq!(rt.columns(), table.columns());
            assert_eq!(rt.candidate_keys(), table.candidate_keys());
            assert_eq!(rt.len(), table.len());
            for (a, b) in rt.row_ids().zip(table.row_ids()) {
                for c in 0..table.columns().len() as ColId {
                    assert_eq!(rt.cell_sym(c, a), table.cell_sym(c, b));
                }
            }
        }
        assert_ne!(
            restored.epoch(),
            db.epoch(),
            "restored db draws a fresh epoch"
        );
    }
}
