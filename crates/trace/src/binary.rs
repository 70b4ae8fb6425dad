//! The binary trace format: fixed-width records behind a per-file symbol
//! table.
//!
//! The textual format (see the crate docs) spends most of its ingest budget
//! re-tokenizing and re-hashing the same handful of strings millions of
//! times. The binary format removes both costs:
//!
//! * **every symbol appears exactly once**, in a string table at the head
//!   of the file, and is interned into the session's
//!   [`SymbolSpace`](crate::SymbolSpace) once at open — records refer to
//!   symbols by dense file-local index, resolved with an array lookup;
//! * **records are fixed-width** (a 32-byte header plus 19 bytes per
//!   operand), so decoding is a handful of `from_le_bytes` copies straight
//!   out of the input buffer — no per-record string materialization at all.
//!
//! # Layout
//!
//! All integers are little-endian.
//!
//! ```text
//! header (24 bytes)
//!   0   4  magic           B7 41 43 54  ("\xB7ACT"; 0xB7 is never a
//!                          valid leading UTF-8 byte, so text traces can
//!                          never collide and auto-detection is one byte)
//!   4   2  version         currently 1
//!   6   2  reserved        0
//!   8   8  record count
//!   16  4  string count
//!   20  4  string-table length in bytes
//! string table (one entry per symbol, in first-use order)
//!   0   2  byte length
//!   2   n  UTF-8 bytes
//! records (record count of them, then end of file)
//!   0   4  src_line (i32)
//!   4   4  func            (string-table index)
//!   8   4  bb line
//!   12  4  bb col
//!   16  4  bb_label        (string-table index)
//!   20  2  opcode
//!   22  2  bit 15: has-result flag; bits 0–14: operand count
//!   24  8  dyn_id
//! operand entries (operand count + has-result of them, 19 bytes each;
//! the result entry, when present, comes last)
//!   0   1  tag kind        0 = positional, 1 = param (`f`), 2 = result (`r`)
//!   1   1  position        1-based operand id for positional tags, else 0
//!   2   2  bits
//!   4   1  is_reg          0 or 1
//!   5   1  name kind       0 = none, 1 = temp, 2 = symbol
//!   6   4  name payload    temp number or string-table index, else 0
//!   10  1  value kind      0 = none, 1 = int, 2 = float, 3 = pointer
//!   11  8  value payload   i64 / f64 bit pattern / u64, else 0
//! iteration-index footer (version 2 only, after the last record; read,
//! never written)
//!   0   4  index magic     41 49 58 31 ("AIX1")
//!   4   4  boundary count  u32
//!   8   8n boundaries      record indices where a new region iteration
//!                          starts, u64 each, strictly increasing,
//!                          each in (0, record count)
//!   ..  4  boundary count  repeated (backward parse)
//!   ..  4  index magic     repeated (backward parse)
//! ```
//!
//! Writers emit version 1, which carries no footer. Version-2 files, whose
//! footer an earlier release wrote, still read: the zero-copy reader
//! parses the footer backward off the end of the buffer, the streaming
//! reader consumes it after the declared records, and both validate it in
//! full before ignoring it.
//!
//! The writer is **buffered**: record bytes and the growing string table
//! accumulate in memory and the complete file — header, then string table,
//! then records — is emitted at [`BinaryWriter::finish`]. That is what lets
//! the string table live *ahead* of the records (so readers, including
//! purely streaming ones, intern everything once up front) while symbols
//! are still discovered on the fly during writing.
//!
//! Two readers share one record decoder. [`BinaryReader`] decodes
//! zero-copy out of an in-memory buffer, serially or over record-aligned
//! chunks in parallel, into owned records. [`BinaryStreamReader`] pulls
//! from any [`Read`] holding only the string table plus one 64 KiB read
//! window; its records decode out of the window into one reused
//! [`Record`] that [`next_record`](BinaryStreamReader::next_record) lends,
//! so streaming ingest allocates nothing per record.
//!
//! Readers validate everything before trusting it: magic, version, that
//! the declared string table fits its section, that every symbol index is
//! in range, and that exactly the declared record count is present.
//! Allocations are bounded by bytes actually read, never by header-declared
//! sizes — a hostile header cannot make a reader over-allocate (the
//! `--untrusted-trace` hardening contract; see the fuzz tests). Beyond the
//! fixed 64 KiB stream window, the one allocation sized ahead of its bytes
//! is that window growing to fit a record wider than itself, which the
//! format caps at 32 768 entries (~608 KiB).

use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::name::Name;
use crate::reader::TraceReadError;
use crate::record::{OpTag, Operand, Record, TraceValue};
use fxhash::FxHashMap;
use std::io::{self, Read, Write};

/// The four magic bytes opening every binary trace file.
pub const MAGIC: [u8; 4] = [0xB7, b'A', b'C', b'T'];

/// The current format version.
pub const VERSION: u16 = 1;

/// Format version for files carrying the iteration-index footer (see the
/// module docs). Readers accept and validate it; writers no longer emit
/// it. Version-1 readers reject version-2 files rather than misread the
/// footer as trailing garbage.
pub const VERSION_INDEXED: u16 = 2;

/// Magic bytes framing the iteration-index footer at **both** ends, so it
/// parses forward (streaming readers, after the declared records) and
/// backward (seekable readers, from end of file) without a scan.
pub const INDEX_MAGIC: [u8; 4] = *b"AIX1";

/// Fixed footer overhead: leading magic + count, trailing count + magic.
const INDEX_FRAME_BYTES: usize = 16;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 24;

/// Fixed record-header size in bytes.
pub const RECORD_BYTES: usize = 32;

/// Fixed per-operand entry size in bytes.
pub const OPERAND_BYTES: usize = 19;

/// Largest encodable operand count (bits 0–14 of the packed field).
const MAX_OPERANDS: usize = 0x7FFF;

/// A malformed binary trace, with the byte offset where decoding stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct BinaryError {
    /// Byte offset into the file/stream where the problem was found.
    pub offset: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "binary trace error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for BinaryError {}

fn berr(offset: u64, message: impl Into<String>) -> TraceReadError {
    TraceReadError::Binary(BinaryError {
        offset,
        message: message.into(),
    })
}

/// True when `bytes` begin with the binary-trace magic (the auto-detection
/// probe used by [`crate::TraceSource`] and the CLIs).
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Buffered binary trace writer over any [`Write`].
///
/// Mirrors [`TraceWriter`](crate::TraceWriter)'s API (write records, counters,
/// `finish`). Symbols resolve through the writer's [`AnalysisCtx`], so
/// records must come from the same session. Nothing reaches the underlying
/// writer until [`finish`](Self::finish) — see the module docs for why.
pub struct BinaryWriter<W: Write> {
    out: W,
    ctx: AnalysisCtx,
    /// String-table entries in first-use order (= file-local index order).
    /// Owned handles — the writer stays valid even if the session space
    /// that interned them drops first.
    strings: Vec<SymStr>,
    /// Session `SymId` index → file-local string-table index.
    sym_index: FxHashMap<usize, u32>,
    /// Accumulated record-section bytes.
    records: Vec<u8>,
    record_count: u64,
}

impl<W: Write> BinaryWriter<W> {
    /// Wrap `out`, resolving symbols through the thread's current space.
    pub fn new(out: W) -> Self {
        Self::with_ctx(out, &AnalysisCtx::current())
    }

    /// Wrap `out`, resolving symbols through `ctx`'s space.
    pub fn with_ctx(out: W, ctx: &AnalysisCtx) -> Self {
        BinaryWriter {
            out,
            ctx: ctx.clone(),
            strings: Vec::new(),
            sym_index: FxHashMap::default(),
            records: Vec::new(),
            record_count: 0,
        }
    }

    fn file_sym(&mut self, id: SymId) -> io::Result<u32> {
        if let Some(&ix) = self.sym_index.get(&id.index()) {
            return Ok(ix);
        }
        let s = self.ctx.resolve(id);
        if s.len() > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "symbol of {} bytes exceeds the format's 64 KiB cap",
                    s.len()
                ),
            ));
        }
        let ix = u32::try_from(self.strings.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many symbols"))?;
        self.strings.push(s);
        self.sym_index.insert(id.index(), ix);
        Ok(ix)
    }

    fn encode_operand(&mut self, op: &Operand) -> io::Result<()> {
        let (kind, pos) = match op.tag {
            OpTag::Pos(i) => (0u8, i),
            OpTag::Param => (1, 0),
            OpTag::Result => (2, 0),
        };
        let (name_kind, name_payload) = match op.name {
            Name::None => (0u8, 0u32),
            Name::Temp(n) => (1, n),
            Name::Sym(s) => (2, self.file_sym(s)?),
        };
        let (value_kind, value_payload) = match op.value {
            TraceValue::None => (0u8, 0u64),
            TraceValue::I(v) => (1, v as u64),
            TraceValue::F(v) => (2, v.to_bits()),
            TraceValue::Ptr(p) => (3, p),
        };
        let b = &mut self.records;
        b.push(kind);
        b.push(pos);
        b.extend_from_slice(&op.bits.to_le_bytes());
        b.push(op.is_reg as u8);
        b.push(name_kind);
        b.extend_from_slice(&name_payload.to_le_bytes());
        b.push(value_kind);
        b.extend_from_slice(&value_payload.to_le_bytes());
        Ok(())
    }

    /// Serialize one record (into the writer's buffer).
    pub fn write_record(&mut self, r: &Record) -> io::Result<()> {
        if r.operands.len() > MAX_OPERANDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record with {} operands exceeds the format's cap",
                    r.operands.len()
                ),
            ));
        }
        let func = self.file_sym(r.func)?;
        let label = self.file_sym(r.bb_label)?;
        let packed = r.operands.len() as u16 | if r.result.is_some() { 0x8000 } else { 0 };
        let b = &mut self.records;
        b.extend_from_slice(&r.src_line.to_le_bytes());
        b.extend_from_slice(&func.to_le_bytes());
        b.extend_from_slice(&r.bb.0.to_le_bytes());
        b.extend_from_slice(&r.bb.1.to_le_bytes());
        b.extend_from_slice(&label.to_le_bytes());
        b.extend_from_slice(&r.opcode.to_le_bytes());
        b.extend_from_slice(&packed.to_le_bytes());
        b.extend_from_slice(&r.dyn_id.to_le_bytes());
        for op in &r.operands {
            self.encode_operand(op)?;
        }
        if let Some(res) = &r.result {
            self.encode_operand(res)?;
        }
        self.record_count += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.record_count
    }

    /// Size of the complete file as buffered so far (header + string table
    /// + records), in bytes.
    pub fn bytes_written(&self) -> u64 {
        let strtab: usize = self.strings.iter().map(|s| 2 + s.len()).sum();
        (HEADER_BYTES + strtab + self.records.len()) as u64
    }

    /// Emit header, string table and records; flush; return the inner
    /// writer.
    pub fn finish(mut self) -> io::Result<W> {
        let strtab_len: usize = self.strings.iter().map(|s| 2 + s.len()).sum();
        let strtab_len = u32::try_from(strtab_len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "string table exceeds 4 GiB")
        })?;
        let mut head = Vec::with_capacity(HEADER_BYTES + strtab_len as usize);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes());
        head.extend_from_slice(&self.record_count.to_le_bytes());
        head.extend_from_slice(&(self.strings.len() as u32).to_le_bytes());
        head.extend_from_slice(&strtab_len.to_le_bytes());
        for s in &self.strings {
            head.extend_from_slice(&(s.len() as u16).to_le_bytes());
            head.extend_from_slice(s.as_bytes());
        }
        self.out.write_all(&head)?;
        self.out.write_all(&self.records)?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Mutable access to the underlying writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

/// Serialize a slice of records to a complete binary trace (convenience
/// mirror of [`crate::writer::to_string`]).
pub fn to_bytes(records: &[Record], ctx: &AnalysisCtx) -> Vec<u8> {
    // SAFETY of the expects: the sink is a `Vec<u8>`, whose `Write` impl is
    // infallible — no untrusted input is involved on the encode path.
    let mut w = BinaryWriter::with_ctx(Vec::new(), ctx);
    for r in records {
        w.write_record(r).expect("in-memory binary encode");
    }
    w.finish().expect("in-memory binary encode")
}

// ---------------------------------------------------------------------------
// Shared decode helpers
// ---------------------------------------------------------------------------

fn parse_header_fields(h: &[u8; HEADER_BYTES]) -> Result<(u16, u64, u32, u32), TraceReadError> {
    if h[..4] != MAGIC {
        return Err(berr(0, "not a binary trace (bad magic bytes)"));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != VERSION && version != VERSION_INDEXED {
        return Err(berr(4, format!("unsupported format version {version}")));
    }
    // SAFETY of unwraps: `h` is a fixed `[u8; HEADER_BYTES]` array, so these
    // constant subranges always have exactly the width the conversion needs —
    // no hostile input reaches them with a different length.
    let record_count = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let string_count = u32::from_le_bytes(h[16..20].try_into().unwrap());
    let strtab_len = u32::from_le_bytes(h[20..24].try_into().unwrap());
    // Every entry takes at least its 2-byte length prefix, so a count that
    // cannot fit the declared section is a lie — reject it before any
    // count-derived work happens.
    if (string_count as u64) * 2 > strtab_len as u64 {
        return Err(berr(16, "string count does not fit the string table"));
    }
    Ok((version, record_count, string_count, strtab_len))
}

/// Validate one decoded boundary sequence (shared by both parse
/// directions): strictly increasing record indices in `(0, record_count)`.
fn check_boundaries(bounds: &[u64], record_count: u64, offset: u64) -> Result<(), TraceReadError> {
    let mut prev = 0u64;
    for &b in bounds {
        if b <= prev {
            return Err(berr(offset, "iteration index is not strictly increasing"));
        }
        if b >= record_count {
            return Err(berr(
                offset,
                format!("iteration boundary {b} outside (0, {record_count})"),
            ));
        }
        prev = b;
    }
    Ok(())
}

/// Parse the iteration-index footer **backward** from the end of `bytes`.
/// `floor` is the first byte offset the footer may occupy (just past the
/// string table — a hostile footer may not swallow header bytes). Returns
/// the boundaries and the footer's total length.
fn parse_footer_tail(
    bytes: &[u8],
    floor: usize,
    record_count: u64,
) -> Result<(Vec<u64>, usize), TraceReadError> {
    let len = bytes.len();
    if len < floor + INDEX_FRAME_BYTES {
        return Err(berr(len as u64, "file too short for the iteration index"));
    }
    if bytes[len - 4..] != INDEX_MAGIC {
        return Err(berr(
            (len - 4) as u64,
            "missing iteration-index trailer magic",
        ));
    }
    // SAFETY of the unwraps: constant-width subranges of a slice whose
    // length was checked above.
    let count = u32::from_le_bytes(bytes[len - 8..len - 4].try_into().unwrap()) as usize;
    let footer_len = INDEX_FRAME_BYTES + count * 8;
    if len < floor + footer_len {
        return Err(berr(
            (len - 8) as u64,
            "iteration-index count overruns the file",
        ));
    }
    let start = len - footer_len;
    if bytes[start..start + 4] != INDEX_MAGIC {
        return Err(berr(start as u64, "missing iteration-index header magic"));
    }
    let lead = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap()) as usize;
    if lead != count {
        return Err(berr(
            (start + 4) as u64,
            "iteration-index counts disagree front to back",
        ));
    }
    let mut bounds = Vec::with_capacity(count);
    let mut at = start + 8;
    for _ in 0..count {
        bounds.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
        at += 8;
    }
    check_boundaries(&bounds, record_count, (start + 8) as u64)?;
    Ok((bounds, footer_len))
}

/// Encode the iteration-index footer (the inverse of [`parse_footer_tail`],
/// which the footer tests round-trip through).
#[cfg(test)]
fn encode_footer(bounds: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(INDEX_FRAME_BYTES + bounds.len() * 8);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    for &b in bounds {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    out.extend_from_slice(&INDEX_MAGIC);
    out
}

/// Decode + intern one string-table section. `base` is the section's byte
/// offset (error reporting only). Allocation is bounded by `bytes.len()`,
/// which callers guarantee is real data, not a header claim.
fn intern_strtab(
    bytes: &[u8],
    string_count: u32,
    base: u64,
    ctx: &AnalysisCtx,
) -> Result<Vec<SymId>, TraceReadError> {
    let mut syms = Vec::with_capacity(string_count as usize);
    let mut at = 0usize;
    for _ in 0..string_count {
        let off = base + at as u64;
        let len = bytes
            .get(at..at + 2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
            .ok_or_else(|| berr(off, "truncated string table"))?;
        let s = bytes
            .get(at + 2..at + 2 + len)
            .ok_or_else(|| berr(off, "string entry overruns the string table"))?;
        let s = std::str::from_utf8(s).map_err(|_| berr(off, "string entry is not UTF-8"))?;
        syms.push(ctx.intern(s));
        at += 2 + len;
    }
    if at != bytes.len() {
        return Err(berr(
            base + at as u64,
            "trailing bytes after the last string-table entry",
        ));
    }
    Ok(syms)
}

/// Decode the record whose header starts at `bytes[at..]` into a fresh
/// record; returns it and the offset just past it (the owned wrapper the
/// zero-copy reader and the parallel decode use).
fn decode_record(
    bytes: &[u8],
    at: usize,
    base: u64,
    syms: &[SymId],
) -> Result<(Record, usize), TraceReadError> {
    let mut rec = blank_record();
    let end = decode_record_into(bytes, at, base, syms, &mut rec)?;
    Ok((rec, end))
}

/// A record for a decoder to overwrite.
fn blank_record() -> Record {
    Record {
        src_line: 0,
        func: SymId::FILLER,
        bb: (0, 0),
        bb_label: SymId::FILLER,
        opcode: 0,
        dyn_id: 0,
        operands: Vec::new(),
        result: None,
    }
}

/// Decode the record whose header starts at `bytes[at..]` into `rec`,
/// reusing its operand buffer; returns the offset just past the record.
/// `base` rebases error offsets onto the whole file. On error `rec` holds
/// a partial decode.
fn decode_record_into(
    bytes: &[u8],
    at: usize,
    base: u64,
    syms: &[SymId],
    rec: &mut Record,
) -> Result<usize, TraceReadError> {
    let off = |rel: usize| base + (at + rel) as u64;
    // SAFETY of the `try_into().unwrap()`s below: the length-checked `get`
    // calls guarantee `h` spans RECORD_BYTES and `o` spans OPERAND_BYTES, so
    // every constant subrange is in bounds with exactly the converted width.
    // Truncated input fails the `get`, never the conversion.
    let h = bytes
        .get(at..at + RECORD_BYTES)
        .ok_or_else(|| berr(off(0), "truncated record header"))?;
    let sym = |rel: usize, what: &str| -> Result<SymId, TraceReadError> {
        let ix = u32::from_le_bytes(h[rel..rel + 4].try_into().unwrap());
        syms.get(ix as usize)
            .copied()
            .ok_or_else(|| berr(off(rel), format!("{what} index {ix} out of range")))
    };
    let packed = u16::from_le_bytes([h[22], h[23]]);
    let n_ops = (packed & 0x7FFF) as usize;
    let has_result = packed & 0x8000 != 0;
    rec.src_line = i32::from_le_bytes(h[0..4].try_into().unwrap());
    rec.func = sym(4, "function symbol")?;
    rec.bb = (
        u32::from_le_bytes(h[8..12].try_into().unwrap()),
        u32::from_le_bytes(h[12..16].try_into().unwrap()),
    );
    rec.bb_label = sym(16, "block-label symbol")?;
    rec.opcode = u16::from_le_bytes([h[20], h[21]]);
    rec.dyn_id = u64::from_le_bytes(h[24..32].try_into().unwrap());
    rec.operands.clear();
    // Exact, like the `Vec::with_capacity` materialized records had; a
    // reused record stops reallocating once it has seen its widest one.
    rec.operands.reserve_exact(n_ops);
    rec.result = None;
    let mut at = at + RECORD_BYTES;
    for i in 0..n_ops + has_result as usize {
        let o = bytes
            .get(at..at + OPERAND_BYTES)
            .ok_or_else(|| berr(base + at as u64, "truncated operand entry"))?;
        let ooff = |rel: usize| base + (at + rel) as u64;
        let tag = match (o[0], o[1]) {
            (0, p) if p >= 1 => OpTag::Pos(p),
            (0, _) => return Err(berr(ooff(1), "positional operand id 0")),
            (1, _) => OpTag::Param,
            (2, _) => OpTag::Result,
            (k, _) => return Err(berr(ooff(0), format!("unknown operand tag kind {k}"))),
        };
        let is_reg = match o[4] {
            0 => false,
            1 => true,
            b => return Err(berr(ooff(4), format!("bad is_reg byte {b}"))),
        };
        let name_payload = u32::from_le_bytes(o[6..10].try_into().unwrap());
        let name = match o[5] {
            0 => Name::None,
            1 => Name::Temp(name_payload),
            2 => Name::Sym(syms.get(name_payload as usize).copied().ok_or_else(|| {
                berr(
                    ooff(6),
                    format!("name symbol index {name_payload} out of range"),
                )
            })?),
            b => return Err(berr(ooff(5), format!("unknown name kind {b}"))),
        };
        let value_payload = u64::from_le_bytes(o[11..19].try_into().unwrap());
        let value = match o[10] {
            0 => TraceValue::None,
            1 => TraceValue::I(value_payload as i64),
            2 => TraceValue::F(f64::from_bits(value_payload)),
            3 => TraceValue::Ptr(value_payload),
            b => return Err(berr(ooff(10), format!("unknown value kind {b}"))),
        };
        let op = Operand {
            tag,
            bits: u16::from_le_bytes([o[2], o[3]]),
            value,
            is_reg,
            name,
        };
        if has_result && i == n_ops {
            rec.result = Some(op);
        } else {
            rec.operands.push(op);
        }
        at += OPERAND_BYTES;
    }
    Ok(at)
}

/// Byte length of the record starting at `bytes[at..]` without decoding it
/// (header peek only) — the record-aligned analogue of the text format's
/// `\n0,` boundary scan, used to cut parallel chunks.
fn record_len(bytes: &[u8], at: usize, base: u64) -> Result<usize, TraceReadError> {
    let h = bytes
        .get(at..at + RECORD_BYTES)
        .ok_or_else(|| berr(base + at as u64, "truncated record header"))?;
    let packed = u16::from_le_bytes([h[22], h[23]]);
    let entries = (packed & 0x7FFF) as usize + (packed >> 15) as usize;
    Ok(RECORD_BYTES + entries * OPERAND_BYTES)
}

// ---------------------------------------------------------------------------
// Zero-copy reader
// ---------------------------------------------------------------------------

/// Zero-copy binary trace reader over an in-memory byte buffer (a read-in
/// or memory-mapped file).
///
/// Opening parses the header and interns the whole string table into the
/// ctx's space — **once per symbol**. Iteration then decodes fixed-width
/// records straight out of the buffer: no string is ever materialized or
/// hashed per record.
pub struct BinaryReader<'a> {
    bytes: &'a [u8],
    syms: Vec<SymId>,
    record_count: u64,
    /// Next record's byte offset.
    at: usize,
    /// End of the record section (`bytes.len()` minus any footer).
    body_end: usize,
    yielded: u64,
    failed: bool,
}

impl<'a> BinaryReader<'a> {
    /// Parse the header, intern the string table, and (for version-2
    /// files) validate the iteration-index footer.
    pub fn open(bytes: &'a [u8], ctx: &AnalysisCtx) -> Result<BinaryReader<'a>, TraceReadError> {
        let head: &[u8; HEADER_BYTES] =
            bytes
                .get(..HEADER_BYTES)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| berr(bytes.len() as u64, "truncated header"))?;
        let (version, record_count, string_count, strtab_len) = parse_header_fields(head)?;
        let strtab = bytes
            .get(HEADER_BYTES..HEADER_BYTES + strtab_len as usize)
            .ok_or_else(|| berr(HEADER_BYTES as u64, "string table overruns the file"))?;
        let syms = intern_strtab(strtab, string_count, HEADER_BYTES as u64, ctx)?;
        let at = HEADER_BYTES + strtab_len as usize;
        let body_end = if version == VERSION_INDEXED {
            let (_, footer_len) = parse_footer_tail(bytes, at, record_count)?;
            bytes.len() - footer_len
        } else {
            bytes.len()
        };
        Ok(BinaryReader {
            bytes,
            syms,
            record_count,
            at,
            body_end,
            yielded: 0,
            failed: false,
        })
    }

    /// Records the header declares.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// The interned symbol table (file order).
    pub fn symbols(&self) -> &[SymId] {
        &self.syms
    }

    /// Decode every record serially.
    pub fn read_all(mut self) -> Result<Vec<Record>, TraceReadError> {
        // Bound the pre-allocation by what the buffer could possibly hold,
        // not by the header's claim.
        let cap = (self.record_count as usize).min((self.body_end - self.at) / RECORD_BYTES);
        let mut out = Vec::with_capacity(cap);
        for item in &mut self {
            out.push(item?);
        }
        Ok(out)
    }

    /// Decode every record with `threads` workers over record-aligned
    /// chunks — the binary analogue of the text format's block-aligned
    /// parallel parse. Record order equals serial order.
    pub fn read_all_parallel(self, threads: usize) -> Result<Vec<Record>, TraceReadError> {
        let threads = threads.max(1);
        if threads == 1 {
            return self.read_all();
        }
        // Phase 1: a header-peek walk cuts the record section into
        // contiguous record-aligned ranges (over-decomposed, like the text
        // chunker, so no worker holds the join hostage).
        let target_chunks = threads * 8;
        let body = &self.bytes[self.at..self.body_end];
        let base = self.at as u64;
        let mut bounds = vec![0usize];
        let mut at = 0usize;
        let mut n: u64 = 0;
        let chunk_step = (body.len() / target_chunks.max(1)).max(1);
        while n < self.record_count {
            at += record_len(body, at, base)?;
            n += 1;
            if at >= bounds.len() * chunk_step && n < self.record_count {
                bounds.push(at);
            }
        }
        if at != body.len() {
            return Err(berr(
                base + at as u64,
                "trailing bytes after the last record",
            ));
        }
        bounds.push(at);
        // Phase 2: decode each range on the worker pool.
        let ranges: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        let syms = &self.syms;
        let slots = std::sync::Mutex::new({
            let mut v = Vec::new();
            v.resize_with(ranges.len(), || None);
            v
        });
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(ranges.len()) {
                let ranges = &ranges;
                let next = &next;
                let slots = &slots;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= ranges.len() {
                        break;
                    }
                    let (start, end) = ranges[i];
                    let mut part = Vec::new();
                    let mut at = start;
                    let mut res = Ok(());
                    while at < end {
                        match decode_record(body, at, base, syms) {
                            Ok((rec, next_at)) => {
                                part.push(rec);
                                at = next_at;
                            }
                            Err(e) => {
                                res = Err(e);
                                break;
                            }
                        }
                    }
                    slots.lock().expect("slots poisoned")[i] = Some(res.map(|()| part));
                });
            }
        });
        // SAFETY of the expects: the mutex is only poisoned if a worker
        // panicked (decode_record returns typed errors, it does not panic
        // on hostile bytes), and the claim loop above visits every index in
        // `0..ranges.len()`, so each slot was filled exactly once.
        let mut out = Vec::with_capacity(self.record_count as usize);
        for slot in slots.into_inner().expect("slots poisoned") {
            out.extend(slot.expect("every chunk decoded")?);
        }
        Ok(out)
    }
}

impl Iterator for BinaryReader<'_> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.yielded == self.record_count {
            if self.at != self.body_end {
                self.failed = true;
                return Some(Err(berr(
                    self.at as u64,
                    "trailing bytes after the last record",
                )));
            }
            return None;
        }
        match decode_record(&self.bytes[..self.body_end], self.at, 0, &self.syms) {
            Ok((rec, at)) => {
                self.at = at;
                self.yielded += 1;
                Some(Ok(rec))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// Size of the streaming reader's read window: record bytes arrive in
/// refills of up to this much and decode straight out of the window.
const WINDOW_BYTES: usize = 64 * 1024;

/// Streaming binary trace reader over any [`Read`], with bounded memory:
/// the string table (read and interned once at open) plus one read window.
///
/// The window holds 64 KiB of input; records decode straight out of it
/// into one reused [`Record`], which [`next_record`](Self::next_record)
/// lends out. A record that straddles the window's end is carried to its
/// front before the refill, and the window grows only to fit one record
/// wider than itself — at most the format's cap (32 768 entries, ~608 KiB),
/// whatever the header claims. The [`Iterator`] impl clones each lent
/// record.
///
/// The counterpart of the text format's [`RecordReader`](crate::RecordReader);
/// [`crate::TraceSource::stream`] picks between the two by magic bytes.
pub struct BinaryStreamReader<R: Read> {
    inner: R,
    syms: Vec<SymId>,
    record_count: u64,
    /// Format version (2 = an iteration-index footer follows the records).
    version: u16,
    /// Footer already consumed and validated.
    footer_done: bool,
    yielded: u64,
    /// Absolute byte offset of the next unconsumed byte, `window[pos]`.
    offset: u64,
    /// Read window: `window[pos..end]` is read but not yet consumed.
    window: Vec<u8>,
    pos: usize,
    end: usize,
    /// The record [`next_record`](Self::next_record) decodes into and lends.
    record: Record,
    failed: bool,
}

impl<R: Read> BinaryStreamReader<R> {
    /// Read the header and string table; intern every symbol once.
    pub fn open(inner: R, ctx: &AnalysisCtx) -> Result<BinaryStreamReader<R>, TraceReadError> {
        let mut r = BinaryStreamReader {
            inner,
            syms: Vec::new(),
            record_count: 0,
            version: VERSION,
            footer_done: false,
            yielded: 0,
            offset: 0,
            window: vec![0; WINDOW_BYTES],
            pos: 0,
            end: 0,
            record: blank_record(),
            failed: false,
        };
        let head: [u8; HEADER_BYTES] = r.read_array("header")?;
        let (version, record_count, string_count, strtab_len) = parse_header_fields(&head)?;
        // Pull the string table through the window: allocation tracks bytes
        // the stream actually delivers, so a hostile length cannot force an
        // up-front over-allocation.
        let mut strtab = Vec::new();
        let mut remaining = strtab_len as usize;
        while remaining > 0 {
            if !r.fill(1)? {
                return Err(berr(r.offset, "truncated string table"));
            }
            let n = remaining.min(r.end - r.pos);
            strtab.extend_from_slice(&r.window[r.pos..r.pos + n]);
            r.consume(n);
            remaining -= n;
        }
        r.syms = intern_strtab(&strtab, string_count, HEADER_BYTES as u64, ctx)?;
        r.version = version;
        r.record_count = record_count;
        Ok(r)
    }

    /// Records the header declares.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Decode the next record into the reader's own [`Record`] and lend
    /// it: no allocation once the record has seen its widest operand list.
    /// Yields records until the first error, then fuses.
    pub fn next_record(&mut self) -> Option<Result<&Record, TraceReadError>> {
        if self.failed {
            return None;
        }
        let step = if self.yielded == self.record_count {
            self.finish().map(|()| false)
        } else {
            self.read_record().map(|()| true)
        };
        match step {
            Ok(true) => {
                self.yielded += 1;
                Some(Ok(&self.record))
            }
            Ok(false) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn read_record(&mut self) -> Result<(), TraceReadError> {
        self.need(RECORD_BYTES, "record header")?;
        let total = record_len(&self.window[..self.end], self.pos, 0)?;
        self.need(total, "operand entries")?;
        let base = self.offset - self.pos as u64;
        let end = decode_record_into(
            &self.window[..self.end],
            self.pos,
            base,
            &self.syms,
            &mut self.record,
        )?;
        self.consume(end - self.pos);
        Ok(())
    }

    /// After the declared records: consume and validate the version-2
    /// footer, then require end of stream.
    fn finish(&mut self) -> Result<(), TraceReadError> {
        if self.version == VERSION_INDEXED && !self.footer_done {
            self.read_footer()?;
            self.footer_done = true;
        }
        if self.fill(1)? {
            return Err(berr(self.offset, "trailing bytes after the last record"));
        }
        Ok(())
    }

    /// Consume and validate the version-2 iteration-index footer after the
    /// last declared record. Allocation is capped by the record count (a
    /// valid index can never hold more boundaries than records), so a
    /// hostile count cannot force an over-allocation.
    fn read_footer(&mut self) -> Result<(), TraceReadError> {
        let at = self.offset;
        let frame: [u8; 8] = self.read_array("index header")?;
        if frame[..4] != INDEX_MAGIC {
            return Err(berr(at, "missing iteration-index header magic"));
        }
        let count = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as u64;
        if count > self.record_count {
            return Err(berr(
                at + 4,
                "iteration-index count exceeds the record count",
            ));
        }
        let mut bounds = Vec::with_capacity(count as usize);
        for _ in 0..count {
            bounds.push(u64::from_le_bytes(self.read_array("index entry")?));
        }
        let at = self.offset;
        check_boundaries(&bounds, self.record_count, at)?;
        let frame: [u8; 8] = self.read_array("index trailer")?;
        let tail_count = u32::from_le_bytes(frame[..4].try_into().unwrap()) as u64;
        if tail_count != count {
            return Err(berr(at, "iteration-index counts disagree front to back"));
        }
        if frame[4..] != INDEX_MAGIC {
            return Err(berr(at + 4, "missing iteration-index trailer magic"));
        }
        Ok(())
    }

    /// Consume the next `N` bytes (`what` names them in the truncation
    /// error).
    fn read_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceReadError> {
        self.need(N, what)?;
        // SAFETY of the unwrap: `need` guarantees N buffered bytes.
        let bytes = self.window[self.pos..self.pos + N].try_into().unwrap();
        self.consume(N);
        Ok(bytes)
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.offset += n as u64;
    }

    /// Make `n` bytes available at `window[pos..]`, or fail with
    /// "truncated {what}" at the offset where the stream ended.
    fn need(&mut self, n: usize, what: &str) -> Result<(), TraceReadError> {
        // Checked here first: nearly every record is already in the window.
        if self.end - self.pos >= n || self.fill(n)? {
            return Ok(());
        }
        Err(berr(
            self.offset + (self.end - self.pos) as u64,
            format!("truncated {what}"),
        ))
    }

    /// Refill until `n` bytes are buffered at `window[pos..]`: carry the
    /// unconsumed tail to the front, grow the window if one item is wider
    /// than it, then read. Reads stop as soon as `n` bytes are there, so a
    /// fault or a byte ceiling surfaces on the item that needs the bytes
    /// past it. Returns false when the stream ends first.
    fn fill(&mut self, n: usize) -> Result<bool, TraceReadError> {
        if self.end - self.pos >= n {
            return Ok(true);
        }
        self.window.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        if self.window.len() < n {
            self.window.resize(n, 0);
        }
        while self.end < n {
            let got = read_some(&mut self.inner, &mut self.window[self.end..])?;
            if got == 0 {
                return Ok(false);
            }
            self.end += got;
        }
        Ok(true)
    }
}

impl<R: Read> Iterator for BinaryStreamReader<R> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().map(|r| r.cloned())
    }
}

/// `read` retrying on `Interrupted`.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TraceReadError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceReadError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::opcodes;
    use crate::writer;

    fn sample_records(ctx: &AnalysisCtx) -> Vec<Record> {
        let mut recs = Vec::new();
        for i in 0..50u64 {
            recs.push(Record {
                src_line: if i % 7 == 0 { -1 } else { i as i32 },
                func: ctx.intern(if i % 3 == 0 { "main" } else { "foo" }),
                bb: (i as u32 % 9, 1),
                bb_label: ctx.intern("11"),
                opcode: if i % 2 == 0 {
                    opcodes::LOAD
                } else {
                    opcodes::CALL
                },
                dyn_id: i,
                operands: vec![
                    Operand::reg(OpTag::Pos(1), 64, TraceValue::Ptr(0x1000 + i * 8), {
                        let _g = ctx.enter();
                        Name::sym("p")
                    }),
                    Operand::imm(OpTag::Pos(2), 32, TraceValue::I(i as i64 - 3)),
                    Operand {
                        tag: OpTag::Param,
                        bits: 64,
                        value: TraceValue::F(0.25 * i as f64),
                        is_reg: true,
                        name: Name::Sym(ctx.intern("q")),
                    },
                ],
                result: (i % 4 != 0).then(|| {
                    Operand::reg(
                        OpTag::Result,
                        64,
                        TraceValue::I(i as i64),
                        Name::Temp(i as u32),
                    )
                }),
            });
        }
        recs
    }

    #[test]
    fn round_trips_through_bytes() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        assert!(is_binary(&bytes));
        let reader = BinaryReader::open(&bytes, &ctx).unwrap();
        assert_eq!(reader.record_count(), recs.len() as u64);
        let back = reader.read_all().unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn round_trips_through_a_fresh_session() {
        // Decoding into a *different* space still resolves to the same
        // strings (ids differ, resolved text matches).
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let other = AnalysisCtx::session();
        let back = BinaryReader::open(&bytes, &other)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(recs.len(), back.len());
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(ctx.resolve(a.func), other.resolve(b.func));
            assert_eq!(ctx.resolve(a.bb_label), other.resolve(b.bb_label));
            assert_eq!(a.dyn_id, b.dyn_id);
        }
    }

    #[test]
    fn streaming_reader_matches_zero_copy() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let streamed: Vec<Record> = BinaryStreamReader::open(&bytes[..], &ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(recs, streamed);
    }

    #[test]
    fn parallel_decode_matches_serial() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        for threads in [1, 2, 3, 7] {
            let par = BinaryReader::open(&bytes, &ctx)
                .unwrap()
                .read_all_parallel(threads)
                .unwrap();
            assert_eq!(recs, par, "threads = {threads}");
        }
    }

    #[test]
    fn symbols_intern_exactly_once_at_open() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let fresh = AnalysisCtx::session();
        let reader = BinaryReader::open(&bytes, &fresh).unwrap();
        // Only the file's distinct symbols: main, foo, "11", p, q.
        assert_eq!(reader.symbols().len(), 5);
        assert_eq!(fresh.space().len(), 5);
        let _ = reader.read_all().unwrap();
        // Decoding interned nothing further.
        assert_eq!(fresh.space().len(), 5);
    }

    #[test]
    fn floats_are_bit_exact() {
        // The textual format prints floats lossily (`%.6f`); the binary
        // format must not.
        let ctx = AnalysisCtx::session();
        let v = 1.000000001234_f64;
        let rec = Record {
            src_line: 1,
            func: ctx.intern("main"),
            bb: (1, 1),
            bb_label: ctx.intern("0"),
            opcode: opcodes::FADD,
            dyn_id: 0,
            operands: vec![Operand::imm(OpTag::Pos(1), 64, TraceValue::F(v))],
            result: None,
        };
        let bytes = to_bytes(std::slice::from_ref(&rec), &ctx);
        let back = BinaryReader::open(&bytes, &ctx)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(back[0].operands[0].value, TraceValue::F(v));
    }

    #[test]
    fn text_and_binary_decode_identically() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let text = {
            let _g = ctx.enter();
            writer::to_string(&recs)
        };
        let bytes = to_bytes(&recs, &ctx);
        let from_text = crate::parser::parse_str_core(&text, &ctx).unwrap();
        let from_bin = BinaryReader::open(&bytes, &ctx)
            .unwrap()
            .read_all()
            .unwrap();
        // Floats in this sample are representable in %.6f, so even the
        // lossy text path agrees.
        assert_eq!(from_text, from_bin);
    }

    #[test]
    fn empty_trace_round_trips() {
        let ctx = AnalysisCtx::session();
        let bytes = to_bytes(&[], &ctx);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let back = BinaryReader::open(&bytes, &ctx)
            .unwrap()
            .read_all()
            .unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let ctx = AnalysisCtx::session();
        let good = to_bytes(&sample_records(&ctx), &ctx);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'0';
        assert!(BinaryReader::open(&bad_magic, &ctx).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let e = BinaryReader::open(&bad_version, &ctx)
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("version"));

        for cut in [0, 3, HEADER_BYTES - 1, good.len() - 1, good.len() - 20] {
            let r = BinaryReader::open(&good[..cut], &ctx).and_then(|r| r.read_all());
            assert!(r.is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let ctx = AnalysisCtx::session();
        let mut bytes = to_bytes(&sample_records(&ctx), &ctx);
        bytes.extend_from_slice(b"junk");
        let e = BinaryReader::open(&bytes, &ctx)
            .and_then(|r| r.read_all())
            .unwrap_err();
        assert!(e.to_string().contains("trailing"));
        let e = BinaryStreamReader::open(&bytes[..], &ctx)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }

    #[test]
    fn hostile_string_count_cannot_over_allocate() {
        // Header claims u32::MAX strings in a tiny table: the count/length
        // cross-check fires before any count-derived allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        let ctx = AnalysisCtx::session().untrusted();
        let e = BinaryReader::open(&bytes, &ctx).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("string count"));
        let e = BinaryStreamReader::open(&bytes[..], &ctx)
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("string count"));
    }

    #[test]
    fn writer_counters_track_output() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let mut w = BinaryWriter::with_ctx(Vec::new(), &ctx);
        for r in &recs {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), recs.len() as u64);
        let predicted = w.bytes_written();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len() as u64, predicted);
    }

    /// A version-2 file: `records` plus an iteration-index footer holding
    /// `bounds`, laid out as the earlier footer-writing release did.
    fn to_bytes_with_footer(records: &[Record], bounds: &[u64], ctx: &AnalysisCtx) -> Vec<u8> {
        let mut bytes = to_bytes(records, ctx);
        bytes[4..6].copy_from_slice(&VERSION_INDEXED.to_le_bytes());
        bytes.extend_from_slice(&encode_footer(bounds));
        bytes
    }

    /// Every reader decodes a footered file to exactly the records of its
    /// footerless twin.
    fn assert_every_reader_decodes(bytes: &[u8], recs: &[Record], ctx: &AnalysisCtx) {
        let reader = BinaryReader::open(bytes, ctx).unwrap();
        assert_eq!(reader.read_all().unwrap(), recs);
        // Parallel decode ends at the footer, not the file end.
        let par = BinaryReader::open(bytes, ctx)
            .unwrap()
            .read_all_parallel(3)
            .unwrap();
        assert_eq!(par, recs);
        // Streaming reader consumes and validates the footer, then EOF.
        let streamed: Vec<Record> = BinaryStreamReader::open(bytes, ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, recs);
    }

    #[test]
    fn iteration_index_round_trips_on_every_reader() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bounds = vec![7u64, 19, 23, 41];
        let bytes = to_bytes_with_footer(&recs, &bounds, &ctx);
        let (parsed, footer_len) =
            parse_footer_tail(&bytes, HEADER_BYTES, recs.len() as u64).unwrap();
        assert_eq!(parsed, bounds);
        assert_eq!(footer_len, INDEX_FRAME_BYTES + bounds.len() * 8);
        assert_every_reader_decodes(&bytes, &recs, &ctx);
    }

    #[test]
    fn version1_files_carry_no_index_and_stay_byte_identical() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        assert!(!bytes.ends_with(&INDEX_MAGIC));
        // The footered twin is the same bytes plus version and footer.
        let v2 = to_bytes_with_footer(&recs, &[7], &ctx);
        assert_eq!(bytes[6..], v2[6..bytes.len()]);
    }

    #[test]
    fn empty_iteration_index_is_valid() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes_with_footer(&recs, &[], &ctx);
        assert_eq!(
            parse_footer_tail(&bytes, HEADER_BYTES, recs.len() as u64)
                .unwrap()
                .0,
            Vec::<u64>::new()
        );
        assert_every_reader_decodes(&bytes, &recs, &ctx);
    }

    #[test]
    fn invalid_iteration_indices_are_rejected_by_both_readers() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        for bad in [vec![5u64, 5], vec![9, 3], vec![0], vec![recs.len() as u64]] {
            let bytes = to_bytes_with_footer(&recs, &bad, &ctx);
            assert!(
                BinaryReader::open(&bytes, &ctx).is_err(),
                "zero-copy reader must reject index {bad:?}"
            );
            assert!(
                BinaryStreamReader::open(&bytes[..], &ctx)
                    .and_then(|r| r.collect::<Result<Vec<_>, _>>())
                    .is_err(),
                "streaming reader must reject index {bad:?}"
            );
        }
    }

    #[test]
    fn hostile_footers_are_rejected_by_both_readers() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let good = to_bytes_with_footer(&recs, &[7, 19], &ctx);
        let footer_start = good.len() - (INDEX_FRAME_BYTES + 2 * 8);

        let mut bad_magic = good.clone();
        bad_magic[footer_start] ^= 0xFF;
        let mut bad_tail_magic = good.clone();
        let n = bad_tail_magic.len();
        bad_tail_magic[n - 1] ^= 0xFF;
        let mut count_mismatch = good.clone();
        count_mismatch[footer_start + 4] = 1;
        let mut not_increasing = good.clone();
        // Overwrite the second boundary with the first.
        not_increasing[footer_start + 16..footer_start + 24].copy_from_slice(&7u64.to_le_bytes());
        let mut out_of_range = good.clone();
        out_of_range[footer_start + 16..footer_start + 24]
            .copy_from_slice(&(recs.len() as u64).to_le_bytes());
        // A count claiming more entries than the file holds.
        let mut count_overrun = good.clone();
        let n = count_overrun.len();
        count_overrun[n - 8..n - 4].copy_from_slice(&u32::MAX.to_le_bytes());

        for (what, bytes) in [
            ("bad header magic", &bad_magic),
            ("bad trailer magic", &bad_tail_magic),
            ("count mismatch", &count_mismatch),
            ("not increasing", &not_increasing),
            ("out of range", &out_of_range),
            ("count overrun", &count_overrun),
        ] {
            let ctx = AnalysisCtx::session().untrusted();
            assert!(
                BinaryReader::open(bytes, &ctx)
                    .and_then(|r| r.read_all())
                    .is_err(),
                "zero-copy reader must reject: {what}"
            );
            assert!(
                BinaryStreamReader::open(&bytes[..], &ctx)
                    .and_then(|r| r.collect::<Result<Vec<_>, _>>())
                    .is_err(),
                "streaming reader must reject: {what}"
            );
        }
    }

    #[test]
    fn file_size_is_exactly_the_documented_layout() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let strtab: usize = ["main", "foo", "11", "p", "q"]
            .iter()
            .map(|s| 2 + s.len())
            .sum();
        let entries: usize = recs
            .iter()
            .map(|r| r.operands.len() + r.result.is_some() as usize)
            .sum();
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + strtab + recs.len() * RECORD_BYTES + entries * OPERAND_BYTES
        );
    }

    /// Records of 0–39 operands, with one of `wide` operands (wider than
    /// the stream window) at `wide_at`: cuts land on every kind of offset.
    fn varied_records(ctx: &AnalysisCtx, n: usize, wide_at: usize, wide: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let ops = if i == wide_at { wide } else { i * 7 % 40 };
                Record {
                    src_line: i as i32,
                    func: ctx.intern(if i % 3 == 0 { "main" } else { "foo" }),
                    bb: (i as u32 % 9, 1),
                    bb_label: ctx.intern("7"),
                    opcode: opcodes::ADD,
                    dyn_id: i as u64,
                    operands: (0..ops)
                        .map(|k| {
                            Operand::imm(OpTag::Pos(k as u8 % 200 + 1), 64, TraceValue::I(k as i64))
                        })
                        .collect(),
                    result: (i % 2 == 0).then(|| {
                        Operand::reg(OpTag::Result, 64, TraceValue::I(i as i64), Name::Temp(1))
                    }),
                }
            })
            .collect()
    }

    /// Byte offset where each record ends, given where the first starts.
    fn record_ends(recs: &[Record], start: usize) -> Vec<usize> {
        recs.iter()
            .scan(start, |at, r| {
                *at +=
                    RECORD_BYTES + (r.operands.len() + r.result.is_some() as usize) * OPERAND_BYTES;
                Some(*at)
            })
            .collect()
    }

    /// Stream `bytes` through `next_record`, checking each lent record
    /// against `expect`: how many came before the first error, and that
    /// error.
    fn stream_until_error(
        bytes: &[u8],
        ctx: &AnalysisCtx,
        expect: &[Record],
    ) -> (usize, Option<TraceReadError>) {
        let mut stream = crate::TraceSource::from_reader(bytes)
            .ctx(ctx)
            .stream()
            .unwrap();
        let mut n = 0;
        while let Some(item) = stream.next_record() {
            match item {
                Ok(r) => {
                    assert_eq!(Some(r), expect.get(n), "record {n}");
                    n += 1;
                }
                Err(e) => {
                    assert!(stream.next_record().is_none(), "the stream fuses");
                    return (n, Some(e));
                }
            }
        }
        (n, None)
    }

    #[test]
    fn windowed_stream_truncation_sweep() {
        // A trace over two windows long, with one record wider than a
        // window, cut at every record boundary and one byte either side,
        // around both 64 KiB edges, and (version 2) all through the
        // footer. Each cut yields exactly the whole records before it,
        // then one typed error at the cut naming what was cut short.
        let ctx = AnalysisCtx::session();
        let recs = varied_records(&ctx, 300, 120, 4_000);
        let v1 = to_bytes(&recs, &ctx);
        let v2 = to_bytes_with_footer(&recs, &[100, 250], &ctx);
        let body_start = v1.len() - record_ends(&recs, 0).last().unwrap();
        let ends = record_ends(&recs, body_start);
        let start_of = |k: usize| if k == 0 { body_start } else { ends[k - 1] };
        assert!(v1.len() > 2 * WINDOW_BYTES + 4_096);
        assert!(ends[120] - start_of(120) > WINDOW_BYTES);

        let (n, err) = stream_until_error(&v1, &ctx, &recs);
        assert!(err.is_none());
        assert_eq!(n, recs.len(), "the wide record round-trips");

        let cuts: Vec<usize> = ends[..ends.len() - 1]
            .iter()
            .flat_map(|&e| [e - 1, e, e + 1])
            .chain([body_start, body_start + 1])
            .chain(WINDOW_BYTES - 3..WINDOW_BYTES + 3)
            .chain(2 * WINDOW_BYTES - 3..2 * WINDOW_BYTES + 3)
            .chain([v1.len() - 1])
            .collect();
        let footer_cuts = v1.len()..v2.len();
        for (bytes, cuts) in [
            (&v1, cuts.clone()),
            (&v2, cuts.into_iter().chain(footer_cuts).collect()),
        ] {
            for &cut in &cuts {
                let (got, err) = stream_until_error(&bytes[..cut], &ctx, &recs);
                let whole = ends.iter().take_while(|&&e| e <= cut).count();
                let expected = if whole == recs.len() {
                    let into = cut - v1.len();
                    if into < 8 {
                        "truncated index header"
                    } else if into < 8 + 2 * 8 {
                        "truncated index entry"
                    } else {
                        "truncated index trailer"
                    }
                } else if cut - start_of(whole) < RECORD_BYTES {
                    "truncated record header"
                } else {
                    "truncated operand entries"
                };
                assert_eq!(got, whole, "cut {cut}: the whole-record prefix");
                match err {
                    Some(TraceReadError::Binary(e)) => {
                        assert_eq!(e.message, expected, "cut {cut}");
                        assert_eq!(e.offset, cut as u64, "cut {cut}");
                    }
                    other => panic!("cut {cut}: expected a binary error, got {other:?}"),
                }
            }
        }
    }
}
