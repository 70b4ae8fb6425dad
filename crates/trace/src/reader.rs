//! Pull-based streaming trace reading from any [`io::Read`].
//!
//! The batch pipeline requires the whole trace as one in-memory `String`
//! before parsing can begin. [`RecordReader`] removes that requirement: it
//! reads fixed-size byte chunks into a bounded carry buffer, splits them at
//! line boundaries, and feeds complete lines through the incremental
//! [`TraceParser`] — yielding records one at a time. Peak memory is the
//! chunk size plus one partial line plus the records completed by the
//! current chunk, regardless of trace length.

use crate::ctx::AnalysisCtx;
use crate::parser::{ParseError, TraceParser};
use crate::record::Record;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};

/// Default read-chunk size (bytes).
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// A failure while streaming records from a reader: the underlying I/O
/// failed, the trace text did not parse, a binary trace was malformed, or
/// the session crossed one of its [`ResourceLimits`](crate::ResourceLimits).
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The trace text is malformed.
    Parse(ParseError),
    /// The binary trace is malformed.
    Binary(crate::binary::BinaryError),
    /// The session crossed a configured resource ceiling.
    Resource(crate::limits::ResourceExceeded),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read error: {e}"),
            TraceReadError::Parse(e) => write!(f, "{e}"),
            TraceReadError::Binary(e) => write!(f, "{e}"),
            TraceReadError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse(e) => Some(e),
            TraceReadError::Binary(e) => Some(e),
            TraceReadError::Resource(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

impl From<ParseError> for TraceReadError {
    fn from(e: ParseError) -> Self {
        TraceReadError::Parse(e)
    }
}

impl From<crate::binary::BinaryError> for TraceReadError {
    fn from(e: crate::binary::BinaryError) -> Self {
        TraceReadError::Binary(e)
    }
}

impl From<crate::limits::ResourceExceeded> for TraceReadError {
    fn from(e: crate::limits::ResourceExceeded) -> Self {
        TraceReadError::Resource(e)
    }
}

/// Streaming record iterator over any [`Read`] with bounded buffering.
pub struct RecordReader<R: Read> {
    inner: R,
    parser: TraceParser,
    /// Bytes read but not yet consumed (at most one partial line after each
    /// refill).
    carry: Vec<u8>,
    chunk: usize,
    ready: VecDeque<Record>,
    /// Lines already fed to the parser, so a UTF-8 failure can be reported
    /// at its absolute line like any parse error.
    lines_fed: u64,
    eof: bool,
    failed: bool,
}

impl<R: Read> RecordReader<R> {
    /// Stream records from `inner` with the default chunk size.
    pub fn new(inner: R) -> RecordReader<R> {
        RecordReader::with_chunk_size(inner, DEFAULT_CHUNK_BYTES)
    }

    /// Stream records from `inner`, interning symbols into `ctx`'s space.
    pub fn with_ctx(inner: R, ctx: &AnalysisCtx) -> RecordReader<R> {
        let mut r = RecordReader::with_chunk_size(inner, DEFAULT_CHUNK_BYTES);
        r.parser = TraceParser::with_ctx(ctx.clone());
        r
    }

    /// Stream records from `inner`, reading `chunk` bytes at a time.
    pub fn with_chunk_size(inner: R, chunk: usize) -> RecordReader<R> {
        RecordReader {
            inner,
            parser: TraceParser::new(),
            carry: Vec::new(),
            chunk: chunk.max(1),
            ready: VecDeque::new(),
            lines_fed: 0,
            eof: false,
            failed: false,
        }
    }

    /// Validate one line's bytes, rebasing a UTF-8 failure onto the stream.
    fn line_str<'a>(&self, raw: &'a [u8]) -> Result<&'a str, ParseError> {
        utf8_text(raw).map_err(|mut e| {
            e.line += self.lines_fed;
            e
        })
    }

    /// Read one more chunk and feed every complete line through the parser.
    fn refill(&mut self) -> Result<(), TraceReadError> {
        let start = self.carry.len();
        self.carry.resize(start + self.chunk, 0);
        let n = self.inner.read(&mut self.carry[start..])?;
        self.carry.truncate(start + n);
        if n == 0 {
            self.eof = true;
            // Flush: the carry holds at most one final unterminated line.
            let tail = std::mem::take(&mut self.carry);
            if !tail.is_empty() {
                let line = self.line_str(&tail)?;
                self.lines_fed += 1;
                if let Some(rec) = self.parser.feed_line(line)? {
                    self.ready.push_back(rec);
                }
            }
            if let Some(rec) = self.parser.finish() {
                self.ready.push_back(rec);
            }
            return Ok(());
        }
        // Consume every complete line; keep the trailing partial line.
        let Some(last_nl) = self.carry.iter().rposition(|&b| b == b'\n') else {
            return Ok(());
        };
        let rest = self.carry.split_off(last_nl + 1);
        let complete = std::mem::replace(&mut self.carry, rest);
        // `complete` ends with '\n'; strip it before splitting so the line
        // sequence (including interior blank lines) matches `str::lines`,
        // keeping parse-error line numbers identical to the batch parser.
        for raw in complete[..complete.len() - 1].split(|&b| b == b'\n') {
            let line = self.line_str(raw)?;
            self.lines_fed += 1;
            if let Some(rec) = self.parser.feed_line(line)? {
                self.ready.push_back(rec);
            }
        }
        Ok(())
    }
}

/// Shared UTF-8 gate for streamed trace bytes — one copy of the error
/// contract for both the serial [`RecordReader`] and the parallel windowed
/// reader. The error's line number is the 1-based line of the first invalid
/// byte *within `raw`*; callers add the lines already consumed before `raw`
/// to keep the number absolute.
pub(crate) fn utf8_text(raw: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(raw).map_err(|e| ParseError {
        line: raw[..e.valid_up_to()]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64
            + 1,
        message: "trace is not valid UTF-8".into(),
    })
}

impl<R: Read> Iterator for RecordReader<R> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(rec) = self.ready.pop_front() {
                return Some(Ok(rec));
            }
            if self.eof {
                return None;
            }
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_str_core;
    use crate::record::{opcodes, OpTag, Operand, TraceValue};
    use crate::{writer, AnalysisCtx, Name, SymId};

    // Test shorthands for the current-space entry points.
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        parse_str_core(input, &AnalysisCtx::current())
    }

    fn parse_read<R: Read>(reader: R) -> Result<Vec<Record>, TraceReadError> {
        RecordReader::new(reader).collect()
    }

    fn synth_trace(blocks: usize) -> String {
        let mut recs = Vec::with_capacity(blocks);
        for i in 0..blocks {
            recs.push(Record {
                src_line: (i % 90 + 1) as i32,
                func: SymId::intern(if i % 3 == 0 { "main" } else { "foo" }),
                bb: (1, 1),
                bb_label: SymId::intern("0"),
                opcode: if i % 2 == 0 {
                    opcodes::LOAD
                } else {
                    opcodes::MUL
                },
                dyn_id: i as u64,
                operands: vec![Operand::reg(
                    OpTag::Pos(1),
                    64,
                    TraceValue::Ptr(0x1000 + i as u64 * 8),
                    Name::sym("p"),
                )],
                result: Some(Operand::reg(
                    OpTag::Result,
                    64,
                    TraceValue::I(i as i64),
                    Name::Temp(i as u32),
                )),
            });
        }
        writer::to_string(&recs)
    }

    #[test]
    fn reader_equals_parse_str_at_every_chunk_size() {
        let text = synth_trace(200);
        let whole = parse_str(&text).unwrap();
        for chunk in [1, 7, 64, 4096, 1 << 20] {
            let streamed: Vec<Record> = RecordReader::with_chunk_size(text.as_bytes(), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(whole, streamed, "chunk = {chunk}");
        }
    }

    #[test]
    fn unterminated_final_line_is_parsed() {
        let mut text = synth_trace(3);
        text.pop(); // drop the final newline
        let streamed = parse_read(text.as_bytes()).unwrap();
        assert_eq!(streamed, parse_str(&text).unwrap());
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn crlf_traces_match_the_batch_parser() {
        // The reader splits on raw b'\n' and hands the parser lines with a
        // trailing '\r'; feed_line trims both, so CRLF files must parse
        // identically to LF files in every mode (batch uses str::lines,
        // which strips the '\r' itself).
        let lf = synth_trace(20);
        let crlf = lf.replace('\n', "\r\n");
        let want = parse_str(&lf).unwrap();
        assert_eq!(parse_str(&crlf).unwrap(), want);
        for chunk in [1, 7, 4096] {
            let streamed: Vec<Record> = RecordReader::with_chunk_size(crlf.as_bytes(), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(streamed, want, "chunk = {chunk}");
        }
        // EOF-flush path: final CRLF line without its '\n'.
        let mut cut = crlf.clone();
        cut.pop();
        assert_eq!(parse_read(cut.as_bytes()).unwrap(), want);
    }

    #[test]
    fn parse_errors_surface_once_then_stop() {
        let mut text = synth_trace(5);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let mut reader = RecordReader::new(text.as_bytes());
        let mut seen_err = false;
        let mut after_err = 0;
        for item in &mut reader {
            match item {
                Ok(_) => {
                    assert!(!seen_err);
                }
                Err(TraceReadError::Parse(e)) => {
                    assert!(e.message.contains("src line"));
                    seen_err = true;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
            if seen_err {
                after_err += 1;
            }
        }
        assert!(seen_err);
        assert_eq!(after_err, 1, "iterator fuses after the error");
    }

    #[test]
    fn empty_reader_is_empty_trace() {
        assert_eq!(parse_read(&b""[..]).unwrap(), vec![]);
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_the_right_line() {
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n1,64,\xff\xfe,1,p,\n";
        let err = parse_read(bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
        let TraceReadError::Parse(e) = err else {
            panic!("expected a parse error");
        };
        assert_eq!(e.line, 2, "the invalid byte sits on line 2");
    }

    #[test]
    fn io_errors_propagate() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let err = parse_read(Failing).unwrap_err();
        assert!(matches!(err, TraceReadError::Io(_)));
        assert!(err.to_string().contains("disk on fire"));
    }
}
