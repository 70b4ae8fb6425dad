//! Streaming parser for the textual trace format.
//!
//! The parser is written for throughput: it works line-by-line over borrowed
//! bytes, splits fields manually (no regex), and interns every symbol
//! (function names, block labels, operand names) through its
//! [`AnalysisCtx`]'s [`SymbolSpace`](crate::SymbolSpace) — the default
//! ctx's global space unless the parser was built for a session — so the
//! canonical allocation per distinct symbol happens once per space, not
//! (as the old per-parser interner did) twice per symbol for a separate
//! `String` key and `Arc<str>` value.
//!
//! The space's table sits behind a lock, so each parser keeps a private
//! *memo* (`str → SymId`): symbols repeat millions of times in real traces,
//! and the memo turns all repeat lookups into a private hash probe —
//! parallel-parse workers touch the shared table only on first sight of a
//! symbol, which is what keeps parallel parsing off the space's lock.

use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Incremental trace parser. Feed it lines; finished records come out.
pub struct TraceParser {
    /// The session this parser interns into (default: the thread's
    /// current space — the global one unless a session guard is live).
    ctx: AnalysisCtx,
    /// Parser-private memo onto the ctx's space (see module docs). Keyed by
    /// the refcounted [`SymStr`] the space hands back, so the memo shares
    /// the space's allocation per symbol instead of copying. SipHash (std
    /// default), not FxHash: these are untrusted strings straight from the
    /// trace, the same reason the space's table avoids Fx (see `intern.rs`).
    memo: HashMap<SymStr, SymId>,
    current: Option<Record>,
    line_no: u64,
}

impl Default for TraceParser {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceParser {
    /// A fresh parser interning into the thread's current space.
    pub fn new() -> Self {
        Self::with_ctx(AnalysisCtx::current())
    }

    /// A parser interning into `ctx`'s symbol space.
    pub fn with_ctx(ctx: AnalysisCtx) -> Self {
        TraceParser {
            ctx,
            memo: HashMap::new(),
            current: None,
            line_no: 0,
        }
    }

    /// Intern through the memo: repeat symbols never touch the space lock.
    fn intern(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.memo.get(s) {
            return id;
        }
        let id = self.ctx.intern(s);
        self.memo.insert(self.ctx.resolve(id), id);
        id
    }

    /// Like [`Name::parse`], but interning through the parser's memo.
    fn parse_name(&mut self, s: &str) -> Name {
        if s.is_empty() || s == " " {
            Name::None
        } else if s.bytes().all(|b| b.is_ascii_digit()) {
            match s.parse::<u32>() {
                Ok(n) => Name::Temp(n),
                Err(_) => Name::Sym(self.intern(s)),
            }
        } else {
            Name::Sym(self.intern(s))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Feed one line. Returns a completed record when the line *starts a new
    /// block* and a previous block was in flight.
    pub fn feed_line(&mut self, line: &str) -> Result<Option<Record>, ParseError> {
        self.line_no += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            return Ok(None);
        }
        let mut fields = FieldIter::new(line);
        let tag = fields.next().ok_or_else(|| self.err("empty line"))?;
        if tag == "0" {
            let done = self.current.take();
            let rec = self.parse_header(&mut fields)?;
            self.current = Some(rec);
            Ok(done)
        } else {
            let op = self.parse_operand(tag, &mut fields)?;
            if self.current.is_none() {
                return Err(self.err("operand line before any header"));
            }
            if op.tag == OpTag::Result && self.current.as_ref().is_some_and(|c| c.result.is_some())
            {
                return Err(self.err("duplicate result line"));
            }
            // The is_none check above returned already, so a record is in
            // flight — no unwrap on the hostile-input path.
            if let Some(current) = self.current.as_mut() {
                if op.tag == OpTag::Result {
                    current.result = Some(op);
                } else {
                    current.operands.push(op);
                }
            }
            Ok(None)
        }
    }

    /// Flush the final in-flight record at end of input.
    pub fn finish(&mut self) -> Option<Record> {
        self.current.take()
    }

    fn parse_header(&mut self, fields: &mut FieldIter<'_>) -> Result<Record, ParseError> {
        let src_line: i32 = self.take_parse(fields, "src line")?;
        let func = {
            let f = fields.next().ok_or_else(|| self.err("missing function"))?;
            self.intern(f)
        };
        let bb_str = fields.next().ok_or_else(|| self.err("missing bb id"))?;
        let bb = {
            let (l, c) = bb_str
                .split_once(':')
                .ok_or_else(|| self.err(format!("malformed bb id `{bb_str}`")))?;
            (
                l.parse::<u32>()
                    .map_err(|_| self.err(format!("bad bb line `{l}`")))?,
                c.parse::<u32>()
                    .map_err(|_| self.err(format!("bad bb col `{c}`")))?,
            )
        };
        let bb_label = {
            let l = fields.next().ok_or_else(|| self.err("missing bb label"))?;
            self.intern(l)
        };
        let opcode: u16 = self.take_parse(fields, "opcode")?;
        let dyn_id: u64 = self.take_parse(fields, "dyn id")?;
        Ok(Record {
            src_line,
            func,
            bb,
            bb_label,
            opcode,
            dyn_id,
            operands: Vec::new(),
            result: None,
        })
    }

    fn take_parse<T: std::str::FromStr>(
        &self,
        fields: &mut FieldIter<'_>,
        what: &str,
    ) -> Result<T, ParseError> {
        let f = fields
            .next()
            .ok_or_else(|| self.err(format!("missing {what}")))?;
        f.parse::<T>()
            .map_err(|_| self.err(format!("bad {what} `{f}`")))
    }

    fn parse_operand(
        &mut self,
        tag: &str,
        fields: &mut FieldIter<'_>,
    ) -> Result<Operand, ParseError> {
        let tag = match tag {
            "r" => OpTag::Result,
            "f" => OpTag::Param,
            d => {
                let i: u8 = d
                    .parse()
                    .map_err(|_| self.err(format!("bad operand tag `{d}`")))?;
                if i == 0 {
                    return Err(self.err("operand id 0 is reserved for headers"));
                }
                OpTag::Pos(i)
            }
        };
        let bits: u16 = self.take_parse(fields, "operand bits")?;
        let value_str = fields
            .next()
            .ok_or_else(|| self.err("missing operand value"))?;
        let value = parse_value(value_str)
            .ok_or_else(|| self.err(format!("bad operand value `{value_str}`")))?;
        let is_reg_str = fields.next().ok_or_else(|| self.err("missing is_reg"))?;
        let is_reg = match is_reg_str {
            "1" => true,
            "0" => false,
            other => return Err(self.err(format!("bad is_reg `{other}`"))),
        };
        let name = self.parse_name(fields.next().unwrap_or(""));
        Ok(Operand {
            tag,
            bits,
            value,
            is_reg,
            name,
        })
    }
}

/// Parse an operand value field.
pub fn parse_value(s: &str) -> Option<TraceValue> {
    if s.is_empty() || s == " " {
        return Some(TraceValue::None);
    }
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok().map(TraceValue::Ptr);
    }
    if s.bytes()
        .all(|b| b.is_ascii_digit() || b == b'-' || b == b'+')
    {
        if let Ok(i) = s.parse::<i64>() {
            return Some(TraceValue::I(i));
        }
    }
    s.parse::<f64>().ok().map(TraceValue::F)
}

/// Iterator over comma-separated fields, ignoring a single trailing comma.
struct FieldIter<'a> {
    rest: &'a str,
}

impl<'a> FieldIter<'a> {
    fn new(s: &'a str) -> Self {
        FieldIter {
            rest: s.strip_suffix(',').unwrap_or(s),
        }
    }
}

impl<'a> Iterator for FieldIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        match self.rest.split_once(',') {
            Some((head, tail)) => {
                self.rest = tail;
                Some(head)
            }
            None => {
                let head = self.rest;
                self.rest = "";
                Some(head)
            }
        }
    }
}

/// The serial in-memory text parse behind [`crate::TraceSource`] and the
/// parallel chunk workers.
pub(crate) fn parse_str_core(input: &str, ctx: &AnalysisCtx) -> Result<Vec<Record>, ParseError> {
    let mut p = TraceParser::with_ctx(ctx.clone());
    let mut out = Vec::new();
    for line in input.lines() {
        if let Some(r) = p.feed_line(line)? {
            out.push(r);
        }
    }
    if let Some(r) = p.finish() {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::opcodes;
    use crate::writer;

    /// Test shorthand for the current-space serial parse.
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        parse_str_core(input, &AnalysisCtx::current())
    }

    const FIG1: &str = "0,3,foo,6:1,11,27,215,\n1,64,0x7ffcf3f25a70,1,p,\nr,32,1,1,8,\n0,3,foo,6:1,12,12,216,\n1,32,2,1,8,\n2,32,2,0,,\nr,32,4,1,9,\n";

    #[test]
    fn parses_fig1_blocks() {
        let recs = parse_str(FIG1).unwrap();
        assert_eq!(recs.len(), 2);
        let load = &recs[0];
        assert_eq!(load.opcode, opcodes::LOAD);
        assert_eq!(load.func.as_str(), "foo");
        assert_eq!(load.bb, (6, 1));
        assert_eq!(load.dyn_id, 215);
        assert_eq!(load.op1().unwrap().name, Name::sym("p"));
        assert_eq!(load.op1().unwrap().value, TraceValue::Ptr(0x7ffcf3f25a70));
        assert_eq!(load.result.as_ref().unwrap().name, Name::Temp(8));

        let mul = &recs[1];
        assert_eq!(mul.opcode, opcodes::MUL);
        assert!(mul.is_arithmetic());
        assert!(!mul.op2().unwrap().is_reg);
        assert_eq!(mul.result.as_ref().unwrap().name, Name::Temp(9));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let recs = parse_str(FIG1).unwrap();
        let text = writer::to_string(&recs);
        let again = parse_str(&text).unwrap();
        assert_eq!(recs, again);
    }

    #[test]
    fn interner_shares_function_names() {
        let recs = parse_str(FIG1).unwrap();
        // Repeated function names intern to the same id — and resolve to
        // literally the same shared allocation.
        assert_eq!(recs[0].func, recs[1].func);
        assert!(std::sync::Arc::ptr_eq(
            &recs[0].func.as_str().into_arc(),
            &recs[1].func.as_str().into_arc()
        ));
    }

    #[test]
    fn rejects_operand_before_header() {
        let err = parse_str("1,64,0x10,1,p,\n").unwrap_err();
        assert!(err.message.contains("before any header"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_garbage_header() {
        let err = parse_str("0,xx,foo,1:1,0,27,1,\n").unwrap_err();
        assert!(err.message.contains("src line"));
    }

    #[test]
    fn rejects_duplicate_result() {
        let input = "0,3,foo,6:1,11,27,215,\nr,32,1,1,8,\nr,32,1,1,9,\n";
        let err = parse_str(input).unwrap_err();
        assert!(err.message.contains("duplicate result"));
    }

    #[test]
    fn value_parsing_variants() {
        assert_eq!(parse_value("42"), Some(TraceValue::I(42)));
        assert_eq!(parse_value("-7"), Some(TraceValue::I(-7)));
        assert_eq!(parse_value("0x10"), Some(TraceValue::Ptr(16)));
        assert_eq!(parse_value("44.000000"), Some(TraceValue::F(44.0)));
        assert_eq!(parse_value(""), Some(TraceValue::None));
        assert_eq!(parse_value(" "), Some(TraceValue::None));
        assert_eq!(parse_value("0xzz"), None);
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert_eq!(parse_str("").unwrap(), vec![]);
        assert_eq!(parse_str("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn call_form2_param_lines() {
        // Paper Fig. 6(b): call with two args + two `f`-tagged params.
        let input = "0,17,main,21:1,49,49,199,\n\
                     1,64,0x7ffec14b0db0,1,6,\n\
                     2,64,0x7ffec14b0d80,1,7,\n\
                     f,64,0x7ffec14b0db0,1,p,\n\
                     f,64,0x7ffec14b0d80,1,q,\n";
        let recs = parse_str(input).unwrap();
        assert_eq!(recs.len(), 1);
        let call = &recs[0];
        assert_eq!(call.opcode, opcodes::CALL);
        assert_eq!(call.positional().count(), 2);
        let params: Vec<_> = call.params().collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, Name::sym("p"));
        assert_eq!(params[1].name, Name::sym("q"));
    }
}
