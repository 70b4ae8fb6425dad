//! Parallel trace parsing — the reproduction of the paper's §V-A
//! "Trace analysis optimization".
//!
//! The paper parallelizes trace-file pre-processing with OpenMP: the master
//! thread partitions the input into block-aligned sub-streams and worker
//! threads parse them concurrently (48 threads, ≈16× average speedup in the
//! paper's evaluation). We reproduce the same structure with `std::thread`
//! scoped threads: [`crate::chunk::chunk_boundaries`]
//! plays the master's role, and each worker runs an independent
//! [`TraceParser`](crate::parser::TraceParser) over its chunk. Results are
//! concatenated in chunk order, which preserves global record order because
//! chunks are contiguous and non-overlapping.

use crate::chunk::chunk_boundaries;
use crate::ctx::AnalysisCtx;
use crate::parser::{parse_str_core, ParseError};
use crate::reader::TraceReadError;
use crate::record::Record;
use std::io::Read;

/// Default bounded-lookahead window for windowed reader ingest (bytes).
pub const DEFAULT_WINDOW_BYTES: usize = 8 * 1024 * 1024;

/// Configuration for the parallel reader.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Number of worker threads. `1` degenerates to the serial parser (the
    /// paper's "without optimization" configuration).
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// The bounded-lookahead windowed parallel text parse behind
/// [`crate::TraceSource::records`] for reader inputs: bytes are pulled into
/// a window, the window is cut at the last block-header boundary, and the
/// complete-block prefix is parsed in parallel while the partial tail
/// carries into the next window.
pub(crate) fn parse_windowed_core<R: Read>(
    mut reader: R,
    threads: usize,
    window_bytes: usize,
    ctx: &AnalysisCtx,
) -> Result<Vec<Record>, TraceReadError> {
    let window_bytes = window_bytes.max(64);
    let mut out = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; window_bytes.clamp(4096, 1 << 20)];
    let mut target = window_bytes;
    // `buf[..scanned]` is known to contain no block-header split, so each
    // header search only covers newly read bytes (minus the 2-byte pattern
    // overlap). Without this, a block larger than the window would rescan
    // the whole buffer on every refill — quadratic in the block size.
    let mut scanned = 0usize;
    // Lines already parsed out of earlier windows, so in-window parse-error
    // line numbers can be reported as absolute positions in the stream —
    // matching what the serial `RecordReader` reports for the same trace.
    let mut lines_done = 0u64;
    let mut eof = false;
    loop {
        while buf.len() < target && !eof {
            let n = reader.read(&mut chunk)?;
            if n == 0 {
                eof = true;
            } else {
                buf.extend_from_slice(&chunk[..n]);
            }
        }
        if ctx.metrics().is_enabled() {
            // The resident ingest footprint: the lookahead window plus the
            // read scratch — what path-based ingest holds regardless of
            // trace size (the peak is the RSS-shaped figure the bounded
            // ingest tests pin).
            ctx.metrics().gauge_set(
                autocheck_obs::GaugeId::IngestBufferBytes,
                (buf.capacity() + chunk.capacity()) as u64,
            );
        }
        if eof {
            if !buf.is_empty() {
                let text = window_text(&buf).map_err(|e| offset_lines(e, lines_done))?;
                let recs =
                    parse_chunks(text, threads, ctx).map_err(|e| offset_lines(e, lines_done))?;
                out.extend(recs);
            }
            return Ok(out);
        }
        // Cut at the start of the last block header: everything before it
        // is complete blocks; the tail may continue beyond the window.
        let from = scanned.saturating_sub(2);
        match last_block_header(&buf[from..]).map(|cut| cut + from) {
            Some(cut) if cut > 0 => {
                let text = window_text(&buf[..cut]).map_err(|e| offset_lines(e, lines_done))?;
                let recs =
                    parse_chunks(text, threads, ctx).map_err(|e| offset_lines(e, lines_done))?;
                out.extend(recs);
                lines_done += buf[..cut].iter().filter(|&&b| b == b'\n').count() as u64;
                buf.drain(..cut);
                scanned = 0;
                target = window_bytes;
            }
            _ => {
                // No interior split point yet — keep reading until the next
                // block header shows up.
                scanned = buf.len();
                target = buf.len() + window_bytes;
            }
        }
    }
}

/// Offset just past the last `\n` that is followed by a block header.
fn last_block_header(buf: &[u8]) -> Option<usize> {
    buf.windows(3).rposition(|w| w == b"\n0,").map(|i| i + 1)
}

/// Validate one window's bytes; the error line is window-relative (the
/// caller rebases it with [`offset_lines`]).
fn window_text(buf: &[u8]) -> Result<&str, ParseError> {
    crate::reader::utf8_text(buf)
}

/// Rebase a window-relative parse error onto the whole stream.
fn offset_lines(mut e: ParseError, lines_before: u64) -> TraceReadError {
    e.line += lines_before;
    TraceReadError::Parse(e)
}

/// The shared block-aligned parallel parse over in-memory text (the engine
/// behind [`crate::TraceSource::records`] for textual inputs).
pub(crate) fn parse_chunks(
    input: &str,
    threads: usize,
    ctx: &AnalysisCtx,
) -> Result<Vec<Record>, ParseError> {
    let threads = threads.max(1);
    if threads == 1 {
        return parse_str_core(input, ctx);
    }
    // Over-decompose: many more chunks than workers, pulled from a shared
    // queue. A static one-chunk-per-thread split would let one slow or
    // throttled core hold the whole parse hostage; fine-grained chunks keep
    // every worker busy until the end (the same reason the paper's OpenMP
    // reader uses many sub-file-streams).
    let ranges = chunk_boundaries(input.as_bytes(), threads * 8);
    if ranges.len() == 1 {
        return parse_str_core(input, ctx);
    }
    // Each worker claims chunk indices from the shared counter and returns
    // its own (index, result) pairs; the join puts them back in chunk order.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut parts: Vec<(usize, Result<Vec<Record>, ParseError>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(ranges.len()))
            .map(|_| {
                let (ranges, next) = (&ranges, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= ranges.len() {
                            return mine;
                        }
                        mine.push((i, parse_str_core(&input[ranges[i].clone()], ctx)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    parts.sort_unstable_by_key(|&(i, _)| i);

    let mut out = Vec::new();
    for (i, part) in parts {
        match part {
            Ok(recs) => out.extend(recs),
            Err(mut e) => {
                // Workers parse their chunk with a fresh parser, so the
                // error line is chunk-relative; rebase it onto the input
                // (error path only — the scan is never paid on success).
                let before = input.as_bytes()[..ranges[i].start]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count() as u64;
                e.line += before;
                return Err(e);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::SymId;
    use crate::name::Name;
    use crate::parser::parse_str_core;
    use crate::record::{opcodes, OpTag, Operand, TraceValue};
    use crate::writer;

    // Test shorthands for the current-space entry points.
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        parse_str_core(input, &AnalysisCtx::current())
    }

    fn parse_parallel(input: &str, cfg: ParallelConfig) -> Result<Vec<Record>, ParseError> {
        parse_chunks(input, cfg.threads, &AnalysisCtx::current())
    }

    fn parse_parallel_read<R: Read>(
        reader: R,
        cfg: ParallelConfig,
    ) -> Result<Vec<Record>, TraceReadError> {
        parse_windowed_core(
            reader,
            cfg.threads,
            DEFAULT_WINDOW_BYTES,
            &AnalysisCtx::current(),
        )
    }

    fn parse_parallel_read_with_window<R: Read>(
        reader: R,
        cfg: ParallelConfig,
        window_bytes: usize,
    ) -> Result<Vec<Record>, TraceReadError> {
        parse_windowed_core(reader, cfg.threads, window_bytes, &AnalysisCtx::current())
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
    fn parallel_equals_serial() {
        let text = synth_trace(1000);
        let serial = parse_str(&text).unwrap();
        for threads in [2, 3, 4, 7] {
            let par = parse_parallel(&text, ParallelConfig { threads }).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn single_thread_matches_serial_path() {
        let text = synth_trace(10);
        assert_eq!(
            parse_parallel(&text, ParallelConfig { threads: 1 }).unwrap(),
            parse_str(&text).unwrap()
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let mut text = synth_trace(100);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let err = parse_parallel(&text, ParallelConfig { threads: 4 }).unwrap_err();
        assert!(err.message.contains("src line"));
    }

    #[test]
    fn order_is_preserved() {
        let text = synth_trace(500);
        let par = parse_parallel(&text, ParallelConfig { threads: 5 }).unwrap();
        for (i, r) in par.iter().enumerate() {
            assert_eq!(r.dyn_id, i as u64);
        }
    }

    #[test]
    fn reader_entry_point_equals_serial_at_every_window() {
        let text = synth_trace(400);
        let serial = parse_str(&text).unwrap();
        for window in [64, 100, 1000, 1 << 22] {
            for threads in [1, 4] {
                let par = parse_parallel_read_with_window(
                    text.as_bytes(),
                    ParallelConfig { threads },
                    window,
                )
                .unwrap();
                assert_eq!(serial, par, "window = {window}, threads = {threads}");
            }
        }
    }

    #[test]
    fn reader_entry_point_defaults_work() {
        let text = synth_trace(50);
        let par = parse_parallel_read(text.as_bytes(), ParallelConfig { threads: 3 }).unwrap();
        assert_eq!(par, parse_str(&text).unwrap());
    }

    #[test]
    fn reader_entry_point_propagates_parse_errors() {
        let mut text = synth_trace(100);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let err =
            parse_parallel_read_with_window(text.as_bytes(), ParallelConfig { threads: 4 }, 128)
                .unwrap_err();
        assert!(err.to_string().contains("src line"));
    }

    #[test]
    fn parse_error_lines_are_absolute_in_every_entry_point() {
        // The broken line lands well past the first window/chunk, so a
        // window- or chunk-relative count would report a much smaller
        // number than the serial parser does.
        let mut text = synth_trace(100);
        let bad_line = text.lines().count() as u64 + 1;
        text.push_str("0,zz,broken,1:1,0,27,9,\n");

        let serial = parse_str(&text).unwrap_err();
        assert_eq!(serial.line, bad_line);

        let parallel = parse_parallel(&text, ParallelConfig { threads: 4 }).unwrap_err();
        assert_eq!(parallel.line, bad_line);

        let windowed =
            parse_parallel_read_with_window(text.as_bytes(), ParallelConfig { threads: 4 }, 256)
                .unwrap_err();
        let TraceReadError::Parse(windowed) = windowed else {
            panic!("expected a parse error");
        };
        assert_eq!(windowed.line, bad_line);
    }

    #[test]
    fn window_grows_when_one_block_exceeds_it() {
        // A single block with many operand lines, far larger than the
        // 64-byte minimum window: the reader must keep growing its
        // lookahead instead of mis-splitting the block.
        let mut text = String::from("0,3,foo,6:1,11,49,0,\n");
        for i in 0..64 {
            text.push_str(&format!("{},64,{},0,,\n", i + 1, i));
        }
        let recs =
            parse_parallel_read_with_window(text.as_bytes(), ParallelConfig { threads: 2 }, 64)
                .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].positional().count(), 64);
    }
}
