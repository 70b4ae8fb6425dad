//! Property tests for the trace format: serialization round-trips (text and
//! binary), chunking never splits blocks, and parallel parsing equals serial
//! parsing for arbitrary traces.

use autocheck_trace::{
    binary, chunk_boundaries, split_blocks, writer, AnalysisCtx, FaultPlan, Name, OpTag, Operand,
    ParallelConfig, Record, ResourceLimits, SymId, TraceValue,
};
use autocheck_trace::{ParseError, TraceSource};
use proptest::prelude::*;

/// Serial parse through the front door (current/global space, like the
/// `SymId::intern` calls in the generators).
fn parse_str(text: &str) -> Result<Vec<Record>, ParseError> {
    TraceSource::from_str(text).records().map_err(|e| match e {
        autocheck_trace::reader::TraceReadError::Parse(p) => p,
        other => ParseError {
            line: 0,
            message: other.to_string(),
        },
    })
}

fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        any::<u32>().prop_map(Name::Temp),
        "[a-z][a-z0-9_]{0,8}".prop_map(|s| Name::sym(&s)),
        Just(Name::None),
    ]
}

fn arb_value() -> impl Strategy<Value = TraceValue> {
    prop_oneof![
        any::<i64>().prop_map(TraceValue::I),
        any::<u64>().prop_map(TraceValue::Ptr),
        Just(TraceValue::None),
        // Floats are serialized %.6f (lossy, like LLVM-Tracer); restrict to
        // values that survive, so equality round-trips.
        (-1_000_000i32..1_000_000).prop_map(|v| TraceValue::F(v as f64 / 64.0)),
    ]
}

fn arb_operand(tag: OpTag) -> impl Strategy<Value = Operand> {
    (arb_value(), any::<bool>(), arb_name()).prop_map(move |(value, is_reg, name)| Operand {
        tag,
        bits: 64,
        value,
        is_reg,
        name,
    })
}

prop_compose! {
    fn arb_record()(
        src_line in -1i32..500,
        func in "[a-z][a-z0-9_]{0,6}",
        bb in (0u32..100, 0u32..10),
        label in 0u32..64,
        opcode in 1u16..60,
        dyn_id in any::<u64>(),
        n_ops in 0usize..3,
        ops in proptest::collection::vec(arb_operand(OpTag::Pos(1)), 0..3),
        has_result in any::<bool>(),
        res in arb_operand(OpTag::Result),
    ) -> Record {
        let mut operands = Vec::new();
        for (i, mut o) in ops.into_iter().take(n_ops).enumerate() {
            o.tag = OpTag::Pos((i + 1) as u8);
            operands.push(o);
        }
        Record {
            src_line,
            func: SymId::intern(&func),
            bb,
            bb_label: SymId::intern(&label.to_string()),
            opcode,
            dyn_id,
            operands,
            result: if has_result { Some(res) } else { None },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_parse_round_trips(records in proptest::collection::vec(arb_record(), 0..40)) {
        let text = writer::to_string(&records);
        let parsed = parse_str(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn chunks_partition_input_and_start_at_headers(
        records in proptest::collection::vec(arb_record(), 1..60),
        n in 1usize..12,
    ) {
        let text = writer::to_string(&records);
        let ranges = chunk_boundaries(text.as_bytes(), n);
        // Partition: contiguous cover of the whole input.
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, text.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Alignment: every chunk starts at a block header.
        for part in split_blocks(&text, n) {
            if !part.is_empty() {
                prop_assert!(part.starts_with("0,"));
            }
        }
    }

    #[test]
    fn chunked_parse_equals_whole_parse(
        records in proptest::collection::vec(arb_record(), 1..60),
        n in 1usize..10,
    ) {
        let text = writer::to_string(&records);
        let mut merged = Vec::new();
        for part in split_blocks(&text, n) {
            merged.extend(parse_str(part).unwrap());
        }
        prop_assert_eq!(merged, records);
    }

    #[test]
    fn parallel_parse_equals_serial(
        records in proptest::collection::vec(arb_record(), 0..80),
        threads in 1usize..6,
    ) {
        let text = writer::to_string(&records);
        let serial = parse_str(&text).unwrap();
        let parallel = TraceSource::from_str(&text)
            .parallel(ParallelConfig { threads })
            .records()
            .unwrap();
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn canonical_form_is_idempotent(records in proptest::collection::vec(arb_record(), 0..30)) {
        let once = writer::to_string(&records);
        let twice = writer::to_string(&parse_str(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn binary_round_trips_records(records in proptest::collection::vec(arb_record(), 0..40)) {
        let ctx = AnalysisCtx::current();
        let bytes = binary::to_bytes(&records, &ctx);
        let decoded = TraceSource::from_bytes(&bytes).ctx(&ctx).records().unwrap();
        prop_assert_eq!(&decoded, &records);
        let streamed: Vec<Record> = TraceSource::from_reader(&bytes[..])
            .ctx(&ctx)
            .stream()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(streamed, records);
    }

    #[test]
    fn lent_stream_equals_records_in_both_formats(
        records in proptest::collection::vec(arb_record(), 0..60),
    ) {
        // `next_record` lends exactly what `records()` materializes, record
        // for record, and books the same ingest-ledger totals: every record
        // and every byte, under the format's own counters.
        use autocheck_obs::{CounterId, Metrics};
        let text = writer::to_string(&records);
        let bin = binary::to_bytes(&records, &AnalysisCtx::current());
        for bytes in [text.as_bytes(), &bin[..]] {
            let space = AnalysisCtx::session();
            let batch_ctx = space.clone().with_metrics(Metrics::enabled());
            let batch = TraceSource::from_reader(bytes).ctx(&batch_ctx).records().unwrap();
            let ctx = space.with_metrics(Metrics::enabled());
            let mut stream = TraceSource::from_reader(bytes).ctx(&ctx).stream().unwrap();
            let mut lent = Vec::new();
            while let Some(r) = stream.next_record() {
                lent.push(r.unwrap().clone());
            }
            prop_assert_eq!(&lent, &batch);
            let (rec_id, byte_id) = if binary::is_binary(bytes) {
                (CounterId::IngestRecordsBinary, CounterId::IngestBytesBinary)
            } else {
                (CounterId::IngestRecordsText, CounterId::IngestBytesText)
            };
            let m = batch_ctx.metrics();
            prop_assert_eq!(m.counter(rec_id), records.len() as u64);
            prop_assert_eq!(m.counter(byte_id), bytes.len() as u64);
            // The stream books bytes with each record, so a trace with no
            // records books none.
            let streamed_bytes = if records.is_empty() { 0 } else { bytes.len() as u64 };
            prop_assert_eq!(ctx.metrics().counter(rec_id), records.len() as u64);
            prop_assert_eq!(ctx.metrics().counter(byte_id), streamed_bytes);
        }
    }

    #[test]
    fn text_to_binary_to_text_is_byte_identical(
        records in proptest::collection::vec(arb_record(), 0..40),
        threads in 1usize..5,
    ) {
        // The conversion contract behind `mlc convert`: render to canonical
        // text, convert to binary, decode, render again — byte-identical.
        let ctx = AnalysisCtx::current();
        let text = writer::to_string(&records);
        let parsed = parse_str(&text).unwrap();
        let bytes = binary::to_bytes(&parsed, &ctx);
        let back = TraceSource::from_bytes(&bytes)
            .ctx(&ctx)
            .parallel(ParallelConfig { threads })
            .records()
            .unwrap();
        prop_assert_eq!(writer::to_string(&back), text);
    }

    #[test]
    fn truncated_binary_always_errors_never_panics(
        records in proptest::collection::vec(arb_record(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let ctx = AnalysisCtx::current();
        let bytes = binary::to_bytes(&records, &ctx);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let r = TraceSource::from_bytes(&bytes[..cut]).ctx(&ctx).records();
        prop_assert!(r.is_err(), "cut at {} of {} must error", cut, bytes.len());
    }

    #[test]
    fn corrupted_binary_never_panics(
        records in proptest::collection::vec(arb_record(), 1..10),
        flip_at_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        // Flip a byte anywhere (header, string table, records): ingest must
        // either error or produce records — never panic, in either reader.
        let ctx = AnalysisCtx::session().untrusted();
        let base = AnalysisCtx::current();
        let mut bytes = binary::to_bytes(&records, &base);
        let at = ((bytes.len() - 1) as f64 * flip_at_frac) as usize;
        bytes[at] ^= flip_bits;
        let _ = TraceSource::from_bytes(&bytes).ctx(&ctx).records();
        let _ = TraceSource::from_reader(&bytes[..])
            .ctx(&ctx)
            .stream()
            .map(|s| s.collect::<Result<Vec<_>, _>>());
    }

    #[test]
    fn faulted_text_ingest_never_panics_and_respects_limits(
        records in proptest::collection::vec(arb_record(), 1..30),
        seed in any::<u64>(),
    ) {
        // A seeded fault plan (short reads, truncation, injected io::Error,
        // bit flips) over a well-formed text trace: ingest yields Ok or a
        // typed error, never a panic — and an Ok result never crosses the
        // session's record ceiling.
        let text = writer::to_string(&records);
        let limit = records.len() as u64;
        let ctx = AnalysisCtx::session().untrusted().with_limits(
            ResourceLimits::new()
                .max_trace_records(limit)
                .max_trace_bytes(text.len() as u64),
        );
        let plan = FaultPlan::from_seed(seed, text.len() as u64);
        let result = TraceSource::from_reader(plan.reader(text.as_bytes()))
            .ctx(&ctx)
            .records();
        if let Ok(recs) = result {
            prop_assert!(recs.len() as u64 <= limit);
        }
    }

    #[test]
    fn faulted_binary_ingest_never_panics_in_either_reader(
        records in proptest::collection::vec(arb_record(), 1..20),
        seed in any::<u64>(),
    ) {
        let base = AnalysisCtx::current();
        let bytes = binary::to_bytes(&records, &base);
        let limits = ResourceLimits::new()
            .max_trace_bytes(bytes.len() as u64)
            .max_symbols(4_096);
        let ctx = AnalysisCtx::session().untrusted().with_limits(limits);
        let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
        let batch = TraceSource::from_reader(plan.clone().reader(&bytes[..]))
            .ctx(&ctx)
            .records();
        if let Ok(recs) = &batch {
            prop_assert!(recs.len() <= records.len());
        }
        // Same plan through the pull-based stream: the two front doors may
        // fail at different offsets (chunked vs record-at-a-time reads) but
        // both must stay typed and bounded.
        let ctx = AnalysisCtx::session().untrusted().with_limits(limits);
        let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
        let _ = TraceSource::from_reader(plan.reader(&bytes[..]))
            .ctx(&ctx)
            .stream()
            .map(|s| s.collect::<Result<Vec<_>, _>>());
    }

    #[test]
    fn faulted_ingest_is_deterministic_per_seed(
        records in proptest::collection::vec(arb_record(), 1..15),
        seed in any::<u64>(),
    ) {
        // The replayability contract: the same seed over the same bytes
        // produces the same outcome (same records or same error text).
        let text = writer::to_string(&records);
        let outcome = || {
            let ctx = AnalysisCtx::session().untrusted();
            let plan = FaultPlan::from_seed(seed, text.len() as u64);
            TraceSource::from_reader(plan.reader(text.as_bytes()))
                .ctx(&ctx)
                .records()
                .map_err(|e| e.to_string())
                .map(|r| r.len())
        };
        prop_assert_eq!(outcome(), outcome());
    }
}
