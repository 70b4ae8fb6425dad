//! Streaming front door: the online counterpart of [`crate::Analyzer`].
//!
//! [`StreamAnalyzer`] mirrors the batch analyzer's API (region in, index
//! variables in, [`Report`] out) but consumes records **as they arrive**
//! instead of requiring the whole trace in memory: push records into a
//! [`StreamSession`] (e.g. straight from the interpreter's sink — no trace
//! file at all), or pull them from any [`io::Read`] through the trace
//! crate's [`autocheck_trace::TraceSource`] (text or binary, auto-detected).
//!
//! The analysis itself runs in `autocheck-stream`'s [`Engine`]: one pass,
//! per-iteration state retired at iteration boundaries, peak memory
//! observable as the *live-record count* ([`StreamStats`]) and optionally
//! hard-bounded ([`StreamConfig::max_live_records`]). Classification
//! decisions are shared with the batch pipeline ([`crate::classify::decide`]),
//! so both produce identical reports by construction — a property the
//! integration and property tests assert over the Fig. 4 example, all 14
//! benchmarks, and random MiniLang programs.

use crate::preprocess::{CollectMode, MliVar};
use crate::region::Region;
use crate::report::{Report, Timings};
use autocheck_obs::TimerId;
use autocheck_stream::{Engine, EngineConfig, EngineError, LiveBoundExceeded};
use autocheck_trace::{AnalysisCtx, Record, ResourceExceeded, TraceReadError, TraceSource};
use std::fmt;
use std::io;
use std::time::Instant;

/// Tunables for the streaming pipeline (defaults match the batch
/// [`crate::PipelineConfig`] where the two overlap).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Occurrence-collection strictness (see [`CollectMode`]).
    pub collect: CollectMode,
    /// Selective trace iteration (paper §IV-B); `false` is the ablation.
    pub selective: bool,
    /// Hard bound on the live-record window; `None` = observe only.
    pub max_live_records: Option<usize>,
    /// Contract the streaming DDG (Algorithm 1) at finish and render it as
    /// DOT ([`StreamRun::contracted_dot`]). The graph is bounded by the
    /// program, so this keeps the O(live window) memory story intact.
    pub contracted_dot: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            collect: CollectMode::AnyAccess,
            selective: true,
            max_live_records: None,
            contracted_dot: false,
        }
    }
}

/// A streaming analysis failure.
#[derive(Debug)]
pub enum StreamError {
    /// Reading or parsing the trace stream failed.
    Source(TraceReadError),
    /// The configured live-record bound was exceeded.
    LiveBound(LiveBoundExceeded),
    /// A session resource ceiling (DDG nodes/edges, or a trace-side limit
    /// smuggled through the source) was crossed.
    Resource(ResourceExceeded),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "{e}"),
            StreamError::LiveBound(e) => write!(f, "{e}"),
            StreamError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TraceReadError> for StreamError {
    fn from(e: TraceReadError) -> Self {
        // Surface a limit trip from the trace layer under the same variant
        // the engine uses, so callers match one shape.
        match e {
            TraceReadError::Resource(r) => StreamError::Resource(r),
            other => StreamError::Source(other),
        }
    }
}

impl From<LiveBoundExceeded> for StreamError {
    fn from(e: LiveBoundExceeded) -> Self {
        StreamError::LiveBound(e)
    }
}

impl From<EngineError> for StreamError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::LiveBound(e) => StreamError::LiveBound(e),
            EngineError::Resource(e) => StreamError::Resource(e),
        }
    }
}

impl From<ResourceExceeded> for StreamError {
    fn from(e: ResourceExceeded) -> Self {
        StreamError::Resource(e)
    }
}

/// Memory-bound observability for one streaming run — what the batch
/// pipeline cannot report, because it holds everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Peak live-record window (per-iteration state entries) over the run.
    pub peak_live_records: usize,
    /// The configured bound, if any.
    pub live_bound: Option<usize>,
    /// Streaming DDG node count (bounded by the program).
    pub ddg_nodes: usize,
    /// Streaming DDG edge count.
    pub ddg_edges: usize,
}

/// A finished streaming run: the batch-identical report plus the
/// memory-bound statistics.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The analysis report, identical to the batch pipeline's.
    pub report: Report,
    /// Live-window statistics.
    pub stats: StreamStats,
    /// The contracted DDG rendered as DOT, when
    /// [`StreamConfig::contracted_dot`] asked for it — Algorithm 1 over the
    /// streaming graph, previously a batch-only capability.
    pub contracted_dot: Option<String>,
}

/// The streaming AutoCheck analyzer. Construction mirrors
/// [`crate::Analyzer`]: region, index variables, configuration.
#[derive(Clone, Debug)]
pub struct StreamAnalyzer {
    /// The main computation loop's location.
    pub region: Region,
    /// Induction/control variables of the outermost loop.
    pub index_vars: Vec<String>,
    /// Pipeline tunables.
    pub config: StreamConfig,
    /// The analysis session (symbol space + address-hash seed).
    pub ctx: AnalysisCtx,
}

impl StreamAnalyzer {
    /// Analyzer with default configuration, scoped to the thread's current
    /// symbol space.
    pub fn new(region: Region) -> StreamAnalyzer {
        StreamAnalyzer {
            region,
            index_vars: Vec::new(),
            config: StreamConfig::default(),
            ctx: AnalysisCtx::current(),
        }
    }

    /// Set the Index variables (usually from [`crate::index_variables_of`]).
    pub fn with_index_vars(mut self, vars: Vec<String>) -> StreamAnalyzer {
        self.index_vars = vars;
        self
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: StreamConfig) -> StreamAnalyzer {
        self.config = config;
        self
    }

    /// Scope this analyzer to `ctx`'s session.
    pub fn with_ctx(mut self, ctx: AnalysisCtx) -> StreamAnalyzer {
        self.ctx = ctx;
        self
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            function: self.region.function.clone(),
            start_line: self.region.start_line,
            end_line: self.region.end_line,
            // `CollectMode` *is* the engine's `Collect` (shared type).
            collect: self.config.collect,
            selective: self.config.selective,
            max_live_records: self.config.max_live_records,
        }
    }

    /// Open a push-based session: feed records in execution order, then
    /// [`StreamSession::finish`].
    pub fn session(&self) -> StreamSession {
        StreamSession {
            engine: Engine::with_ctx(self.engine_config(), &self.ctx),
            ctx: self.ctx.clone(),
            index_vars: self.index_vars.clone(),
            region_start: self.region.start_line,
            live_bound: self.config.max_live_records,
            contracted_dot: self.config.contracted_dot,
            started: None,
        }
    }

    /// Analyze already-materialized records through the streaming engine —
    /// the drop-in equivalent of [`crate::Analyzer::analyze`], used by the
    /// equivalence tests.
    pub fn analyze(&self, records: &[Record]) -> Result<Report, StreamError> {
        self.run_records(records).map(|run| run.report)
    }

    /// Analyze materialized records, returning the full [`StreamRun`].
    pub fn run_records(&self, records: &[Record]) -> Result<StreamRun, StreamError> {
        let mut session = self.session();
        for r in records {
            session.push(r)?;
        }
        Ok(session.finish())
    }

    /// Analyze a trace pulled from any reader (file, pipe, socket, …) with
    /// bounded buffering — the streaming equivalent of
    /// [`crate::Analyzer::analyze_text`].
    pub fn analyze_read<R: io::Read>(&self, reader: R) -> Result<Report, StreamError> {
        self.run_read(reader).map(|run| run.report)
    }

    /// Like [`analyze_read`](Self::analyze_read), also returning the
    /// live-window statistics. The report's ingest figure starts before
    /// the trace header is read, so it covers the whole call.
    pub fn run_read<R: io::Read>(&self, reader: R) -> Result<StreamRun, StreamError> {
        let mut session = self.session();
        session.started = Some(Instant::now());
        let stream = TraceSource::from_reader(reader).ctx(&self.ctx).stream()?;
        for item in stream {
            session.push(&item?)?;
        }
        Ok(session.finish())
    }
}

/// An in-flight streaming analysis.
///
/// Timing semantics: the report's ingest (pre-processing) figure is the
/// wall-clock span from the **first push** to [`finish`](Self::finish)
/// ([`StreamAnalyzer::run_read`] starts it earlier, before the trace header
/// is read). When records are pulled from a reader or pushed in a tight
/// loop ([`StreamAnalyzer::analyze`]) that is pure analysis time; in interpreter-direct mode (a sink pushing as the program
/// runs) trace generation and analysis are fused, so the span deliberately
/// includes program execution — there is no separable analysis time to
/// report, and the figure must not be compared against batch pre-processing.
pub struct StreamSession {
    engine: Engine,
    ctx: AnalysisCtx,
    index_vars: Vec<String>,
    region_start: u32,
    live_bound: Option<usize>,
    contracted_dot: bool,
    started: Option<Instant>,
}

impl StreamSession {
    /// Consume one record. Fails fast if the configured live-record bound
    /// or a session resource ceiling is exceeded.
    pub fn push(&mut self, record: &Record) -> Result<(), EngineError> {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        self.engine.push(record)
    }

    /// Live window entries currently held.
    pub fn live_records(&self) -> usize {
        self.engine.live_records()
    }

    /// Peak live window so far.
    pub fn peak_live_records(&self) -> usize {
        self.engine.peak_live_records()
    }

    /// Records consumed so far.
    pub fn records_seen(&self) -> u64 {
        self.engine.records_seen()
    }

    /// Finalize the analysis into a batch-identical [`Report`].
    pub fn finish(self) -> StreamRun {
        // Everything up to here — parse, region partitioning, MLI
        // collection, dependency analysis — ran fused in the single online
        // pass; report it as the pre-processing + dependency stages'
        // combined time, with the finish step as identification.
        let ingest = self
            .started
            .map(|t| t.elapsed())
            .unwrap_or(std::time::Duration::ZERO);
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        // The fused online pass is the streaming counterpart of
        // pre-processing; the ledger books it there. Finalization (retiring
        // windows, freezing the graph) is booked as identification.
        metrics.record_duration(TimerId::Preprocess, ingest);
        let t1 = Instant::now();
        let outcome = self.engine.finish();

        // `MliVar` *is* the engine's entry type — no conversion, the same
        // values flow into the report that the batch pipeline would build.
        let mli: Vec<MliVar> = outcome.mli;

        // The exact selection the batch `classify` performs — same shared
        // function, driven by the shared decision heuristics over the
        // engine's folded statistics.
        let (critical, skipped) =
            crate::classify::select(&mli, &self.index_vars, self.region_start, ctx, |var| {
                let stats = outcome
                    .stats
                    .get(&var.base_addr)
                    .copied()
                    .unwrap_or_default();
                crate::classify::decide(&stats, var.size)
            });

        let identify = t1.elapsed();
        metrics.record_duration(TimerId::Identify, identify);

        // Streaming contraction (Algorithm 1 on the frozen CSR graph):
        // available online for the first time because the engine's graph
        // *is* the shared graph the batch pipeline contracts. Booked as the
        // `contract` timing stage, exactly like the batch pipeline.
        let mut ddg = crate::report::DdgSummary {
            nodes: outcome.ddg.len(),
            edges: outcome.ddg.edge_count(),
            ..Default::default()
        };
        let mut contract = std::time::Duration::ZERO;
        let contracted_dot = if self.contracted_dot {
            let t = metrics.timed(TimerId::Contract);
            let contracted = crate::contract::contract_for_mli_in(&outcome.ddg, &mli, &metrics);
            contract = t.finish();
            ddg.contracted_nodes = contracted.nodes.len();
            ddg.contracted_edges = contracted.edges.len();
            Some(contracted.to_dot())
        } else {
            None
        };
        if metrics.is_enabled() {
            crate::observe::note_session_symbols(ctx);
        }
        StreamRun {
            report: Report {
                mli,
                critical,
                skipped,
                iterations: outcome.iterations,
                records: outcome.records,
                timings: Timings {
                    preprocess: ingest,
                    dependency: std::time::Duration::ZERO,
                    identify,
                    contract,
                },
                ddg,
            },
            stats: StreamStats {
                peak_live_records: outcome.peak_live_records,
                live_bound: self.live_bound,
                // Derived from the one DdgSummary source so the stats can
                // never desynchronize from the report.
                ddg_nodes: ddg.nodes,
                ddg_edges: ddg.edges,
            },
            contracted_dot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{index_variables_of, Analyzer};

    /// The Fig. 4 worked example (same source as the batch pipeline tests).
    const FIG4: &str = "\
void foo(int* p, int* q) {
    for (int i = 0; i < 10; i = i + 1) {
        q[i] = p[i] * 2;
    }
}
int main() {
    int a[10]; int b[10];
    int sum = 0; int s = 0; int r = 1;
    for (int i = 0; i < 10; i = i + 1) {
        a[i] = 0;
        b[i] = 0;
    }
    for (int it = 0; it < 10; it = it + 1) {
        int m;
        s = it + 1;
        a[it] = s * r;
        foo(a, b);
        r = r + 1;
        m = a[it] + b[it];
        sum = m;
    }
    print(sum);
    return 0;
}
";

    fn fig4_records() -> (autocheck_ir::Module, Vec<Record>) {
        let module = autocheck_minilang::compile(FIG4).expect("compiles");
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::VecSink::default();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("runs");
        (module, sink.records)
    }

    fn assert_reports_match(batch: &Report, stream: &Report) {
        assert_eq!(batch.mli, stream.mli);
        assert_eq!(batch.critical, stream.critical);
        assert_eq!(batch.skipped, stream.skipped);
        assert_eq!(batch.iterations, stream.iterations);
        assert_eq!(batch.records, stream.records);
    }

    #[test]
    fn streaming_equals_batch_on_fig4() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze(&records)
            .expect("streams");
        assert_reports_match(&batch, &stream);
        assert_eq!(
            stream
                .summary()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "it", "r", "sum"]
        );
    }

    #[test]
    fn push_session_reports_live_window() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let mut session = StreamAnalyzer::new(region).with_index_vars(index).session();
        for r in &records {
            session.push(r).expect("no bound set");
        }
        let peak = session.peak_live_records();
        assert!(peak > 0);
        assert!(
            (peak as u64) < session.records_seen(),
            "live window must undercut the trace length"
        );
        let run = session.finish();
        assert_eq!(run.stats.peak_live_records, peak);
        assert!(run.stats.ddg_nodes > 0);
    }

    #[test]
    fn analyze_read_streams_the_textual_trace() {
        let (module, records) = fig4_records();
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        for r in &records {
            use autocheck_interp::TraceSink as _;
            sink.record(r.clone()).unwrap();
        }
        let text = sink.finish().unwrap();

        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze_read(&text[..])
            .expect("streams");
        assert_reports_match(&batch, &stream);
    }

    #[test]
    fn live_bound_is_enforced() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let analyzer = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .with_config(StreamConfig {
                max_live_records: Some(1),
                ..StreamConfig::default()
            });
        let err = analyzer.analyze(&records).unwrap_err();
        assert!(matches!(err, StreamError::LiveBound(_)));
        assert!(err.to_string().contains("bound"));
    }

    #[test]
    fn generous_live_bound_passes() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let analyzer = StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .with_config(StreamConfig {
                max_live_records: Some(1 << 20),
                ..StreamConfig::default()
            });
        let stream = analyzer.analyze(&records).expect("bound never hit");
        let batch = Analyzer::new(region)
            .with_index_vars(index)
            .analyze(&records);
        assert_reports_match(&batch, &stream);
    }

    /// A version-2 binary trace: `records` plus an iteration-index footer
    /// holding `bounds`, laid out as the earlier footer-writing release
    /// did (writers now emit version 1 only).
    fn v2_bytes(records: &[Record], bounds: &[u64], ctx: &AnalysisCtx) -> Vec<u8> {
        use autocheck_trace::binary::{to_bytes, INDEX_MAGIC, VERSION_INDEXED};
        let mut bytes = to_bytes(records, ctx);
        bytes[4..6].copy_from_slice(&VERSION_INDEXED.to_le_bytes());
        let count = (bounds.len() as u32).to_le_bytes();
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.extend_from_slice(&count);
        for b in bounds {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        bytes.extend_from_slice(&count);
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes
    }

    #[test]
    fn v2_footer_trace_reads_like_its_v1_twin() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let analyzer = StreamAnalyzer::new(region.clone())
            .with_index_vars(index_variables_of(&module, &region));
        let ctx = &analyzer.ctx;
        let v1 = autocheck_trace::binary::to_bytes(&records, ctx);
        let v2 = v2_bytes(&records, &[100, 200, 300], ctx);

        let read = |bytes: &[u8]| TraceSource::from_bytes(bytes).ctx(ctx).records().unwrap();
        assert_eq!(read(&v2), read(&v1));
        assert_eq!(read(&v2), records);
        let stream = |bytes: &[u8]| {
            TraceSource::from_reader(bytes)
                .ctx(ctx)
                .stream()
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
        };
        assert_eq!(stream(&v2), stream(&v1));

        let from_v1 = analyzer.run_read(&v1[..]).expect("v1");
        let from_v2 = analyzer.run_read(&v2[..]).expect("v2");
        assert_reports_match(&from_v1.report, &from_v2.report);
        assert_eq!(from_v1.report.summary(), from_v2.report.summary());
        assert_eq!(from_v1.report.ddg.nodes, from_v2.report.ddg.nodes);
        assert_eq!(from_v1.report.ddg.edges, from_v2.report.ddg.edges);
    }

    #[test]
    fn malformed_stream_surfaces_parse_error() {
        let region = Region::new("main", 5, 7);
        let err = StreamAnalyzer::new(region)
            .analyze_read(&b"0,zz,broken,1:1,0,27,9,\n"[..])
            .unwrap_err();
        assert!(matches!(err, StreamError::Source(_)));
        assert!(err.to_string().contains("src line"));
    }
}
