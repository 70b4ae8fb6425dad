//! What a child process runs: one set-up, one timed sample, or the traced
//! run. Each prints one `RESULT key=value ...` line for the parent.
//!
//! The timed sections call only library front doors, with the default
//! (serial) configurations:
//! - stream-bin: `StreamAnalyzer::run_read(BufReader<File>)`;
//! - batch-text: `Analyzer::analyze_path`;
//! - capture-bin: `Machine::run` into a `BinarySink` writing a file.
//!
//! The traced run makes the same calls through the same layers, but pulls,
//! pushes and encodes records in blocks so each block is a span.

use crate::spans::{self, BlockSink, TimedRead, Tracer, BLOCK};
use crate::workload::Workload;
use autocheck_apps::AppSpec;
use autocheck_core::{
    index_variables_of, Analyzer, PipelineConfig, Report, StreamAnalyzer, StreamConfig, StreamRun,
    Timings,
};
use autocheck_interp::{
    BinarySink, ExecError, ExecOptions, Machine, NoHook, TraceSink, WriterSink,
};
use autocheck_ir::Module;
use autocheck_trace::{Record, TraceSource};
use std::collections::hash_map::DefaultHasher;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Compile + loop-pass rounds that make up capture-bin's set-up. One round
/// takes under a millisecond, mostly process and page-fault jitter at that
/// scale; a batch of 64 repeats within a run to a few percent.
pub const COMPILE_ROUNDS: usize = 64;

/// stream-bin's peak RSS must stay below this share of its trace size: the
/// serial stream holds only the live window (a few MB against a ~600 MB
/// trace), while any path that materializes the trace lands within the
/// same order as the trace.
pub const STREAM_RSS_SHARE: f64 = 0.1;

/// A timed section may use at most this much CPU time per second of wall
/// time; a serial path stays at or below 1.
pub const SERIAL_CPU_SHARE: f64 = 1.25;

/// The ordered `key=value` pairs of one `RESULT` line.
#[derive(Default)]
pub struct Fields(pub Vec<(String, String)>);

impl Fields {
    pub fn put(&mut self, key: &str, value: impl ToString) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn line(&self) -> String {
        let mut out = String::from("RESULT");
        for (k, v) in &self.0 {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// A compiled workload program with its loop-pass result.
pub struct Prepared {
    pub spec: AppSpec,
    pub module: Module,
    pub index: Vec<String>,
}

/// Run `f`, inside a span when tracing.
fn within<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Compile the program and run the loop pass that names its Index
/// variables.
pub fn prepare(spec: AppSpec, tracer: Option<&Tracer>) -> Result<Prepared, String> {
    let module = within(tracer, "minilang.compile", || {
        autocheck_minilang::compile(&spec.source)
    })
    .map_err(|e| format!("{} does not compile: {e:?}", spec.name))?;
    let index = within(tracer, "ir.loop_pass", || {
        index_variables_of(&module, &spec.region)
    });
    Ok(Prepared {
        spec,
        module,
        index,
    })
}

/// Trace formats a capture can write.
#[derive(Clone, Copy)]
pub enum Format {
    Binary,
    Text,
}

/// A trace sink writing a file in either format.
// One lives per process, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum FileSink {
    Binary(BinarySink<BufWriter<File>>),
    Text(WriterSink<BufWriter<File>>),
}

impl FileSink {
    fn create(path: &Path, format: Format) -> Result<FileSink, String> {
        let out = BufWriter::new(
            File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        );
        Ok(match format {
            Format::Binary => FileSink::Binary(BinarySink::new(out)),
            Format::Text => FileSink::Text(WriterSink::new(out)),
        })
    }

    fn records(&self) -> u64 {
        match self {
            FileSink::Binary(s) => s.records_written(),
            FileSink::Text(s) => s.records_written(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            FileSink::Binary(s) => s.bytes_written(),
            FileSink::Text(s) => s.bytes_written(),
        }
    }

    fn finish(self) -> Result<(), String> {
        let out = match self {
            FileSink::Binary(s) => s.finish(),
            FileSink::Text(s) => s.finish(),
        };
        out.map_err(|e| e.to_string())?
            .flush()
            .map_err(|e| format!("flush trace: {e}"))
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, rec: Record) -> Result<(), ExecError> {
        match self {
            FileSink::Binary(s) => s.record(rec),
            FileSink::Text(s) => s.record(rec),
        }
    }
}

/// What a capture produced.
pub struct Capture {
    pub records: u64,
    pub bytes: u64,
    pub steps: u64,
    /// Hash of the program's printed output.
    pub output_hash: u64,
    /// VmRSS growth while the sink took records (traced runs only).
    pub sink_resident_mb: f64,
}

/// Run the program into a trace file. Traced, the interpreter runs in an
/// `interp.run` span and the sink takes records a block at a time in
/// `trace.encode` spans.
pub fn capture(
    p: &Prepared,
    path: &Path,
    format: Format,
    tracer: Option<&Tracer>,
) -> Result<Capture, String> {
    let sink = FileSink::create(path, format)?;
    let (outcome, sink, sink_resident_mb) = match tracer {
        None => {
            let mut sink = sink;
            let outcome = Machine::new(&p.module, ExecOptions::default())
                .run(&mut sink, &mut NoHook)
                .map_err(|e| e.to_string())?;
            (outcome, sink, 0.0)
        }
        Some(t) => {
            let before = rss_mb()?;
            let mut blocks = BlockSink::new(sink, t);
            let outcome = t
                .time("interp.run", || {
                    Machine::new(&p.module, ExecOptions::default()).run(&mut blocks, &mut NoHook)
                })
                .map_err(|e| e.to_string())?;
            let sink = blocks.into_inner().map_err(|e| e.to_string())?;
            (outcome, sink, rss_mb()? - before)
        }
    };
    let (records, bytes) = (sink.records(), sink.bytes());
    within(tracer, "trace.encode", || sink.finish())?;
    let mut h = DefaultHasher::new();
    outcome.output.hash(&mut h);
    Ok(Capture {
        records,
        bytes,
        steps: outcome.steps,
        output_hash: h.finish(),
        sink_resident_mb,
    })
}

fn stream_analyzer(p: &Prepared) -> StreamAnalyzer {
    StreamAnalyzer::new(p.spec.region.clone())
        .with_index_vars(p.index.clone())
        .with_config(StreamConfig::default())
}

fn batch_analyzer(p: &Prepared) -> Analyzer {
    Analyzer::new(p.spec.region.clone())
        .with_index_vars(p.index.clone())
        .with_config(PipelineConfig::default())
}

fn open(path: &Path) -> Result<File, String> {
    File::open(path).map_err(|e| format!("open {}: {e}", path.display()))
}

/// The stream-bin timed section: serial streaming analysis of a trace file.
pub fn stream_file(p: &Prepared, path: &Path) -> Result<StreamRun, String> {
    stream_analyzer(p)
        .run_read(BufReader::new(open(path)?))
        .map_err(|e| e.to_string())
}

/// What a traced analysis saw, layer by layer.
pub struct Analysis {
    pub report: Report,
    /// Records the trace layer decoded.
    pub decoded: u64,
    /// Records pushed into the streaming engine (0 for batch).
    pub pushed: u64,
    /// The engine's peak live window (0 for batch).
    pub peak_live: usize,
    /// VmRSS growth across materializing the records (0 for streaming).
    pub resident_mb: f64,
}

/// [`stream_file`] traced: the serial path of `run_read`, pulling a block
/// of records (`trace.decode`, with `trace.read` inside) and pushing it
/// (`stream.push`) in turn, then `core.finish` and `core.render`.
pub fn stream_file_traced(p: &Prepared, path: &Path, t: &Tracer) -> Result<Analysis, String> {
    let reader = BufReader::new(TimedRead::new(open(path)?, t));
    let mut stream = t
        .time("trace.decode", || TraceSource::from_reader(reader).stream())
        .map_err(|e| e.to_string())?;
    let mut session = stream_analyzer(p).session();
    let (mut decoded, mut pushed) = (0, 0);
    let mut block = Vec::with_capacity(BLOCK);
    loop {
        t.time("trace.decode", || {
            for item in stream.by_ref().take(BLOCK) {
                block.push(item.map_err(|e| e.to_string())?);
            }
            Ok::<_, String>(())
        })?;
        if block.is_empty() {
            break;
        }
        decoded += block.len() as u64;
        t.time("stream.push", || {
            block.iter().try_for_each(|r| session.push(r))
        })
        .map_err(|e| e.to_string())?;
        pushed += block.len() as u64;
        block.clear();
    }
    let run = t.time("core.finish", || session.finish());
    t.time("core.render", || render(&run.report));
    Ok(Analysis {
        report: run.report,
        decoded,
        pushed,
        peak_live: run.stats.peak_live_records,
        resident_mb: 0.0,
    })
}

/// The batch-text timed section: batch analysis of a trace file.
pub fn batch_file(p: &Prepared, path: &Path) -> Result<Report, String> {
    batch_analyzer(p)
        .analyze_path(path)
        .map_err(|e| e.to_string())
}

/// [`batch_file`] traced: the two steps of `analyze_path` — materialize the
/// records (`trace.decode`, with `trace.read` inside), then
/// `Analyzer::analyze` (`core.analyze`) — and `core.render`.
pub fn batch_file_traced(p: &Prepared, path: &Path, t: &Tracer) -> Result<Analysis, String> {
    let reader = BufReader::new(TimedRead::new(open(path)?, t));
    let before = rss_mb()?;
    let records = t
        .time("trace.decode", || {
            TraceSource::from_reader(reader).records()
        })
        .map_err(|e| e.to_string())?;
    let resident_mb = rss_mb()? - before;
    let report = t.time("core.analyze", || batch_analyzer(p).analyze(&records));
    t.time("core.render", || render(&report));
    Ok(Analysis {
        report,
        decoded: records.len() as u64,
        pushed: 0,
        peak_live: 0,
        resident_mb,
    })
}

/// The report as the command line prints it.
pub fn render(report: &Report) -> String {
    std::hint::black_box(report.to_string())
}

/// Check a report against the program's ground truth and the record count
/// its generator wrote.
pub fn check_report(spec: &AppSpec, report: &Report, records: u64) -> Result<(), String> {
    let got = report.summary();
    let want = spec.expected_summary();
    if got != want {
        return Err(format!("verdicts {got:?}, expected {want:?}"));
    }
    if report.records != records {
        return Err(format!(
            "report covers {} records, the generator wrote {records}",
            report.records
        ));
    }
    Ok(())
}

/// The deterministic counters of one analysis.
pub fn put_counters(out: &mut Fields, report: &Report, peak_live: usize) {
    out.put("records", report.records);
    out.put("iterations", report.iterations);
    out.put("peak_live_records", peak_live);
    out.put("ddg_nodes", report.ddg.nodes);
    out.put("ddg_edges", report.ddg.edges);
    out.put("contracted_nodes", report.ddg.contracted_nodes);
    out.put("contracted_edges", report.ddg.contracted_edges);
    out.put("mli_vars", report.mli.len());
    out.put("critical_vars", report.critical.len());
}

/// Set-up: produce the workload's input (compile, loop pass, and the trace
/// file where the workload reads one). Returns the fields for the parent.
pub fn setup(w: Workload, spec: &AppSpec, input: &Path) -> Result<Fields, String> {
    let mut out = Fields::default();
    let t0 = Instant::now();
    let p = prepare(spec.clone(), None)?;
    let format = match w {
        Workload::StreamBin => Some(Format::Binary),
        Workload::BatchText => Some(Format::Text),
        Workload::CaptureBin => None,
    };
    match format {
        Some(format) => {
            let c = capture(&p, input, format, None)?;
            out.put("records", c.records);
            out.put("bytes", c.bytes);
            out.put("output_hash", c.output_hash);
        }
        None => {
            for _ in 1..COMPILE_ROUNDS {
                std::hint::black_box(prepare(spec.clone(), None)?);
            }
        }
    }
    out.0.insert(
        0,
        ("setup_s".into(), t0.elapsed().as_secs_f64().to_string()),
    );
    Ok(out)
}

/// What a timed section produced.
enum Timed {
    Analysis(Report, usize),
    Capture(Capture),
}

/// One timed sample on `input`. `expect_records` is the count the input's
/// generator wrote (unused by capture-bin, which generates its own).
pub fn sample(
    w: Workload,
    spec: &AppSpec,
    input: &Path,
    expect_records: u64,
) -> Result<Fields, String> {
    let (out, cpu, wall) = measure(w, spec, input, expect_records)?;
    check_serial(cpu, wall)?;
    Ok(out)
}

/// [`sample`] without the serial guard: its fields, with the CPU and wall
/// seconds of the timed section. The process CPU clock also counts other
/// threads of this process, so only a process that runs nothing else can
/// hold the result to [`check_serial`].
fn measure(
    w: Workload,
    spec: &AppSpec,
    input: &Path,
    expect_records: u64,
) -> Result<(Fields, f64, f64), String> {
    let p = prepare(spec.clone(), None)?;
    // Set-up allocations must not count towards the timed section's peak.
    reset_peak_rss()?;
    let cpu0 = cpu_s()?;
    let t0 = Instant::now();
    let timed = match w {
        Workload::StreamBin => {
            let run = stream_file(&p, input)?;
            render(&run.report);
            Timed::Analysis(run.report, run.stats.peak_live_records)
        }
        Workload::BatchText => {
            let report = batch_file(&p, input)?;
            render(&report);
            Timed::Analysis(report, 0)
        }
        Workload::CaptureBin => Timed::Capture(capture(&p, input, Format::Binary, None)?),
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_s()? - cpu0;
    let peak = peak_rss_mb()?;

    let mut out = Fields::default();
    out.put("wall_s", wall);
    out.put("peak_rss_mb", peak);
    let bytes = file_bytes(input)?;
    out.put("bytes", bytes);
    match timed {
        Timed::Analysis(report, peak_live) => {
            check_report(&p.spec, &report, expect_records)?;
            if w == Workload::StreamBin {
                check_stream_rss(peak, bytes as f64 / (1024.0 * 1024.0))?;
            }
            put_counters(&mut out, &report, peak_live);
        }
        Timed::Capture(c) => {
            if bytes != c.bytes {
                return Err(format!(
                    "sink reports {} bytes, the file holds {bytes}",
                    c.bytes
                ));
            }
            if c.records != c.steps {
                return Err(format!(
                    "sink took {} records for {} executed instructions",
                    c.records, c.steps
                ));
            }
            out.put("records", c.records);
            out.put("output_hash", c.output_hash);
        }
    }
    Ok((out, cpu, wall))
}

/// Every timed section runs the library's serial path: fail a sample that
/// used noticeably more CPU time than wall time, i.e. ran on more than one
/// thread.
pub fn check_serial(cpu_s: f64, wall_s: f64) -> Result<(), String> {
    // The slack covers the 10 ms tick of the process CPU clock.
    if cpu_s > wall_s * SERIAL_CPU_SHARE + 0.05 {
        return Err(format!(
            "the timed section used {cpu_s:.2} s of CPU in {wall_s:.2} s of wall time: \
             it ran on more than one thread"
        ));
    }
    Ok(())
}

/// stream-bin must stay on the serial O(live window) path: fail a sample
/// whose peak RSS is within the order of the trace it read.
pub fn check_stream_rss(peak_mb: f64, trace_mb: f64) -> Result<(), String> {
    if peak_mb >= trace_mb * STREAM_RSS_SHARE {
        return Err(format!(
            "peak RSS {peak_mb:.1} MB is within the order of the {trace_mb:.1} MB trace: \
             stream-bin left the serial O(live window) path"
        ));
    }
    Ok(())
}

/// The traced run: set-up, timed section and (capture-bin) read-back
/// verification, each a root span (`bench.setup`, `bench.timed`,
/// `bench.verify`) over spans around every layer call. Writes the spans to
/// `spans_path` and returns the per-layer numbers. Layer times are self
/// times under `bench.timed`, so they break down the timed section alone,
/// except compile and loop pass, which are taken under `bench.setup`
/// because they feed `setup_s`; `bench.verify` counts towards no metric. A
/// layer the timed section never calls reads 0, and so do the counts of an
/// analysis it never runs.
pub fn traced(
    w: Workload,
    spec: &AppSpec,
    dir: &Path,
    spans_path: &Path,
) -> Result<Fields, String> {
    let t = Tracer::new();
    let input = dir.join(input_name(w));
    let (p, setup_gen) = {
        let _root = t.span("bench.setup");
        let p = prepare(spec.clone(), Some(&t))?;
        let gen = match w {
            Workload::StreamBin => Some(capture(&p, &input, Format::Binary, Some(&t))?),
            Workload::BatchText => Some(capture(&p, &input, Format::Text, Some(&t))?),
            Workload::CaptureBin => None,
        };
        (p, gen)
    };
    let (analysis, timed_gen) = {
        let _root = t.span("bench.timed");
        match w {
            Workload::StreamBin => (Some(stream_file_traced(&p, &input, &t)?), None),
            Workload::BatchText => (Some(batch_file_traced(&p, &input, &t)?), None),
            Workload::CaptureBin => (None, Some(capture(&p, &input, Format::Binary, Some(&t))?)),
        }
    };
    let gen = timed_gen
        .as_ref()
        .or(setup_gen.as_ref())
        .expect("set-up or timed section generated the trace");
    let read_back = match analysis {
        Some(_) => None,
        None => {
            let _root = t.span("bench.verify");
            Some(stream_file_traced(&p, &input, &t)?)
        }
    };

    // Records are conserved across the layers: generated = decoded =
    // pushed (streaming) = the report's count, and the verdicts hold.
    let checked = analysis
        .as_ref()
        .or(read_back.as_ref())
        .expect("an analysis ran");
    check_report(&p.spec, &checked.report, gen.records)?;
    let pushed_ok = w == Workload::BatchText || checked.pushed == gen.records;
    if checked.decoded != gen.records || !pushed_ok {
        return Err(format!(
            "records not conserved: generated {}, decoded {}, pushed {}, reported {}",
            gen.records, checked.decoded, checked.pushed, checked.report.records
        ));
    }

    let spans = t.finish();
    std::fs::write(spans_path, spans::to_json_lines(&spans))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let timed_ns = spans::self_times(&spans, "bench.timed");
    let setup_ns = spans::self_times(&spans, "bench.setup");
    let secs = |name: &str| timed_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let per_record = |name: &str, n: u64| {
        if n == 0 {
            0.0
        } else {
            secs(name) * 1e9 / n as f64
        }
    };
    let setup_secs = |name: &str| setup_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let timed_wall_ns = spans
        .iter()
        .find(|s| s.name == "bench.timed")
        .expect("the timed root span was recorded")
        .duration() as f64;
    // The timed section's analysis; capture-bin's runs none.
    let of = |f: &dyn Fn(&Analysis) -> f64| analysis.as_ref().map_or(0.0, f);
    let decoded = analysis.as_ref().map_or(0, |a| a.decoded);
    let pushed = analysis.as_ref().map_or(0, |a| a.pushed);

    let mut out = Fields::default();
    out.put("timed_wall_s", timed_wall_ns / 1e9);
    out.put("trace.read_s", secs("trace.read"));
    out.put("trace.bytes", file_bytes(&input)?);
    out.put("trace.decode_s", secs("trace.decode"));
    out.put(
        "trace.decode_ns_per_record",
        per_record("trace.decode", decoded),
    );
    out.put("trace.records", gen.records);
    out.put("trace.resident_mb", of(&|a| a.resident_mb));
    out.put("trace.encode_s", secs("trace.encode"));
    let encoded = timed_gen.as_ref().map_or(0, |c| c.records);
    out.put(
        "trace.encode_ns_per_record",
        per_record("trace.encode", encoded),
    );
    out.put(
        "trace.sink_resident_mb",
        timed_gen.as_ref().map_or(0.0, |c| c.sink_resident_mb),
    );
    out.put("interp.exec_s", secs("interp.run"));
    out.put("interp.ns_per_record", per_record("interp.run", encoded));
    out.put("stream.fold_s", secs("stream.push"));
    out.put(
        "stream.fold_ns_per_record",
        per_record("stream.push", pushed),
    );
    out.put("stream.peak_live_records", of(&|a| a.peak_live as f64));
    out.put("stream.ddg_nodes", of(&|a| a.report.ddg.nodes as f64));
    out.put("stream.ddg_edges", of(&|a| a.report.ddg.edges as f64));
    out.put("core.finish_s", secs("core.finish"));
    out.put("core.render_s", secs("core.render"));
    out.put("core.analyze_s", secs("core.analyze"));
    let timings = |f: fn(&Timings) -> Duration| of(&|a| f(&a.report.timings).as_secs_f64());
    out.put("core.preprocess_s", timings(|t| t.preprocess));
    out.put("core.dependency_s", timings(|t| t.dependency));
    out.put("core.contract_s", timings(|t| t.contract));
    out.put("core.identify_s", timings(|t| t.identify));
    out.put("core.mli_vars", of(&|a| a.report.mli.len() as f64));
    out.put(
        "core.critical_vars",
        of(&|a| a.report.critical.len() as f64),
    );
    out.put(
        "core.contracted_nodes",
        of(&|a| a.report.ddg.contracted_nodes as f64),
    );
    out.put(
        "core.contracted_edges",
        of(&|a| a.report.ddg.contracted_edges as f64),
    );
    out.put("minilang.compile_s", setup_secs("minilang.compile"));
    out.put("ir.loop_pass_s", setup_secs("ir.loop_pass"));
    // The share of the timed section that layer spans cover: all but the
    // root's own self time.
    out.put(
        "bench.layer_coverage",
        1.0 - timed_ns["bench.timed"] as f64 / timed_wall_ns,
    );
    out.put("spans", spans.len());
    Ok(out)
}

/// The input file a workload's set-up writes (capture-bin: its output).
pub fn input_name(w: Workload) -> &'static str {
    match w {
        Workload::StreamBin => "input.bin",
        Workload::BatchText => "input.txt",
        Workload::CaptureBin => "capture.bin",
    }
}

fn file_bytes(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// Reset this process's peak RSS (`VmHWM`) to its current RSS.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS via /proc/self/clear_refs: {e}"))
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// User + system CPU time of this process so far, in seconds. The fields
/// of `/proc/self/stat` after the command name count clock ticks of
/// 1/100 s (`USER_HZ`).
fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    let after_comm = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are the 14th and 15th fields; the state (3rd) is the
    // first after the command name.
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set since the last reset, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Current resident set, in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{seeded_cg, seeded_is};
    use std::path::PathBuf;

    /// The program of `w` at a test-sized scale.
    fn small(w: Workload, seed: u64) -> AppSpec {
        match w {
            Workload::StreamBin | Workload::CaptureBin => seeded_cg(12, 5, 4, seed),
            Workload::BatchText => seeded_is(10, 16, seed),
        }
    }

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".perfbench/test")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn field(f: &Fields, key: &str) -> String {
        f.0.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("no `{key}` in {}", f.line()))
    }

    /// Generate `w`'s input and return it with the generator's record count.
    fn generate(w: Workload, spec: &AppSpec, dir: &Path) -> (PathBuf, u64) {
        let input = dir.join(input_name(w));
        let gen = setup(w, spec, &input).unwrap();
        (input, field(&gen, "records").parse().unwrap())
    }

    /// The analysis a sample of `w` runs, with its counters.
    fn analyze(w: Workload, p: &Prepared, input: &Path) -> (Report, Fields) {
        let mut counters = Fields::default();
        let report = match w {
            Workload::StreamBin => {
                let run = stream_file(p, input).unwrap();
                put_counters(&mut counters, &run.report, run.stats.peak_live_records);
                run.report
            }
            _ => {
                let report = batch_file(p, input).unwrap();
                put_counters(&mut counters, &report, 0);
                report
            }
        };
        (report, counters)
    }

    #[test]
    fn every_seed_meets_the_ground_truth() {
        for w in [Workload::StreamBin, Workload::BatchText] {
            for seed in 0..6 {
                let spec = small(w, seed);
                let dir = scratch(&format!("truth-{}-{seed}", w.name()));
                let (input, records) = generate(w, &spec, &dir);
                let p = prepare(spec, None).unwrap();
                let (report, _) = analyze(w, &p, &input);
                check_report(&p.spec, &report, records).unwrap();
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    #[test]
    fn wrong_verdicts_and_counts_fail_the_check() {
        let dir = scratch("wrong");
        let spec = small(Workload::StreamBin, 1);
        let (input, records) = generate(Workload::StreamBin, &spec, &dir);
        let p = prepare(spec, None).unwrap();
        let (report, _) = analyze(Workload::StreamBin, &p, &input);
        assert!(check_report(&small(Workload::BatchText, 1), &report, records).is_err());
        assert!(check_report(&p.spec, &report, records + 1).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn counters_repeat_exactly() {
        for w in Workload::ALL {
            let dir = scratch(&format!("repeat-{}", w.name()));
            let spec = small(w, 7);
            let first = setup(w, &spec, &dir.join(input_name(w))).unwrap();
            let again = setup(w, &spec, &dir.join(input_name(w))).unwrap();
            assert_eq!(
                first.0[1..],
                again.0[1..],
                "set-up counters of {}",
                w.name()
            );
            if w == Workload::CaptureBin {
                let a = measure(w, &spec, &dir.join("a.bin"), 0).unwrap().0;
                let b = measure(w, &spec, &dir.join("b.bin"), 0).unwrap().0;
                assert_eq!(a.0[2..], b.0[2..]);
            } else {
                let p = prepare(spec, None).unwrap();
                let input = dir.join(input_name(w));
                assert_eq!(analyze(w, &p, &input).1 .0, analyze(w, &p, &input).1 .0);
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn samples_check_their_own_output() {
        let dir = scratch("samples");
        let spec = small(Workload::BatchText, 3);
        let (input, records) = generate(Workload::BatchText, &spec, &dir);
        // `measure`, not `sample`: the serial guard reads the process CPU
        // clock, which other tests running in parallel also advance.
        let f = measure(Workload::BatchText, &spec, &input, records)
            .unwrap()
            .0;
        assert_eq!(field(&f, "records"), records.to_string());
        assert!(measure(Workload::BatchText, &spec, &input, records + 1).is_err());

        // capture-bin's output is a trace the stream path accepts, with the
        // record count the sink reported.
        let spec = small(Workload::CaptureBin, 3);
        let out = dir.join("capture.bin");
        let f = measure(Workload::CaptureBin, &spec, &out, 0).unwrap().0;
        let p = prepare(spec, None).unwrap();
        let run = stream_file(&p, &out).unwrap();
        check_report(&p.spec, &run.report, field(&f, "records").parse().unwrap()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn traced_run_conserves_records_and_reports_every_layer() {
        for w in Workload::ALL {
            let dir = scratch(&format!("traced-{}", w.name()));
            let spec = small(w, 5);
            let f = traced(w, &spec, &dir, &dir.join("spans.jsonl")).unwrap();
            for (name, _) in crate::PER_LAYER {
                if name != "bench.trace_overhead_s" {
                    field(&f, name).parse::<f64>().unwrap();
                }
            }
            let coverage: f64 = field(&f, "bench.layer_coverage").parse().unwrap();
            assert!((0.0..=1.0).contains(&coverage), "coverage {coverage}");
            // Layer times break down the timed section only: the set-up's
            // encode and interpreter run and capture-bin's read-back count
            // towards no metric, so a layer the timed section never calls
            // reads 0. Compile and loop pass come from the set-up.
            let zero = |name: &str| assert_eq!(field(&f, name), "0", "{name} of {}", w.name());
            let positive = |name: &str| {
                let v: f64 = field(&f, name).parse().unwrap();
                assert!(v > 0.0, "{name} of {} is {v}", w.name());
            };
            positive("minilang.compile_s");
            positive("ir.loop_pass_s");
            let (runs, skips): (&[&str], &[&str]) = match w {
                Workload::StreamBin => (
                    &["trace.decode_s", "stream.fold_s", "core.finish_s"],
                    &["trace.encode_s", "interp.exec_s", "core.analyze_s"],
                ),
                Workload::BatchText => (
                    &["trace.decode_s", "core.analyze_s", "trace.read_s"],
                    &["trace.encode_s", "interp.exec_s", "stream.fold_s"],
                ),
                Workload::CaptureBin => (
                    &["trace.encode_s", "interp.exec_s"],
                    &[
                        "trace.decode_s",
                        "trace.read_s",
                        "stream.fold_s",
                        "stream.ddg_nodes",
                    ],
                ),
            };
            runs.iter().for_each(|&m| positive(m));
            skips.iter().for_each(|&m| zero(m));
            // The traced run counts what the untraced analysis does (for
            // capture-bin, the stream analysis of its output).
            let p = prepare(spec, None).unwrap();
            let kind = match w {
                Workload::BatchText => w,
                _ => Workload::StreamBin,
            };
            let (report, _) = analyze(kind, &p, &dir.join(input_name(w)));
            assert_eq!(field(&f, "trace.records"), report.records.to_string());
            if w != Workload::CaptureBin {
                assert_eq!(field(&f, "stream.ddg_nodes"), report.ddg.nodes.to_string());
            }
            let spans = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
            assert!(spans.contains("\"name\":\"bench.timed\""));
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn serial_guard_rejects_parallel_sections() {
        check_serial(2.0, 2.1).unwrap();
        check_serial(0.01, 0.0).unwrap();
        assert!(check_serial(3.4, 2.0).is_err());
        // This process's CPU clock advances with work.
        let before = cpu_s().unwrap();
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 200 {
            std::hint::black_box(before.sqrt());
        }
        let used = cpu_s().unwrap() - before;
        assert!(used > 0.1, "{used}");
    }

    #[test]
    fn stream_rss_guard_rejects_materialized_traces() {
        check_stream_rss(14.0, 598.0).unwrap();
        assert!(check_stream_rss(60.0, 598.0).is_err());
        assert!(check_stream_rss(1720.7, 598.0).is_err());
    }
}
