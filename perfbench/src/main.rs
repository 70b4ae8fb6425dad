//! AutoCheck benchmark: end-to-end and per-layer numbers for three
//! workloads, each sample in its own child process.
//!
//! ```text
//! perfbench --workload <stream-bin|batch-text|capture-bin> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up its input, then takes timed samples for
//! `--seconds` with further set-ups spread among them, and prints the
//! end-to-end metrics (medians). With `--trace 1` it makes one traced run and untraced samples
//! for `--seconds`, and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Every sample's verdicts are checked against the program's
//! ground truth and its deterministic counters against the other samples';
//! a sample that fails either check counts as failed, not as a timing.
//!
//! Scratch files (inputs, outputs) live under `.perfbench/` in the current
//! directory and are removed at the end; the traced run's spans are kept in
//! `.perfbench/spans/`.

mod sample;
mod spans;
mod workload;

use sample::input_name;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// Share of a `--trace 0` run's sampling time that goes to further
/// set-ups, spread among the samples; `setup_s` is the median of all of
/// them. Spread out, the set-ups see the same phases of the host's CPU rate
/// as the samples, rather than whichever phase a back-to-back batch hits.
const SETUP_SHARE: f64 = 0.25;
/// Fewest set-ups a `--trace 0` run makes, however short `--seconds` is.
const MIN_SETUPS: usize = 3;
/// Fewest samples a run attempts, however short `--seconds` is.
const MIN_SAMPLES: u64 = 3;
/// Counters every sample of a workload must repeat exactly.
const COUNTERS: [&str; 11] = [
    "records",
    "bytes",
    "iterations",
    "peak_live_records",
    "ddg_nodes",
    "ddg_edges",
    "contracted_nodes",
    "contracted_edges",
    "mli_vars",
    "critical_vars",
    "output_hash",
];

/// Per-layer metrics of the traced run: name, unit.
const PER_LAYER: [(&str, &str); 31] = [
    ("trace.read_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.decode_s", "s"),
    ("trace.decode_ns_per_record", "ns"),
    ("trace.records", "count"),
    ("trace.resident_mb", "MB"),
    ("trace.encode_s", "s"),
    ("trace.encode_ns_per_record", "ns"),
    ("trace.sink_resident_mb", "MB"),
    ("interp.exec_s", "s"),
    ("interp.ns_per_record", "ns"),
    ("stream.fold_s", "s"),
    ("stream.fold_ns_per_record", "ns"),
    ("stream.peak_live_records", "count"),
    ("stream.ddg_nodes", "count"),
    ("stream.ddg_edges", "count"),
    ("core.finish_s", "s"),
    ("core.render_s", "s"),
    ("core.analyze_s", "s"),
    ("core.preprocess_s", "s"),
    ("core.dependency_s", "s"),
    ("core.contract_s", "s"),
    ("core.identify_s", "s"),
    ("core.mli_vars", "count"),
    ("core.critical_vars", "count"),
    ("core.contracted_nodes", "count"),
    ("core.contracted_edges", "count"),
    ("minilang.compile_s", "s"),
    ("ir.loop_pass_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.layer_coverage", "ratio"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|a| match a.child.as_deref() {
        None => run(&a),
        Some(mode) => child(mode, &a),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: `setup`, `sample` or `traced`.
    child: Option<String>,
    input: PathBuf,
    expect_records: u64,
    spans: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`; usage: {USAGE}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value; usage: {USAGE}"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied();
    let num = |k: &str, default: Option<u64>| -> Result<u64, String> {
        match get(k) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{k} takes a whole number, got `{v}`")),
            None => default.ok_or_else(|| format!("--{k} is required; usage: {USAGE}")),
        }
    };
    let name = get("workload").ok_or_else(|| format!("--workload is required; usage: {USAGE}"))?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds: num("seconds", Some(10))?,
        trace,
        child: get("child").map(str::to_string),
        input: get("input").map(PathBuf::from).unwrap_or_default(),
        expect_records: num("expect-records", Some(0))?,
        spans: get("spans").map(PathBuf::from).unwrap_or_default(),
    })
}

const USAGE: &str = "perfbench --workload <stream-bin|batch-text|capture-bin> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Child side: do one unit of work and print its `RESULT` line.
fn child(mode: &str, a: &Args) -> Result<(), String> {
    let spec = a.workload.spec(a.seed);
    let fields = match mode {
        "setup" => sample::setup(a.workload, &spec, &a.input)?,
        "sample" => sample::sample(a.workload, &spec, &a.input, a.expect_records)?,
        // A traced run gets its scratch directory as `--input`.
        "traced" => sample::traced(a.workload, &spec, &a.input, &a.spans)?,
        other => return Err(format!("unknown child mode `{other}`")),
    };
    println!("{}", fields.line());
    Ok(())
}

/// Run this executable as a child and return its `RESULT` fields. The
/// child has ended when this returns.
fn spawn(
    a: &Args,
    mode: &str,
    workload: Workload,
    extra: &[(&str, String)],
) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", workload.name()])
        .args(["--seed", &a.seed.to_string()]);
    for (k, v) in extra {
        cmd.arg(format!("--{k}")).arg(v);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT"))
        .ok_or_else(|| format!("{mode} child printed no result"))?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

type Map = BTreeMap<String, String>;

fn value(m: &Map, key: &str) -> Result<f64, String> {
    m.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("result has no numeric `{key}`"))
}

/// The deterministic counters of one result.
fn counters(m: &Map) -> Vec<(&'static str, String)> {
    COUNTERS
        .iter()
        .filter_map(|&k| m.get(k).map(|v| (k, v.clone())))
        .collect()
}

/// The `records` counter among `counters`.
fn records_of(counters: Option<&Vec<(&'static str, String)>>) -> Option<u64> {
    counters?
        .iter()
        .find(|(k, _)| *k == "records")?
        .1
        .parse()
        .ok()
}

/// Timed samples and their checks.
#[derive(Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    wall_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    reference: Option<Vec<(&'static str, String)>>,
}

impl Samples {
    /// Take timed samples on `input` for `seconds` (at least
    /// [`MIN_SAMPLES`]), calling `between` after each with the time since
    /// the first started.
    fn take(
        &mut self,
        a: &Args,
        input: &Path,
        expect_records: u64,
        mut between: impl FnMut(Duration) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let budget = Duration::from_secs(a.seconds);
        while self.attempted < MIN_SAMPLES || start.elapsed() < budget {
            if a.workload == Workload::CaptureBin {
                // The previous sample's output goes before the next sample,
                // so no sample truncates (or writes back) another's file.
                let _ = std::fs::remove_file(input);
            }
            let extra = [
                ("input", input.display().to_string()),
                ("expect-records", expect_records.to_string()),
            ];
            let result = spawn(a, "sample", a.workload, &extra).and_then(|m| self.check(m));
            self.attempted += 1;
            match result {
                Ok((wall, rss)) => {
                    self.wall_s.push(wall);
                    self.peak_rss_mb.push(rss);
                }
                Err(e) => {
                    eprintln!("perfbench: {} sample failed: {e}", a.workload.name());
                    self.failed += 1;
                }
            }
            between(start.elapsed())?;
        }
        Ok(())
    }

    /// A sample's timings, once its counters match every earlier sample's.
    fn check(&mut self, m: Map) -> Result<(f64, f64), String> {
        let got = counters(&m);
        match &self.reference {
            None => self.reference = Some(got),
            Some(want) if *want != got => {
                return Err(format!(
                    "counters {got:?} differ from the first sample's {want:?}"
                ))
            }
            Some(_) => {}
        }
        Ok((value(&m, "wall_s")?, value(&m, "peak_rss_mb")?))
    }
}

/// Parent side: one benchmark run.
fn run(a: &Args) -> Result<(), String> {
    let scratch = Path::new(".perfbench");
    let work = scratch.join(format!(
        "{}-seed{}-{}",
        a.workload.name(),
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = if a.trace {
        run_traced(a, scratch, &work)
    } else {
        run_timed(a, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (summary, json) = result?;
    println!("{summary}");
    println!("{json}");
    Ok(())
}

/// The set-ups of one run, each in a fresh child process.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    /// Wall time the set-up children took, spawning included.
    spent: Duration,
    counters: Option<Vec<(&'static str, String)>>,
}

impl Setups {
    /// Set up into `path`, from no file, so no set-up pays for dropping an
    /// earlier one's pages. Every set-up must produce the same counters.
    fn run(&mut self, a: &Args, path: &Path) -> Result<(), String> {
        let _ = std::fs::remove_file(path);
        let t0 = Instant::now();
        let m = spawn(
            a,
            "setup",
            a.workload,
            &[("input", path.display().to_string())],
        )?;
        self.spent += t0.elapsed();
        self.setup_s.push(value(&m, "setup_s")?);
        let got = counters(&m);
        if self.counters.as_ref().is_some_and(|want| *want != got) {
            return Err(format!(
                "set-up is not deterministic: {got:?} vs {:?}",
                self.counters
            ));
        }
        self.counters = Some(got);
        Ok(())
    }

    /// [`Setups::run`] into `path`, then delete the file, dirty pages and
    /// all, unwritten.
    fn run_discarded(&mut self, a: &Args, path: &Path) -> Result<(), String> {
        let result = self.run(a, path);
        let _ = std::fs::remove_file(path);
        result
    }
}

/// `--trace 0`: set up the samples' input, then take timed samples, with
/// further set-ups spread among them ([`SETUP_SHARE`], [`MIN_SETUPS`]).
fn run_timed(a: &Args, work: &Path) -> Result<(String, String), String> {
    let input = work.join(input_name(a.workload));
    let mut setups = Setups::default();
    setups.run(a, &input)?;
    settle(&input)?;
    // capture-bin's set-up generates no records; its samples do.
    let expect_records = records_of(setups.counters.as_ref()).unwrap_or(0);
    // Later set-ups write a file of their own, so the samples' input stays
    // as it is.
    let spare = work.join(format!("setup-{}", input_name(a.workload)));
    let before = setups.spent;

    let mut s = Samples::default();
    s.take(a, &input, expect_records, |elapsed| {
        if (setups.spent - before).as_secs_f64() < elapsed.as_secs_f64() * SETUP_SHARE {
            setups.run_discarded(a, &spare)?;
        }
        Ok(())
    })?;
    while setups.setup_s.len() < MIN_SETUPS {
        setups.run_discarded(a, &spare)?;
    }
    if s.wall_s.is_empty() {
        return Err(format!("every {} sample failed", a.workload.name()));
    }
    if a.workload == Workload::CaptureBin {
        verify_capture(a, &input, &mut s);
    }

    let wall = median(&s.wall_s);
    let records = records_of(s.reference.as_ref()).ok_or("samples reported no record count")?;
    let metrics = [
        ("wall_s", wall, "s"),
        ("records_per_s", records as f64 / wall, "1/s"),
        ("peak_rss_mb", median(&s.peak_rss_mb), "MB"),
        ("setup_s", median(&setups.setup_s), "s"),
    ];
    let summary = format!(
        "{} seed={} samples={} walls_s={:?} setups_s={:?} counters: {}",
        a.workload.name(),
        a.seed,
        s.wall_s.len(),
        s.wall_s,
        setups.setup_s,
        counter_text(s.reference.as_deref().unwrap_or_default())
    );
    Ok((summary, result_json(&s, &metrics)))
}

/// Write the set-up's trace back to disk before sampling, so background
/// writeback of its dirty pages does not overlap the timed samples.
fn settle(input: &Path) -> Result<(), String> {
    match std::fs::File::open(input) {
        Ok(f) => f
            .sync_all()
            .map_err(|e| format!("sync {}: {e}", input.display())),
        // capture-bin's set-up writes no file.
        Err(_) => Ok(()),
    }
}

/// capture-bin's output check: stream-analyze the trace the last sample
/// wrote and hold it to the program's ground truth and the record count
/// the samples reported. One more attempted operation.
fn verify_capture(a: &Args, input: &Path, s: &mut Samples) {
    let records = records_of(s.reference.as_ref()).unwrap_or(0);
    let extra = [
        ("input", input.display().to_string()),
        ("expect-records", records.to_string()),
    ];
    s.attempted += 1;
    if let Err(e) = spawn(a, "sample", Workload::StreamBin, &extra) {
        eprintln!("perfbench: capture-bin output failed verification: {e}");
        s.failed += 1;
    }
}

/// `--trace 1`: one traced run, then untraced samples for the overhead.
fn run_traced(a: &Args, scratch: &Path, work: &Path) -> Result<(String, String), String> {
    let spans_dir = scratch.join("spans");
    std::fs::create_dir_all(&spans_dir)
        .map_err(|e| format!("create {}: {e}", spans_dir.display()))?;
    let spans = spans_dir.join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
    let traced = spawn(
        a,
        "traced",
        a.workload,
        &[
            ("input", work.display().to_string()),
            ("spans", spans.display().to_string()),
        ],
    )?;
    let records = value(&traced, "trace.records")? as u64;
    let input = work.join(input_name(a.workload));
    settle(&input)?;
    let mut s = Samples::default();
    s.take(a, &input, records, |_| Ok(()))?;
    s.attempted += 1;
    if s.wall_s.is_empty() {
        return Err(format!("every {} sample failed", a.workload.name()));
    }
    let overhead = value(&traced, "timed_wall_s")? - median(&s.wall_s);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = match name {
            "bench.trace_overhead_s" => overhead,
            _ => value(&traced, name)?,
        };
        metrics.push((name, v, unit));
    }
    let summary = format!(
        "{} seed={} traced: {} spans in {}; untraced walls_s={:?}",
        a.workload.name(),
        a.seed,
        traced.get("spans").map_or("?", String::as_str),
        spans.display(),
        s.wall_s
    );
    Ok((summary, result_json(&s, &metrics)))
}

fn counter_text(c: &[(&str, String)]) -> String {
    c.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(s: &Samples, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failed == 0,
        s.attempted,
        s.failed,
        body.join(", ")
    )
}

/// Median of a non-empty sample.
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let body = &json[json.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    }

    #[test]
    fn metrics_match_the_benchmark_definition() {
        let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("per_layer"), per_layer);
        assert_eq!(
            declared("end_to_end"),
            ["wall_s", "records_per_s", "peak_rss_mb", "setup_s"]
        );
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("workloads"), names);
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let s = Samples {
            attempted: 4,
            failed: 1,
            ..Samples::default()
        };
        assert_eq!(
            result_json(&s, &[("wall_s", 1.5, "s")]),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
