//! Printed time agrees with the wall clock.
//!
//! The totals a report prints (`Timings::total`, the CLI's `total` line)
//! must account for the call that produced them: ingest included, nothing
//! started late. Each front door below runs on a generated cg trace of at
//! least 200k records read from a binary file, and its printed total must
//! be at least 90% of the wall time measured around the call.

use autocheck_apps::cg;
use autocheck_core::{index_variables_of, Analyzer, Report, StreamAnalyzer};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

const MIN_RECORDS: u64 = 200_000;

fn assert_covers_wall(front_door: &str, report: &Report, wall: Duration) {
    assert!(
        report.records >= MIN_RECORDS,
        "{front_door}: only {} records",
        report.records
    );
    let printed = report.timings.total();
    assert!(
        printed.as_secs_f64() >= 0.9 * wall.as_secs_f64(),
        "{front_door}: printed total {printed:?} is below 90% of the call's wall time {wall:?}"
    );
}

#[test]
fn printed_totals_cover_the_wall_time_of_the_call() {
    let spec = cg::spec_scaled(64, 6, 8);
    let module = autocheck_minilang::compile(&spec.source).expect("compiles");
    let index = index_variables_of(&module, &spec.region);
    let dir = std::env::temp_dir().join(format!("autocheck-printed-time-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cg.bin");
    let mut sink = BinarySink::new(BufWriter::new(File::create(&path).unwrap()));
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    sink.finish().expect("trace written");

    let open = |p: &Path| BufReader::new(File::open(p).unwrap());
    let t = Instant::now();
    let run = StreamAnalyzer::new(spec.region.clone())
        .with_index_vars(index.clone())
        .run_read(open(&path))
        .expect("streams");
    assert_covers_wall("StreamAnalyzer::run_read", &run.report, t.elapsed());

    let t = Instant::now();
    let report = Analyzer::new(spec.region.clone())
        .with_index_vars(index)
        .analyze_path(&path)
        .expect("analyzes");
    assert_covers_wall("Analyzer::analyze_path", &report, t.elapsed());
    assert_eq!(report.summary(), run.report.summary());

    std::fs::remove_dir_all(&dir).ok();
}
