//! Table II reproduction: benchmarks, trace sizes/times, and the critical
//! variables AutoCheck identifies for each.
//!
//! Run with: `cargo run --release -p autocheck-bench --bin table2 [scale]`
//! where scale is `small` (default), `medium`, or `large`.

use autocheck_apps::{all_apps_scaled, analyze_app, Scale};
use autocheck_bench::{critical_cell, mclr_cell, secs, Table};
use autocheck_core::outln;
use autocheck_trace::stats::human_bytes;

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("medium") => Scale::Medium,
        Some("large") => Scale::Large,
        _ => Scale::Small,
    };
    outln!("=== Table II: benchmarks, traces, and identified critical variables ({scale:?} inputs) ===\n");
    let mut table = Table::new(&[
        "Name",
        "LOC",
        "Trace size",
        "Trace gen (s)",
        "Records",
        "Critical variables (dependency type)",
        "MCLR",
    ]);
    let mut total_vars = 0usize;
    for spec in all_apps_scaled(scale) {
        let run = analyze_app(&spec);
        total_vars += run.report.critical.len();
        table.row(vec![
            spec.name.to_string(),
            spec.loc().to_string(),
            human_bytes(run.trace_bytes),
            secs(run.trace_gen_time),
            run.records.len().to_string(),
            critical_cell(&run.report),
            mclr_cell(&spec),
        ]);
    }
    outln!("{}", table.render());
    outln!("total critical variables across the suite: {total_vars}");
    outln!("(paper: 102 across the original 14 benchmarks; the skeletons keep each");
    outln!(" benchmark's named critical variables and dependency classes)");
}
