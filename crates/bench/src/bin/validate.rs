//! §VI-B reproduction: validation and characterization of the detected
//! variables — kill/restart success for all 14 benchmarks, plus the
//! dependency-type census.
//!
//! Run with: `cargo run --release -p autocheck-bench --bin validate`
//!
//! Single-file mode (what CI runs on the Fig. 4 example so the
//! analyze → protect → kill → restart chain is exercised per-PR):
//!
//! ```text
//! validate --file examples/fig4.mc --function main --start 16 --end 24
//! ```

use autocheck_apps::{all_apps, analyze_app};
use autocheck_bench::Table;
use autocheck_checkpoint::validate::validate_restart;
use autocheck_checkpoint::CrSpec;
use autocheck_core::{index_variables_of, outln, Analyzer, DepType, Region};

/// Analyze one MiniLang file, protect its critical set, kill at 60%, and
/// restart. Exits nonzero if the restarted output diverges.
fn validate_single_file(path: &str, function: &str, start: u32, end: u32) {
    outln!(
        "=== §VI-B single-file validation: {path} ({function} {start}..{end}, kill at 60%) ===\n"
    );
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"));
    let module = autocheck_minilang::compile(&source).expect("compiles");
    let mut sink = autocheck_interp::VecSink::default();
    autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
        .run(&mut sink, &mut autocheck_interp::NoHook)
        .expect("runs");
    let region = Region::new(function, start, end);
    let report = Analyzer::new(region.clone())
        .with_index_vars(index_variables_of(&module, &region))
        .analyze(&sink.records);
    let protected: Vec<String> = report.critical.iter().map(|c| c.name.to_string()).collect();
    outln!(
        "protected set: {protected:?} ({} bytes)",
        report.checkpoint_bytes()
    );
    let cr = CrSpec {
        region_fn: region.function.clone(),
        start_line: region.start_line,
        end_line: region.end_line,
        protected,
    };
    let dir = std::env::temp_dir().join(format!("autocheck-validate-file-{}", std::process::id()));
    let out = validate_restart(&module, &cr, &dir, 0.6).expect("validation runs");
    outln!(
        "failure at dyn {}, recovered step {:?}, checkpoint {} bytes: {}",
        out.failure_dyn_id,
        out.recovered_step,
        out.checkpoint_bytes,
        if out.matches { "OK" } else { "DIVERGED" }
    );
    let _ = std::fs::remove_dir_all(&dir);
    if !out.matches {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--file") {
        let get = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|j| args.get(j + 1))
                .cloned()
        };
        let path = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --file needs a path");
            std::process::exit(2);
        });
        let function = get("--function").unwrap_or_else(|| "main".to_string());
        let parse_u32 = |flag: &str| -> u32 {
            get(flag).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {flag} needs a line number");
                std::process::exit(2);
            })
        };
        validate_single_file(&path, &function, parse_u32("--start"), parse_u32("--end"));
        return;
    }
    outln!("=== §VI-B: validation of detected variables (kill at 60%, restart, compare) ===\n");
    let base = std::env::temp_dir().join(format!("autocheck-validate-{}", std::process::id()));
    let mut table = Table::new(&[
        "Name",
        "Protected",
        "Ckpt bytes",
        "Recovered step",
        "Restart",
    ]);
    let mut census = std::collections::BTreeMap::new();
    let mut all_ok = true;
    for spec in all_apps() {
        let run = analyze_app(&spec);
        for c in &run.report.critical {
            *census.entry(c.dep).or_insert(0usize) += 1;
        }
        let protected: Vec<String> = run
            .report
            .critical
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let cr = CrSpec {
            region_fn: spec.region.function.clone(),
            start_line: spec.region.start_line,
            end_line: spec.region.end_line,
            protected: protected.clone(),
        };
        let dir = base.join(spec.name);
        let out = validate_restart(&module, &cr, &dir, 0.6).expect("validation runs");
        all_ok &= out.matches;
        table.row(vec![
            spec.name.to_string(),
            protected.len().to_string(),
            out.checkpoint_bytes.to_string(),
            out.recovered_step
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            if out.matches { "OK" } else { "DIVERGED" }.to_string(),
        ]);
    }
    outln!("{}", table.render());

    outln!("dependency-type census across the suite:");
    for (dep, n) in &census {
        outln!("  {dep:<8} {n}");
    }
    let war = census.get(&DepType::War).copied().unwrap_or(0);
    let rest: usize = census
        .iter()
        .filter(|(d, _)| **d != DepType::War)
        .map(|(_, n)| n)
        .sum();
    outln!("\nWAR dominates ({war} vs {rest} others) — matching the paper's 76/95 skew.");
    outln!(
        "\nall restarts {}",
        if all_ok { "SUCCEEDED" } else { "FAILED" }
    );
    let _ = std::fs::remove_dir_all(&base);
    if !all_ok {
        std::process::exit(1);
    }
}
