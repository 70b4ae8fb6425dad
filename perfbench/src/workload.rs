//! The benchmark's workloads: what each one runs, why it was chosen, and the
//! seeded program it runs on.
//!
//! Every input is an `autocheck_apps` program whose ground truth is its
//! `AppSpec::expected`. The seed changes only the *data* the program starts
//! from (literal values in its initialisation), never its loop structure, so
//! every seed yields the same verdicts.

use autocheck_apps::{cg, is, AppSpec};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial streaming analysis of a large binary cg trace file, read
    /// through `StreamAnalyzer::run_read(BufReader<File>)` — the
    /// `autocheck --stream` path. Binary decode and the engine fold (region,
    /// MLI, DDG, stats) share its time about half and half, and its memory
    /// is the O(live window) of the fold. Chosen because binary-decode and
    /// engine-fold changes must show here, while batch-side changes must
    /// leave it unchanged.
    StreamBin,
    /// Batch `Analyzer::analyze_path` on a text trace of `is`. Text decode is
    /// most of the wall time and the records are materialized, so peak RSS
    /// is O(trace). Chosen because text-decode changes and the
    /// batch-as-engine refactor (RSS down to the live window) must show
    /// here. `is` rather than cg so that the RAPO verdict path runs
    /// (`key_array`, `bucket_ptrs`).
    BatchText,
    /// `Machine::run` on the stream-bin cg program into a `BinarySink`
    /// writing a file: interpreter and encoder, no analysis. Chosen because
    /// it is the write side of the format stream-bin reads, so a format
    /// change that speeds decode but slows encode shows here, and a
    /// streaming binary writer must show on its peak RSS.
    CaptureBin,
}

/// cg at the reference size: n = 128, 60 outer iterations, 8 CG steps
/// (about 8.07M records, 598 MB as binary).
pub const CG_SCALE: (usize, usize, usize) = (128, 60, 8);
/// is at the reference size: 200 ranking iterations over 32 buckets (about
/// 1.2M records).
pub const IS_SCALE: (usize, usize) = (200, 32);

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::StreamBin,
        Workload::BatchText,
        Workload::CaptureBin,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamBin => "stream-bin",
            Workload::BatchText => "batch-text",
            Workload::CaptureBin => "capture-bin",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The program this workload runs for `seed`, at the reference size.
    pub fn spec(self, seed: u64) -> AppSpec {
        match self {
            Workload::StreamBin | Workload::CaptureBin => {
                let (n, iters, steps) = CG_SCALE;
                seeded_cg(n, iters, steps, seed)
            }
            Workload::BatchText => {
                let (iters, buckets) = IS_SCALE;
                seeded_is(iters, buckets, seed)
            }
        }
    }
}

/// cg with seed-dependent matrix diagonal and starting vector.
pub fn seeded_cg(n: usize, iters: usize, steps: usize, seed: u64) -> AppSpec {
    let mut spec = cg::spec_scaled(n, iters, steps);
    let h = splitmix64(seed);
    let diag = 2.0 + (h % 100) as f64 * 0.01;
    let spread = 0.05 + ((h >> 8) % 10) as f64 * 0.01;
    let x0 = 0.5 + ((h >> 16) % 100) as f64 * 0.01;
    replace_once(
        &mut spec.source,
        "a[i] = 2.0 + float(i % 5) * 0.1;",
        &format!("a[i] = {diag:.2} + float(i % 5) * {spread:.2};"),
    );
    replace_once(&mut spec.source, "x[i] = 1.0;", &format!("x[i] = {x0:.2};"));
    spec
}

/// is with seed-dependent initial keys.
pub fn seeded_is(iters: usize, buckets: usize, seed: u64) -> AppSpec {
    let mut spec = is::spec_scaled(iters, buckets);
    let h = splitmix64(seed);
    let mul = 3 + 2 * (h % 30);
    let add = (h >> 8) % 64;
    replace_once(
        &mut spec.source,
        "key_array[i] = (i * 7 + 3) % 64;",
        &format!("key_array[i] = (i * {mul} + {add}) % 64;"),
    );
    spec
}

/// Replace the one occurrence of `from`. Panics when the program template
/// no longer contains it exactly once, so a changed template cannot quietly
/// turn every seed into the same program.
fn replace_once(source: &mut String, from: &str, to: &str) {
    assert_eq!(
        source.matches(from).count(),
        1,
        "seeding expects exactly one `{from}` in the program"
    );
    *source = source.replacen(from, to, 1);
}

/// SplitMix64: a well-mixed 64-bit value from a seed.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_interp::{CountSink, ExecOptions, Machine, NoHook};

    fn records(spec: &AppSpec) -> u64 {
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let mut sink = CountSink::default();
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        sink.count
    }

    #[test]
    fn seeds_change_data_not_loop_structure() {
        for make in [
            |seed| seeded_cg(12, 5, 4, seed),
            |seed| seeded_is(10, 16, seed),
        ] {
            let base: AppSpec = make(0);
            let count = records(&base);
            let mut sources = std::collections::BTreeSet::new();
            for seed in 0..8 {
                let spec = make(seed);
                assert_eq!(spec.region.start_line, base.region.start_line);
                assert_eq!(spec.region.end_line, base.region.end_line);
                assert_eq!(spec.source.lines().count(), base.source.lines().count());
                assert_eq!(records(&spec), count, "{} seed {seed}", spec.name);
                sources.insert(spec.source);
            }
            assert!(sources.len() > 4, "seeds barely change {}", base.name);
        }
    }

    #[test]
    fn reference_programs_compile_for_any_seed() {
        for w in Workload::ALL {
            for seed in [0, 1, u64::MAX] {
                autocheck_minilang::compile(&w.spec(seed).source).expect("compiles");
            }
        }
        assert_eq!(Workload::parse("batch-text"), Some(Workload::BatchText));
        assert_eq!(Workload::parse("batch"), None);
    }
}
