//! The paper's 14 HPC benchmarks, rewritten in MiniLang.
//!
//! Table II of the paper evaluates AutoCheck on HPCCG, Himeno, the NAS
//! Parallel Benchmarks (CG, MG, FT, SP, EP, IS, BT, LU), three ECP proxy
//! apps (CoMD, miniAMR, AMG) and HACC. We cannot ship those C/C++ sources,
//! so each benchmark is rewritten as a scaled-down MiniLang kernel that
//! preserves exactly what AutoCheck analyzes: **the named variables and
//! their read/write patterns** across the main computation loop — each
//! paper-reported critical variable appears under its original name with
//! its original dependency class (WAR / RAPO / Outcome / Index), and each
//! paper-reported *non*-critical variable (e.g. CG's `z, p, q, r, A`)
//! appears with the access pattern that makes it skippable.
//!
//! Every app module provides a [`AppSpec`] with the source, the main
//! computation loop's location (the MCLR column of Table II, found via
//! `// @loop-start` / `// @loop-end` markers), and the expected critical
//! set. [`analyze_app`] runs the full substrate chain — compile → trace →
//! loop pass → AutoCheck — and is what the tests, examples and benchmark
//! harness all share.

#![forbid(unsafe_code)]

pub mod amg;
pub mod bt;
pub mod cg;
pub mod comd;
pub mod ep;
pub mod ft;
pub mod hacc;
pub mod himeno;
pub mod hpccg;
pub mod is;
pub mod lu;
pub mod mg;
pub mod miniamr;
pub mod sp;
pub mod spec;

pub use spec::{analyze_app, region_from_markers, try_region_from_markers, AppRun, AppSpec};

/// All 14 benchmarks at their default (analysis-friendly) sizes, in the
/// paper's Table II order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        himeno::spec(),
        hpccg::spec(),
        cg::spec(),
        mg::spec(),
        ft::spec(),
        sp::spec(),
        ep::spec(),
        is::spec(),
        bt::spec(),
        lu::spec(),
        comd::spec(),
        miniamr::spec(),
        amg::spec(),
        hacc::spec(),
    ]
}

/// Look up a benchmark by name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

/// Input-size presets for the benchmark harness (the paper uses small
/// inputs for trace analysis and larger ones for the storage study).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Default analysis-friendly sizes (seconds for the whole suite).
    Small,
    /// Bigger traces for timing studies (Table III).
    Medium,
    /// Large state for the storage study (Table IV).
    Large,
}

/// All 14 benchmarks at a given scale.
pub fn all_apps_scaled(scale: Scale) -> Vec<AppSpec> {
    match scale {
        Scale::Small => all_apps(),
        Scale::Medium => vec![
            himeno::spec_scaled(48, 16),
            hpccg::spec_scaled(48, 12),
            cg::spec_scaled(32, 8, 6),
            mg::spec_scaled(48, 16),
            ft::spec_scaled(48, 16),
            sp::spec_scaled(48, 16),
            ep::spec_scaled(256),
            is::spec_scaled(24, 16),
            bt::spec_scaled(48, 16),
            lu::spec_scaled(48, 16),
            comd::spec_scaled(48, 16),
            miniamr::spec_scaled(48, 16),
            amg::spec_scaled(32, 12),
            hacc::spec_scaled(48, 16),
        ],
        Scale::Large => vec![
            himeno::spec_scaled(192, 24),
            hpccg::spec_scaled(192, 20),
            cg::spec_scaled(96, 10, 8),
            mg::spec_scaled(192, 24),
            ft::spec_scaled(192, 24),
            sp::spec_scaled(192, 24),
            ep::spec_scaled(1024),
            is::spec_scaled(48, 32),
            bt::spec_scaled(192, 24),
            lu::spec_scaled(192, 24),
            comd::spec_scaled(192, 24),
            miniamr::spec_scaled(192, 24),
            amg::spec_scaled(96, 16),
            hacc::spec_scaled(192, 24),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_fourteen_apps() {
        let apps = all_apps();
        assert_eq!(apps.len(), 14);
        let mut names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "names are unique");
    }

    #[test]
    fn all_sources_compile_and_verify() {
        for app in all_apps() {
            autocheck_minilang::compile(&app.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {:?}", app.name, e));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("cg").is_some());
        assert!(app_by_name("hacc").is_some());
        assert!(app_by_name("nope").is_none());
    }
}
