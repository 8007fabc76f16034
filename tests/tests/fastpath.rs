//! Reports the fused fast path had to reproduce.
//!
//! [`deact::System::try_run`] once retired provably node-local
//! references in a fused per-node sweep and fell back to an exact
//! scheduler for everything else; this file ran that split against the
//! exact engine, bit for bit. The split is gone and the exact heap loop
//! is `try_run` itself. Each case keeps its old differential
//! configuration — all four schemes, multi-node runs, tracing,
//! transient and persistent faults — and pins the digest of the report
//! the two engines agreed on when they were merged, so the one
//! remaining loop must still reproduce it.

mod common;

use common::{assert_pinned, digest, run};
use deact::{Scheme, SystemConfig};
use fam_sim::{FaultConfig, PersistentFault, TraceConfig};

fn base_cfg(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_seed(31)
}

#[test]
fn fast_path_matches_exact_all_schemes() {
    let actual: Vec<_> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let cfg = base_cfg(scheme).with_refs_per_core(2_000);
            (format!("sssp {scheme}"), digest(&run(cfg, "sssp")))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("sssp E-FAM", 0xec3aa6cd449d7cf2),
            ("sssp I-FAM", 0x0b9923a220749945),
            ("sssp DeACT-W", 0x2f78fab0a94dd90b),
            ("sssp DeACT-N", 0xb4e1cd48fe43b509),
        ],
    );
}

#[test]
fn fast_path_matches_exact_all_schemes_multi_node() {
    // Multi-node runs exercise remote references and the fabric trunk.
    let actual: Vec<_> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let cfg = base_cfg(scheme)
                .with_nodes(4)
                .with_fam_modules(4)
                .with_refs_per_core(600);
            (format!("4-node astar {scheme}"), digest(&run(cfg, "astar")))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("4-node astar E-FAM", 0xc9c315353dd7dac6),
            ("4-node astar I-FAM", 0xf88e09b4607da925),
            ("4-node astar DeACT-W", 0x9031a80547a7cad8),
            ("4-node astar DeACT-N", 0x229a330a6baaafe9),
        ],
    );
}

#[test]
fn fast_path_matches_exact_with_tracing() {
    let mut actual = Vec::new();
    for (name, trace) in [
        ("breakdown", TraceConfig::breakdown_only()),
        ("full", TraceConfig::full()),
    ] {
        for scheme in [Scheme::DeactN, Scheme::DeactW] {
            let cfg = base_cfg(scheme).with_refs_per_core(1_200).with_trace(trace);
            let report = run(cfg, "dc");
            assert!(!report.latency.is_empty(), "{name} {scheme}: traced");
            actual.push((format!("{name}-traced dc {scheme}"), digest(&report)));
        }
    }
    assert_pinned(
        &actual,
        &[
            ("breakdown-traced dc DeACT-N", 0x60adc0f616e9ebee),
            ("breakdown-traced dc DeACT-W", 0x6fb731c2e7f6469a),
            ("full-traced dc DeACT-N", 0x60adc0f616e9ebee),
            ("full-traced dc DeACT-W", 0x6fb731c2e7f6469a),
        ],
    );
}

#[test]
fn fast_path_matches_exact_under_transient_faults() {
    // Injected faults draw from the shared injector RNG on every FAM
    // round trip; a reference retired out of order would shift a draw
    // and desynchronise the whole schedule.
    let actual: Vec<_> = [Scheme::IFam, Scheme::DeactN]
        .into_iter()
        .map(|scheme| {
            let cfg = base_cfg(scheme)
                .with_refs_per_core(1_500)
                .with_fault_injection(FaultConfig::transient(7));
            let report = run(cfg, "canl");
            assert!(report.recovery.injected_total() > 0, "{scheme}: no faults");
            (format!("faulty canl {scheme}"), digest(&report))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("faulty canl I-FAM", 0x463d8db58aa78b56),
            ("faulty canl DeACT-N", 0x9012a07bd0af7bce),
        ],
    );
}

#[test]
fn fast_path_matches_exact_under_persistent_faults() {
    // Permanent failures rewrite translation state mid-run (broker
    // evacuation, shootdown, degraded mode).
    let mut actual = Vec::new();
    for fault in [
        PersistentFault::NodeDead { module: 1 },
        PersistentFault::MediaFailed {
            first_page: 0,
            pages: 256,
        },
    ] {
        for scheme in [Scheme::EFam, Scheme::DeactN] {
            let cfg = base_cfg(scheme)
                .with_nodes(2)
                .with_fam_modules(2)
                .with_refs_per_core(1_500)
                .with_fault_injection(FaultConfig::transient(7).with_persistent(fault, 400));
            let report = run(cfg, "sssp");
            assert!(
                !report.degradation.is_zero(),
                "{fault:?}/{scheme}: the persistent fault never struck"
            );
            actual.push((format!("{fault:?} sssp {scheme}"), digest(&report)));
        }
    }
    assert_pinned(
        &actual,
        &[
            ("NodeDead { module: 1 } sssp E-FAM", 0x1d5f484031d0a7dc),
            ("NodeDead { module: 1 } sssp DeACT-N", 0xc12a10d9d16eb346),
            (
                "MediaFailed { first_page: 0, pages: 256 } sssp E-FAM",
                0xfd1bb7cd622d9b4c,
            ),
            (
                "MediaFailed { first_page: 0, pages: 256 } sssp DeACT-N",
                0xa347daaaf90e3bc9,
            ),
        ],
    );
}

#[test]
fn fast_path_matches_exact_with_faults_and_tracing_together() {
    let cfg = base_cfg(Scheme::IFam)
        .with_refs_per_core(1_200)
        .with_fault_injection(FaultConfig::transient(3))
        .with_trace(TraceConfig::full());
    let actual = [(
        "faulty traced pf I-FAM".to_string(),
        digest(&run(cfg, "pf")),
    )];
    assert_pinned(&actual, &[("faulty traced pf I-FAM", 0x5d168e177b10bb93)]);
}

#[test]
fn coverage_is_an_engine_diagnostic_not_a_result() {
    // The coverage fields outlived the engines that filled them: they
    // read zero and take no part in report equality.
    let cfg = base_cfg(Scheme::DeactN).with_refs_per_core(2_000);
    let report = run(cfg, "sssp");
    assert_eq!(report.fast_path_coverage, 0.0, "no fast path remains");
    assert_eq!(report.parallel_phase_coverage, 0.0, "no parallel phase");
    let mut diag = report.clone();
    diag.fast_path_coverage = 0.5;
    diag.parallel_phase_coverage = 0.5;
    assert_eq!(diag, report, "coverage must not affect report equality");
}
