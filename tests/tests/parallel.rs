//! Reports the intra-run parallel engine had to reproduce.
//!
//! A sharded epoch engine once split each epoch into a concurrent
//! retirement phase and a sequential commit phase, and this file
//! proved its fixed-seed reports bit-identical to the sequential
//! engine at every thread count. That engine is gone: the exact heap
//! loop in [`deact::System::try_run`] is the only one. Each case keeps
//! its old configuration — all four schemes on 1, 4 and 16 nodes, fault
//! injection, tracing, persistent failures — and pins the digest of the
//! report every engine agreed on when the shards were removed, so the
//! remaining loop must still reproduce it. Repeat runs stand in for the
//! old thread counts: a report never depends on the machine it ran on.

mod common;

use common::{assert_pinned, digest, run};
use deact::{Scheme, System, SystemConfig};
use fam_sim::{FaultConfig, PersistentFault, TraceConfig};
use fam_workloads::Workload;

fn nodes_cfg(scheme: Scheme, nodes: usize) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_nodes(nodes)
        .with_fam_modules(nodes.max(1))
        .with_seed(31)
}

/// Digests of `bench` under every scheme on `nodes` nodes.
fn all_schemes(nodes: usize, refs: u64, bench: &str) -> Vec<(String, u64)> {
    Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let cfg = nodes_cfg(scheme, nodes).with_refs_per_core(refs);
            let label = format!("{nodes}-node {bench} {scheme}");
            (label, digest(&run(cfg, bench)))
        })
        .collect()
}

#[test]
fn parallel_matches_sequential_all_schemes_single_node() {
    assert_pinned(
        &all_schemes(1, 2_000, "astar"),
        &[
            ("1-node astar E-FAM", 0x766f947c5e65eec0),
            ("1-node astar I-FAM", 0xfbe325838d3b0000),
            ("1-node astar DeACT-W", 0x698304e4e358996c),
            ("1-node astar DeACT-N", 0x42d1801eb256872f),
        ],
    );
}

#[test]
fn parallel_matches_sequential_all_schemes_four_nodes() {
    assert_pinned(
        &all_schemes(4, 800, "pf"),
        &[
            ("4-node pf E-FAM", 0x2c97e3cbf58e1e29),
            ("4-node pf I-FAM", 0xa6eb3e6332862436),
            ("4-node pf DeACT-W", 0x497494c0dfaf2d38),
            ("4-node pf DeACT-N", 0x89d6447a501169e3),
        ],
    );
}

#[test]
fn parallel_matches_sequential_all_schemes_sixteen_nodes() {
    // 16 nodes, 64 cores: maximal cross-node contention for the trunk.
    assert_pinned(
        &all_schemes(16, 300, "sssp"),
        &[
            ("16-node sssp E-FAM", 0xee01427a838a985d),
            ("16-node sssp I-FAM", 0xb9d302297d1738a4),
            ("16-node sssp DeACT-W", 0x1dfd53d0707dc995),
            ("16-node sssp DeACT-N", 0xe9e783ec2a8d67bd),
        ],
    );
}

#[test]
fn parallel_matches_sequential_under_fault_injection() {
    // Injected faults draw from the shared injector RNG on every FAM
    // round trip, so the draw order is observable.
    let actual: Vec<_> = [4, 16]
        .into_iter()
        .map(|nodes| {
            let cfg = nodes_cfg(Scheme::DeactN, nodes)
                .with_refs_per_core(500)
                .with_fault_injection(FaultConfig::transient(7));
            let report = run(cfg, "canl");
            assert!(report.recovery.injected_total() > 0, "{nodes}: no faults");
            (format!("faulty {nodes}-node DeACT-N"), digest(&report))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("faulty 4-node DeACT-N", 0x66c855e60361a6dc),
            ("faulty 16-node DeACT-N", 0x6db9e4cb4cb1ebc7),
        ],
    );
}

#[test]
fn parallel_matches_sequential_with_tracing() {
    let mut actual = Vec::new();
    for (name, trace) in [
        ("breakdown", TraceConfig::breakdown_only()),
        ("full", TraceConfig::full()),
    ] {
        for scheme in [Scheme::DeactW, Scheme::EFam] {
            let cfg = nodes_cfg(scheme, 4)
                .with_refs_per_core(600)
                .with_trace(trace);
            let report = run(cfg, "dc");
            assert!(!report.latency.is_empty(), "{name} {scheme}: traced");
            actual.push((format!("{name}-traced 4-node {scheme}"), digest(&report)));
        }
    }
    assert_pinned(
        &actual,
        &[
            ("breakdown-traced 4-node DeACT-W", 0x597fd6b62393a4d6),
            ("breakdown-traced 4-node E-FAM", 0xc3a29a31396cfa05),
            ("full-traced 4-node DeACT-W", 0x597fd6b62393a4d6),
            ("full-traced 4-node E-FAM", 0xc3a29a31396cfa05),
        ],
    );
}

#[test]
fn parallel_matches_sequential_with_faults_and_tracing_together() {
    let cfg = nodes_cfg(Scheme::IFam, 4)
        .with_refs_per_core(500)
        .with_fault_injection(FaultConfig::transient(3))
        .with_trace(TraceConfig::full());
    let actual = [(
        "faulty traced 4-node I-FAM".to_string(),
        digest(&run(cfg, "pf")),
    )];
    assert_pinned(
        &actual,
        &[("faulty traced 4-node I-FAM", 0x329db1a9e36aff3e)],
    );
}

#[test]
fn parallel_report_is_thread_count_invariant() {
    let cfg = nodes_cfg(Scheme::DeactN, 4).with_refs_per_core(600);
    let first = run(cfg, "astar");
    for repeat in 1..3 {
        assert_eq!(run(cfg, "astar"), first, "repeat {repeat}");
    }
    let actual = [("4-node astar DeACT-N".to_string(), digest(&first))];
    assert_pinned(&actual, &[("4-node astar DeACT-N", 0x229a330a6baaafe9)]);
}

#[test]
fn persistent_faults_are_thread_and_tracing_invariant() {
    // A permanent failure mid-run — retry-budget burn, broker
    // evacuation, table rewrites, broadcast shootdown, degraded-mode
    // poisoning — yields the same DegradationReport whether or not the
    // tracer watched.
    let mut actual = Vec::new();
    for fault in [
        PersistentFault::NodeDead { module: 1 },
        PersistentFault::LinkSevered { module: 1 },
        PersistentFault::MediaFailed {
            first_page: 0,
            pages: 256,
        },
    ] {
        for scheme in [Scheme::EFam, Scheme::DeactN] {
            let cfg = nodes_cfg(scheme, 2)
                .with_refs_per_core(2_000)
                .with_fault_injection(FaultConfig::transient(7).with_persistent(fault, 400));
            let report = run(cfg, "sssp");
            assert!(
                !report.degradation.is_zero(),
                "{fault:?}/{scheme}: the persistent fault never struck"
            );
            let traced = run(cfg.with_trace(TraceConfig::full()), "sssp");
            assert_eq!(
                report.degradation, traced.degradation,
                "{fault:?}/{scheme}: tracing changed the degradation report"
            );
            actual.push((format!("{fault:?} sssp {scheme}"), digest(&report)));
        }
    }
    assert_pinned(
        &actual,
        &[
            ("NodeDead { module: 1 } sssp E-FAM", 0x5ba10cc970201d89),
            ("NodeDead { module: 1 } sssp DeACT-N", 0xb29b6fb831904de8),
            ("LinkSevered { module: 1 } sssp E-FAM", 0xca66dbab741842b3),
            ("LinkSevered { module: 1 } sssp DeACT-N", 0xc87170d0a2e1348e),
            (
                "MediaFailed { first_page: 0, pages: 256 } sssp E-FAM",
                0x6c6ab18820da88f7,
            ),
            (
                "MediaFailed { first_page: 0, pages: 256 } sssp DeACT-N",
                0x1b963ea17e2ff7f8,
            ),
        ],
    );
}

/// Digests of 4-node `sssp` under `schemes`, with `trace` and `faults`.
fn four_node_sssp(
    schemes: &[Scheme],
    refs: u64,
    trace: Option<TraceConfig>,
    faults: Option<FaultConfig>,
    label: &str,
) -> Vec<(String, u64)> {
    schemes
        .iter()
        .map(|&scheme| {
            let mut cfg = nodes_cfg(scheme, 4).with_refs_per_core(refs);
            if let Some(trace) = trace {
                cfg = cfg.with_trace(trace);
            }
            if let Some(faults) = faults {
                cfg = cfg.with_fault_injection(faults);
            }
            (format!("{label} {scheme}"), digest(&run(cfg, "sssp")))
        })
        .collect()
}

#[test]
fn sharded_fam_retirement_matches_the_exact_engine() {
    let actual = four_node_sssp(&Scheme::ALL, 1_500, None, None, "4-node sssp");
    assert_pinned(
        &actual,
        &[
            ("4-node sssp E-FAM", 0x8dcd33f632c434ab),
            ("4-node sssp I-FAM", 0xc4250d1109e6dd26),
            ("4-node sssp DeACT-W", 0xb3cb9d0833dbb092),
            ("4-node sssp DeACT-N", 0xc5d3c3120a9944aa),
        ],
    );
}

#[test]
fn sharded_fam_retirement_with_tracing_matches_the_exact_engine() {
    let mut actual = Vec::new();
    for (name, trace) in [
        ("breakdown", TraceConfig::breakdown_only()),
        ("full", TraceConfig::full()),
    ] {
        actual.extend(four_node_sssp(
            &[Scheme::IFam, Scheme::DeactN],
            1_000,
            Some(trace),
            None,
            &format!("{name}-traced 4-node sssp"),
        ));
    }
    assert_pinned(
        &actual,
        &[
            ("breakdown-traced 4-node sssp I-FAM", 0xb470df1a5467d693),
            ("breakdown-traced 4-node sssp DeACT-N", 0xf355e13b5ebd88ec),
            ("full-traced 4-node sssp I-FAM", 0xb470df1a5467d693),
            ("full-traced 4-node sssp DeACT-N", 0xf355e13b5ebd88ec),
        ],
    );
}

#[test]
fn sharded_engine_under_faults_matches_the_exact_engine() {
    // Transient bursts, then the same bursts with a mid-run strike.
    let transient = FaultConfig::transient(7);
    let persistent =
        FaultConfig::transient(7).with_persistent(PersistentFault::NodeDead { module: 1 }, 400);
    let mut actual = Vec::new();
    for (label, fc) in [("transient", transient), ("persistent", persistent)] {
        actual.extend(four_node_sssp(
            &[Scheme::EFam, Scheme::DeactN],
            800,
            None,
            Some(fc),
            &format!("{label} 4-node sssp"),
        ));
    }
    assert_pinned(
        &actual,
        &[
            ("transient 4-node sssp E-FAM", 0xc1991b5c9aae2452),
            ("transient 4-node sssp DeACT-N", 0x31bb6d495cccd922),
            ("persistent 4-node sssp E-FAM", 0x55df31be6bb826c7),
            ("persistent 4-node sssp DeACT-N", 0x5f8189b006de0366),
        ],
    );
}

#[test]
fn one_thread_delegates_to_the_sequential_engine() {
    let cfg = nodes_cfg(Scheme::EFam, 2).with_refs_per_core(800);
    let report = run(cfg, "sssp");
    let w = Workload::by_name("sssp").unwrap();
    assert_eq!(
        System::new(cfg, &w).run(),
        report,
        "run is try_run without the Result"
    );
    let actual = [("2-node sssp E-FAM".to_string(), digest(&report))];
    assert_pinned(&actual, &[("2-node sssp E-FAM", 0x37c6e0314a73afa7)]);
}
