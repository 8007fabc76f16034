//! Scheduler guarantees: pinned reports and repeat determinism.
//!
//! The event-queue scheduler ([`deact::System::try_run`]) replaced the
//! seed's all-cores rescan purely as a complexity optimisation: O(log n)
//! heap maintenance per reference instead of O(n) sweeps. The rescan
//! has since been deleted; each case below keeps its old configuration
//! — schemes, node counts, fault injection — and pins the digest of the
//! report both schedulers agreed on, bit for bit, when it went.

mod common;

use common::{assert_pinned, digest, run};
use deact::{Scheme, System, SystemConfig};
use fam_sim::FaultConfig;
use fam_workloads::Workload;

#[test]
fn heap_scheduler_matches_scan_single_node() {
    let actual: Vec<_> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let cfg = SystemConfig::paper_default()
                .with_scheme(scheme)
                .with_refs_per_core(3_000)
                .with_seed(17);
            (format!("1-node {scheme}"), digest(&run(cfg, "astar")))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("1-node E-FAM", 0xafdd9e96bd1466b6),
            ("1-node I-FAM", 0x9199166cf61e6df1),
            ("1-node DeACT-W", 0xeb65735db5d00169),
            ("1-node DeACT-N", 0xbb0c0ca40d6257d4),
        ],
    );
}

#[test]
fn heap_scheduler_matches_scan_eight_nodes_four_cores() {
    // The configuration where the scan's O(nodes × cores) cost — and
    // any tie-break divergence — would be most visible: 32 cores
    // contending for one fabric and FAM pool.
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_nodes(8)
        .with_fam_modules(8)
        .with_refs_per_core(600)
        .with_seed(99);
    let actual: Vec<_> = [Scheme::DeactN, Scheme::IFam]
        .into_iter()
        .map(|scheme| {
            let report = run(cfg.with_scheme(scheme), "pf");
            (format!("8x4-core {scheme}"), digest(&report))
        })
        .collect();
    assert_pinned(
        &actual,
        &[
            ("8x4-core DeACT-N", 0xf1b31819c197f6ac),
            ("8x4-core I-FAM", 0x10b1a6dfc6a04cd3),
        ],
    );
}

#[test]
fn heap_scheduler_matches_scan_translation_hostile_workload() {
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::IFam)
        .with_refs_per_core(4_000)
        .with_seed(5);
    let actual = [("sssp I-FAM".to_string(), digest(&run(cfg, "sssp")))];
    assert_pinned(&actual, &[("sssp I-FAM", 0xe9627773dcbeb59f)]);
}

#[test]
fn heap_scheduler_matches_scan_under_fault_injection() {
    // Fault recovery exercises the retry/backoff paths and the
    // corruption scratch buffer.
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_refs_per_core(2_000)
        .with_seed(23)
        .with_fault_injection(FaultConfig::transient(7));
    let report = run(cfg, "canl");
    assert!(report.recovery.injected_total() > 0, "faults were injected");
    let actual = [("faulty DeACT-N".to_string(), digest(&report))];
    assert_pinned(&actual, &[("faulty DeACT-N", 0xc28f60bf67f2ff66)]);
}

#[test]
fn heap_scheduler_is_deterministic_across_repeats() {
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactW)
        .with_nodes(2)
        .with_refs_per_core(1_500)
        .with_seed(3);
    let w = Workload::by_name("dc").unwrap();
    let a = System::new(cfg, &w).try_run().unwrap();
    let b = System::new(cfg, &w).try_run().unwrap();
    assert_eq!(a, b);
}
