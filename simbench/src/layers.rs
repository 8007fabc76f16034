//! The per-layer table of one traced round, one row per metric, named
//! `<crate>.<metric>` after the workspace crate whose work it measures.
//!
//! Host time comes from the simulator's own profiler (per-phase self
//! time divided by the references simulated); work counts come from
//! `RunReport`, `System::metrics()` and the STUs' statistics; simulated
//! waiting comes from the breakdown-only tracer as mean cycles per
//! stage.

use deact::{FamTraffic, LatencyBreakdown, Stage};
use fam_sim::stats::{geomean, Ratio};
use fam_sim::{Metric, PhaseId, ProfileReport};

use crate::Run;

/// One row: name, unit, value.
pub type Row = (&'static str, &'static str, f64);

/// Builds the table from a traced round whose runs all succeeded, and
/// the host seconds its generators took to drain outside the engine.
pub fn table(round: &[Run], drain_s: f64) -> Vec<Row> {
    let done: Vec<_> = round
        .iter()
        .map(|r| {
            r.outcome
                .as_ref()
                .expect("only successful rounds are tabled")
        })
        .collect();
    let refs = round.iter().map(|r| r.refs).sum::<u64>() as f64;

    let mut prof = ProfileReport::new();
    let mut lat = LatencyBreakdown::new();
    let mut fam = FamTraffic::default();
    for d in &done {
        prof.merge(&d.report.profile);
        lat.merge(&d.report.latency);
        fam.merge(&d.report.fam);
    }
    let self_ns = |p: PhaseId| prof.phase(p).self_ns as f64;
    let ns_per_ref = |phases: &[PhaseId]| phases.iter().map(|&p| self_ns(p)).sum::<f64>() / refs;
    let calls_per_ref = |p: PhaseId| prof.phase(p).calls as f64 / refs;
    // Registry entries are per node, module or STU (`node3/dram_reads`);
    // sum the counters and merge the ratios of one kind over every run.
    let counters = |prefix: &str, suffix: &str| -> f64 {
        let mut sum = 0u64;
        for d in &done {
            for (name, m) in d.metrics.iter() {
                let hit = name.starts_with(prefix) && name.ends_with(suffix);
                if let (true, Metric::Counter(c)) = (hit, m) {
                    sum += c.value();
                }
            }
        }
        sum as f64
    };
    let ratio = |prefix: &str, suffix: &str| -> f64 {
        let mut merged = Ratio::new();
        for d in &done {
            for (name, m) in d.metrics.iter() {
                let hit = name.starts_with(prefix) && name.ends_with(suffix);
                if let (true, Metric::Ratio(r)) = (hit, m) {
                    merged.merge(*r);
                }
            }
        }
        merged.rate()
    };
    let mean_cycles = |stage: Stage| lat.stage(stage).mean();
    let translation: Vec<f64> = done
        .iter()
        .filter_map(|d| d.report.translation_hit_rate)
        .collect();
    let coverage = done
        .iter()
        .zip(round)
        .map(|(d, r)| d.report.fast_path_coverage * r.refs as f64)
        .sum::<f64>()
        / refs;

    vec![
        (
            "deact.sched_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::SchedPop, PhaseId::SchedDispatch]),
        ),
        (
            "deact.fastpath_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::FastpathClassify, PhaseId::FastpathRetire]),
        ),
        ("deact.fast_path_coverage", "ratio", coverage),
        (
            "deact.unattributed_share",
            "ratio",
            self_ns(PhaseId::SchedDispatch) / prof.total_self_ns() as f64,
        ),
        (
            "deact.translation_hit_rate",
            "ratio",
            translation.iter().sum::<f64>() / translation.len() as f64,
        ),
        ("deact.run_s", "s", round.iter().map(|r| r.run_s).sum()),
        ("deact.audit_s", "s", round.iter().map(|r| r.audit_s).sum()),
        (
            "deact.sim_tcache_cycles",
            "cycles",
            mean_cycles(Stage::TranslationCache),
        ),
        (
            "deact.sim_ipc",
            "instr/cycle",
            geomean(&done.iter().map(|d| d.report.ipc).collect::<Vec<_>>()),
        ),
        (
            "deact.sim_cycles",
            "cycles",
            done.iter().map(|d| d.report.cycles as f64).sum(),
        ),
        (
            "fam-workloads.gen_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::BatchGen]),
        ),
        (
            "fam-workloads.drain_ns_per_ref",
            "ns/ref",
            drain_s * 1e9 / refs,
        ),
        (
            "fam-vm.tlb_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::Tlb]),
        ),
        ("fam-vm.tlb_hit_rate", "ratio", ratio("node", "/tlb")),
        (
            "fam-vm.walk_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::PageWalk]),
        ),
        (
            "fam-vm.walks_per_ref",
            "1/ref",
            calls_per_ref(PhaseId::PageWalk),
        ),
        (
            "fam-mem.cache_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::CacheHierarchy]),
        ),
        (
            "fam-mem.cache_accesses_per_ref",
            "1/ref",
            calls_per_ref(PhaseId::CacheHierarchy),
        ),
        ("fam-mem.llc_hit_rate", "ratio", ratio("node", "/llc")),
        (
            "fam-mem.nvm_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::Nvm]),
        ),
        (
            "fam-mem.nvm_ops_per_ref",
            "1/ref",
            (counters("nvm", "/reads") + counters("nvm", "/writes")) / refs,
        ),
        (
            "fam-mem.dram_ops_per_ref",
            "1/ref",
            (counters("node", "/dram_reads") + counters("node", "/dram_writes")) / refs,
        ),
        (
            "fam-mem.nvm_admission_stalls",
            "count",
            counters("nvm", "/admission_stalls"),
        ),
        (
            "fam-mem.sim_nvm_cycles",
            "cycles",
            mean_cycles(Stage::NvmAccess),
        ),
        (
            "fam-stu.stu_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::Stu]),
        ),
        (
            "fam-stu.lookups_per_ref",
            "1/ref",
            done.iter().map(|d| d.stu_lookups as f64).sum::<f64>() / refs,
        ),
        ("fam-stu.acm_hit_rate", "ratio", ratio("stu", "/acm")),
        (
            "fam-stu.sim_walk_cycles",
            "cycles",
            mean_cycles(Stage::StuWalk),
        ),
        (
            "fam-fabric.fabric_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::Fabric]),
        ),
        (
            "fam-fabric.traversals_per_ref",
            "1/ref",
            counters("fabric/", "traversals") / refs,
        ),
        ("fam-fabric.at_share", "ratio", fam.at_percent() / 100.0),
        (
            "fam-fabric.sim_send_cycles",
            "cycles",
            mean_cycles(Stage::FabricSend),
        ),
        (
            "fam-broker.faults_per_ref",
            "1/ref",
            done.iter().map(|d| d.report.faults as f64).sum::<f64>() / refs,
        ),
        (
            "fam-sim.heap_pop_ns_per_ref",
            "ns/ref",
            ns_per_ref(&[PhaseId::SchedPop]),
        ),
    ]
}
