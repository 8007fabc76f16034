//! Golden reports: fixed-seed runs pinned by digest.
//!
//! Every report in the matrix — the four schemes × {1 node, 4 nodes ×
//! 4 FAM modules} × {no faults, transient faults, a module dying
//! mid-run} × tracing off/on — is reduced to a 64-bit FNV-1a digest of
//! its `Debug` text and compared with the value pinned below. `f64`
//! fields print their shortest round-trip form, so a change to *any*
//! report field changes the digest: a refactor that claims to keep
//! reports bit-identical must leave this table alone, and a deliberate
//! model change must regenerate it (the failure message prints the
//! full replacement table).
//!
//! The digest leaves out what is not part of a report's identity: the
//! two always-zero coverage fields and the host-time `profile`.

mod common;

use common::{assert_pinned, digest, run};
use deact::{Scheme, SystemConfig};
use fam_sim::{FaultConfig, PersistentFault, TraceConfig};

#[derive(Debug, Clone, Copy)]
enum Topology {
    /// One node, two FAM modules (so a killed module leaves a survivor).
    Single,
    /// Four nodes over four FAM modules.
    Quad,
}

#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    Transient,
    NodeDead,
}

fn config(scheme: Scheme, topo: Topology, faults: Faults, traced: bool) -> SystemConfig {
    let cfg = SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_seed(41);
    let cfg = match topo {
        Topology::Single => cfg.with_fam_modules(2).with_refs_per_core(1_500),
        Topology::Quad => cfg
            .with_nodes(4)
            .with_fam_modules(4)
            .with_refs_per_core(400),
    };
    let cfg = match faults {
        Faults::None => cfg,
        Faults::Transient => cfg.with_fault_injection(FaultConfig::transient(7)),
        Faults::NodeDead => cfg.with_fault_injection(FaultConfig::persistent_only(
            11,
            PersistentFault::NodeDead { module: 1 },
            300,
        )),
    };
    if traced {
        cfg.with_trace(TraceConfig::full())
    } else {
        cfg
    }
}

/// Each matrix cell's label and report digest, in a fixed order.
fn matrix() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for scheme in Scheme::ALL {
        for (topo, bench) in [(Topology::Single, "astar"), (Topology::Quad, "pf")] {
            for faults in [Faults::None, Faults::Transient, Faults::NodeDead] {
                for traced in [false, true] {
                    let cfg = config(scheme, topo, faults, traced);
                    let report = run(cfg, bench);
                    match faults {
                        Faults::None => assert_eq!(report.recovery.injected_total(), 0),
                        Faults::Transient => assert!(report.recovery.injected_total() > 0),
                        Faults::NodeDead => assert!(!report.degradation.is_zero()),
                    }
                    assert_eq!(report.latency.is_empty(), !traced);
                    let trace = if traced { "traced" } else { "untraced" };
                    out.push((
                        format!("{scheme}/{topo:?}/{faults:?}/{trace}"),
                        digest(&report),
                    ));
                }
            }
        }
    }
    out
}

/// Pinned digests, in [`matrix`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("E-FAM/Single/None/untraced", 0x1440249362b825c5),
    ("E-FAM/Single/None/traced", 0x6ac5e7fc0a000c6f),
    ("E-FAM/Single/Transient/untraced", 0x71bf2451ec9581b5),
    ("E-FAM/Single/Transient/traced", 0x14576146937bd93d),
    ("E-FAM/Single/NodeDead/untraced", 0xd8d327f73855aa99),
    ("E-FAM/Single/NodeDead/traced", 0x16c92865753e6134),
    ("E-FAM/Quad/None/untraced", 0x01e86e67f0ff49cc),
    ("E-FAM/Quad/None/traced", 0xec0b2a1334aada75),
    ("E-FAM/Quad/Transient/untraced", 0x29670b07756915a1),
    ("E-FAM/Quad/Transient/traced", 0xca032956bd85419c),
    ("E-FAM/Quad/NodeDead/untraced", 0xb27711028ed6f4a1),
    ("E-FAM/Quad/NodeDead/traced", 0xc8b61e6d419c7358),
    ("I-FAM/Single/None/untraced", 0x99c8f618f9181f5d),
    ("I-FAM/Single/None/traced", 0x736290d6244f93c2),
    ("I-FAM/Single/Transient/untraced", 0xe72c37801c30ae09),
    ("I-FAM/Single/Transient/traced", 0x5d154eb2cacdc4a4),
    ("I-FAM/Single/NodeDead/untraced", 0x199a51d9e09b071e),
    ("I-FAM/Single/NodeDead/traced", 0xc062f6acfbd5b085),
    ("I-FAM/Quad/None/untraced", 0x337574c582c40a76),
    ("I-FAM/Quad/None/traced", 0xc8ca62c623188061),
    ("I-FAM/Quad/Transient/untraced", 0xd2f41aedffcdb9dd),
    ("I-FAM/Quad/Transient/traced", 0xb5335ed82f3255a7),
    ("I-FAM/Quad/NodeDead/untraced", 0x8820ddc95a9608f7),
    ("I-FAM/Quad/NodeDead/traced", 0x182209edf6d6a9bc),
    ("DeACT-W/Single/None/untraced", 0x1a4548d1b5beb909),
    ("DeACT-W/Single/None/traced", 0x67f966ac82aa9a8f),
    ("DeACT-W/Single/Transient/untraced", 0xcb333ff3deaa1f9d),
    ("DeACT-W/Single/Transient/traced", 0x869aed3a2ac7117d),
    ("DeACT-W/Single/NodeDead/untraced", 0x1a12b6cf9faed398),
    ("DeACT-W/Single/NodeDead/traced", 0xde6f30c6e35456cb),
    ("DeACT-W/Quad/None/untraced", 0xf89ed741022a38c8),
    ("DeACT-W/Quad/None/traced", 0x1abb22d18ff5573d),
    ("DeACT-W/Quad/Transient/untraced", 0x8fdd0fa422de4f69),
    ("DeACT-W/Quad/Transient/traced", 0x1a2290ddc760d865),
    ("DeACT-W/Quad/NodeDead/untraced", 0x40f97aedf3b0590d),
    ("DeACT-W/Quad/NodeDead/traced", 0x6196ee5a3b976f60),
    ("DeACT-N/Single/None/untraced", 0x36b82fa17bd37fc0),
    ("DeACT-N/Single/None/traced", 0x802af4cd260e19c3),
    ("DeACT-N/Single/Transient/untraced", 0x74006b51f6593257),
    ("DeACT-N/Single/Transient/traced", 0xd06677466d47c153),
    ("DeACT-N/Single/NodeDead/untraced", 0x9fd165ea498fc4d1),
    ("DeACT-N/Single/NodeDead/traced", 0x10618d001c82282e),
    ("DeACT-N/Quad/None/untraced", 0xb0acbfa5592d4017),
    ("DeACT-N/Quad/None/traced", 0x4fc798a3150c64dd),
    ("DeACT-N/Quad/Transient/untraced", 0xd63d4f4bec42d64a),
    ("DeACT-N/Quad/Transient/traced", 0x2362da71635bc4bf),
    ("DeACT-N/Quad/NodeDead/untraced", 0xed3c85069d1286ca),
    ("DeACT-N/Quad/NodeDead/traced", 0xb1bf4b556b73aeaa),
];

#[test]
fn reports_match_the_pinned_digests() {
    assert_pinned(&matrix(), GOLDEN);
}

#[test]
fn digest_sees_every_report_field() {
    let cfg = config(Scheme::DeactN, Topology::Single, Faults::None, false);
    let base = run(cfg, "astar");
    let d = digest(&base);
    let mut bumped = base.clone();
    bumped.cycles += 1;
    assert_ne!(digest(&bumped), d, "an integer field");
    let mut bumped = base.clone();
    bumped.ipc = f64::from_bits(bumped.ipc.to_bits() + 1);
    assert_ne!(digest(&bumped), d, "one ulp of a rate");
    let mut bumped = base.clone();
    bumped.fam.writebacks += 1;
    assert_ne!(digest(&bumped), d, "a nested traffic counter");
    let mut bumped = base.clone();
    bumped.degradation.pages_lost += 1;
    assert_ne!(digest(&bumped), d, "a degradation counter");
    // The excluded diagnostics do not move it.
    let mut diag = base;
    diag.fast_path_coverage = 0.5;
    diag.parallel_phase_coverage = 0.5;
    assert_eq!(digest(&diag), d);
}
