//! Pinned-report helpers shared by the golden, scheduler, fast-path
//! and parallel test files.
//!
//! A report is reduced to a 64-bit FNV-1a digest of its `Debug` text
//! and compared with a value pinned in the test file. `f64` fields
//! print their shortest round-trip form, so a change to *any* report
//! field changes the digest.

use deact::{RunReport, System, SystemConfig};
use fam_workloads::Workload;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the `Debug` text of every `PartialEq`-visible field.
///
/// The two coverage fields are zeroed and the text stops before the
/// last field, the host-time `profile`: its `Debug` form lists one slot
/// per profiler phase, so it would move with the phase roster even
/// when no simulated quantity did.
pub fn digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.fast_path_coverage = 0.0;
    r.parallel_phase_coverage = 0.0;
    let text = format!("{r:?}");
    let end = text
        .rfind(", profile: ")
        .expect("profile is the last field");
    fnv1a(text[..end].bytes())
}

/// Runs the Table III benchmark `bench` under `cfg`.
pub fn run(cfg: SystemConfig, bench: &str) -> RunReport {
    let w = Workload::by_name(bench).expect("table3 benchmark");
    System::new(cfg, &w).try_run().expect("run completes")
}

/// Asserts `actual` equals `pinned`, label for label and digest for
/// digest. On a mismatch the panic prints the full replacement table,
/// for a deliberate model change to paste back in.
pub fn assert_pinned(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let matches = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((label, d), (plabel, pd))| label == plabel && d == pd);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n"))
            .collect();
        panic!("pinned reports moved; the current table is:\n{table}");
    }
}
