//! The tracing subsystem's cross-crate contracts.
//!
//! The headline guarantee mirrors the fault injector's: tracing is
//! *zero-overhead when off*. A disabled tracer costs one branch per
//! event site and changes nothing — proven here the same way
//! `scheduler.rs` proves scheduler equivalence, by comparing fixed-seed
//! [`RunReport`]s bit for bit. The other tests cover the bounded ring's
//! drop accounting, the Chrome trace-event exporter's output, the
//! windowed time series' books balancing against the run report, and
//! the event stream itself (ids, tracks, order) pinned by digest.

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::trace::{validate_chrome_json, write_chrome_trace};
use fam_sim::{FaultConfig, LatencyBreakdown, PersistentFault, TraceConfig, Track};
use fam_workloads::Workload;

fn run_with(cfg: SystemConfig) -> RunReport {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    System::new(cfg, &w).try_run().expect("run completes")
}

fn base(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(2_000)
        .with_seed(0x7ACE)
}

#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    for scheme in Scheme::ALL {
        let untraced = run_with(base(scheme));
        let mut traced = run_with(base(scheme).with_trace(TraceConfig::full()));
        assert!(
            !traced.latency.is_empty(),
            "{scheme}: a traced run must measure something"
        );
        // The *only* permitted difference is the latency block itself.
        traced.latency = LatencyBreakdown::default();
        assert_eq!(
            untraced, traced,
            "{scheme}: tracing must not perturb the simulation"
        );
    }
}

#[test]
fn traced_runs_are_bit_identical_under_fault_injection() {
    // The retry/backoff event sites sit inside the recovery loop; prove
    // they are observation-only even when that loop is exercised.
    let cfg = base(Scheme::DeactN).with_fault_injection(FaultConfig::transient(0xFA));
    let untraced = run_with(cfg);
    let mut traced = run_with(cfg.with_trace(TraceConfig::full()));
    assert!(untraced.recovery.retries > 0, "profile must inject faults");
    traced.latency = LatencyBreakdown::default();
    assert_eq!(untraced, traced);
}

#[test]
fn untraced_reports_carry_an_empty_breakdown() {
    let r = run_with(base(Scheme::DeactN));
    assert!(r.latency.is_empty());
    assert_eq!(r.latency, LatencyBreakdown::default());
}

#[test]
fn ring_overflow_is_counted_not_silent() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full().with_ring_capacity(64));
    let mut sys = System::new(cfg, &w);
    sys.try_run().expect("run completes");
    let t = sys.tracer();
    assert_eq!(t.retained(), 64, "ring fills to capacity");
    assert!(t.recorded() > 64, "the run emits more events than fit");
    assert_eq!(
        t.dropped(),
        t.recorded() - t.retained() as u64,
        "every overwritten event is accounted for"
    );
}

#[test]
fn chrome_trace_export_is_well_formed_and_spans_the_pipeline() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full());
    let mut sys = System::new(cfg, &w);
    sys.try_run().expect("run completes");

    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, sys.tracer(), 2000).expect("write succeeds");
    let text = String::from_utf8(buf).expect("exporter emits UTF-8");
    let events = validate_chrome_json(&text).expect("exporter emits valid JSON");
    assert!(events > 0, "a DeACT-N run must produce events");

    // The acceptance demo: at least one request's span set reaches
    // node → fabric → STU → NVM. Request ids live in `args.req`, so
    // scan the retained events directly.
    let crosses_pipeline = sys.tracer().events().any(|ev| {
        ev.req.is_traced()
            && matches!(ev.track, Track::Nvm(_))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Node(_)))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Stu(_)))
            && sys
                .tracer()
                .events()
                .any(|e| e.req == ev.req && matches!(e.track, Track::Fabric(_)))
    });
    assert!(
        crosses_pipeline,
        "some request must span node, fabric, STU and NVM tracks"
    );

    // The exporter's self-description matches the tracer's books.
    assert!(text.contains("\"schema\": \"deact-trace-v1\""));
    assert!(text.contains(&format!("\"recorded\": {}", sys.tracer().recorded())));
    assert!(text.contains(&format!("\"dropped\": {}", sys.tracer().dropped())));
}

#[test]
fn window_series_books_balance_against_the_report() {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let cfg = base(Scheme::DeactN).with_trace(TraceConfig::full().with_window_cycles(1 << 16));
    let mut sys = System::new(cfg, &w);
    let report = sys.try_run().expect("run completes");
    let series = sys.tracer().series();
    assert!(!series.samples().is_empty());
    let instructions: u64 = series.samples().iter().map(|s| s.instructions).sum();
    let fam_total: u64 = series.samples().iter().map(|s| s.fam_total).sum();
    let fam_at: u64 = series.samples().iter().map(|s| s.fam_at).sum();
    assert_eq!(instructions, report.instructions);
    assert_eq!(fam_total, report.fam.total());
    assert_eq!(fam_at, report.fam.at_total());
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The event stream of three fault-struck runs, pinned by digest: every
/// retained event's `(req, stage, track, start, end)` in ring order,
/// then the `recorded`/`dropped`/`requests_issued` books. The golden
/// matrix pins only the aggregated histograms; this pins which request
/// each span is charged to, on which track, and in what order.
#[test]
fn event_stream_is_pinned_under_faults() {
    let cases: [(&str, SystemConfig, u64); 3] = [
        (
            "i-fam/transient",
            base(Scheme::IFam).with_fault_injection(FaultConfig::transient(0xFA)),
            0xcf3e_e08d_af03_5e85,
        ),
        (
            "deact-n/2x2/transient+node-dead",
            base(Scheme::DeactN)
                .with_nodes(2)
                .with_fam_modules(2)
                .with_refs_per_core(800)
                .with_fault_injection(
                    FaultConfig::transient(0xFA)
                        .with_persistent(PersistentFault::NodeDead { module: 1 }, 500),
                ),
            0xd11b_7334_7fa3_99e8,
        ),
        (
            "e-fam/2x2/node-dead",
            base(Scheme::EFam)
                .with_nodes(2)
                .with_fam_modules(2)
                .with_refs_per_core(800)
                .with_fault_injection(FaultConfig::persistent_only(
                    11,
                    PersistentFault::NodeDead { module: 0 },
                    800,
                )),
            0x7bd0_bd65_7371_cf54,
        ),
    ];
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let mut actual = Vec::new();
    for (label, cfg, _) in cases {
        let cfg = cfg.with_trace(TraceConfig::full().with_ring_capacity(1 << 18));
        let mut sys = System::new(cfg, &w);
        let report = sys.try_run().expect("run completes");
        if label.contains("transient") {
            assert!(report.recovery.retries > 0, "{label}: faults must strike");
        }
        if label.contains("node-dead") {
            assert!(
                report.degradation.recovery_cycles > 0,
                "{label}: the module must die mid-run"
            );
        }
        let t = sys.tracer();
        assert_eq!(t.dropped(), 0, "{label}: the ring must hold every event");
        let mut text = String::new();
        for ev in t.events() {
            text.push_str(&format!(
                "{} {:?} {:?} {} {}\n",
                ev.req.0, ev.stage, ev.track, ev.start.0, ev.end.0
            ));
        }
        text.push_str(&format!(
            "{} {} {}",
            t.recorded(),
            t.dropped(),
            t.requests_issued()
        ));
        actual.push((label, fnv1a(text.as_bytes())));
    }
    let pinned: Vec<(&str, u64)> = cases.iter().map(|c| (c.0, c.2)).collect();
    assert_eq!(actual, pinned, "the traced event stream moved");
}
