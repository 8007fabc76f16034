//! End-to-end scheme behaviour across the whole stack: the qualitative
//! claims of the paper must hold on full-system runs.

use deact::{run_benchmark, Scheme, SystemConfig};

fn cfg(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(20_000)
        .with_seed(0xE2E)
}

#[test]
fn every_scheme_completes_every_benchmark_class() {
    // One representative per behaviour class: pointer-chaser,
    // strided sweep, hot-set graph, streaming.
    for bench in ["canl", "cactus", "bc", "mg"] {
        for scheme in Scheme::ALL {
            let r = run_benchmark(bench, cfg(scheme).with_refs_per_core(3_000));
            assert!(r.ipc > 0.0, "{bench}/{scheme}");
            assert!(r.instructions > 0, "{bench}/{scheme}");
            assert_eq!(r.scheme, scheme);
            assert_eq!(r.workload, bench);
        }
    }
}

#[test]
fn ifam_slowdown_ordering_matches_fig3() {
    // Fig. 3: translation-hostile benchmarks (cactus) suffer far more
    // from indirection than streaming ones (mg).
    let slowdown = |bench: &str| {
        let e = run_benchmark(bench, cfg(Scheme::EFam));
        let i = run_benchmark(bench, cfg(Scheme::IFam));
        e.ipc / i.ipc
    };
    let cactus = slowdown("cactus");
    let mg = slowdown("mg");
    assert!(
        cactus > 3.0 * mg,
        "cactus slowdown {cactus:.1}x should dwarf mg {mg:.1}x"
    );
    assert!(
        mg < 2.0,
        "streaming barely cares about indirection: {mg:.1}x"
    );
}

#[test]
fn deact_recovers_most_of_ifam_loss_on_scatter_workloads() {
    // The headline (§V-C): DeACT-N speeds up I-FAM substantially on
    // benchmarks that stress translation.
    for bench in ["canl", "sssp", "bc"] {
        let i = run_benchmark(bench, cfg(Scheme::IFam));
        let n = run_benchmark(bench, cfg(Scheme::DeactN));
        let speedup = n.speedup_over(&i);
        assert!(speedup > 1.3, "{bench}: DeACT-N speedup only {speedup:.2}x");
    }
}

#[test]
fn deact_does_not_help_streaming_benchmarks_much() {
    // §V-C: "DeACT either does not improve or degrades the performance
    // for bc, lu, mg and sp" — the DRAM lookup per FAM access has to
    // be paid by everyone.
    let i = run_benchmark("mg", cfg(Scheme::IFam));
    let n = run_benchmark("mg", cfg(Scheme::DeactN));
    let speedup = n.speedup_over(&i);
    assert!(
        (0.7..1.3).contains(&speedup),
        "mg speedup should be near 1.0, got {speedup:.2}"
    );
}

#[test]
fn at_traffic_collapses_under_deact_n_relative_to_ifam() {
    // Fig. 11's direction: AT requests at the FAM fall from I-FAM to
    // DeACT-N for reuse-heavy workloads (cold sweeps like cactus need
    // longer runs for the translation cache to warm, see fig11).
    let i = run_benchmark("mcf", cfg(Scheme::IFam));
    let n = run_benchmark("mcf", cfg(Scheme::DeactN));
    assert!(
        i.fam.at_walk_reads as f64 > 1.5 * n.fam.at_walk_reads as f64,
        "walk traffic: I-FAM {} vs DeACT-N {}",
        i.fam.at_walk_reads,
        n.fam.at_walk_reads
    );
}

#[test]
fn translation_hit_rate_gap_matches_fig10() {
    // Fig. 10: the in-DRAM translation cache beats the STU's 1024
    // entries on every benchmark whose footprint exceeds STU reach.
    for bench in ["mcf", "canl", "dc"] {
        let i = run_benchmark(bench, cfg(Scheme::IFam));
        let n = run_benchmark(bench, cfg(Scheme::DeactN));
        assert!(
            n.translation_hit_rate.unwrap() > i.translation_hit_rate.unwrap(),
            "{bench}: DeACT {:.2} !> I-FAM {:.2}",
            n.translation_hit_rate.unwrap(),
            i.translation_hit_rate.unwrap()
        );
    }
}

#[test]
fn acm_hit_rate_ordering_matches_fig9() {
    // Fig. 9: DeACT-N >= DeACT-W on random-allocation workloads.
    for bench in ["mcf", "canl", "bc"] {
        let w = run_benchmark(bench, cfg(Scheme::DeactW));
        let n = run_benchmark(bench, cfg(Scheme::DeactN));
        assert!(
            n.acm_hit_rate.unwrap() + 1e-9 >= w.acm_hit_rate.unwrap(),
            "{bench}: N {:.2} < W {:.2}",
            n.acm_hit_rate.unwrap(),
            w.acm_hit_rate.unwrap()
        );
    }
}

#[test]
fn runs_are_bit_reproducible() {
    let a = run_benchmark("pf", cfg(Scheme::DeactN));
    let b = run_benchmark("pf", cfg(Scheme::DeactN));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.fam, b.fam);
    assert_eq!(a.dram_reads, b.dram_reads);
    let c = run_benchmark("pf", cfg(Scheme::DeactN).with_seed(999));
    assert_ne!(a.cycles, c.cycles, "different seed, different run");
}

#[test]
fn smaller_stu_hurts_ifam_more_than_deact() {
    // The Fig. 13 mechanism: DeACT's translations do not live in the
    // STU, so shrinking it mainly punishes I-FAM.
    let base = cfg(Scheme::IFam);
    let i_big = run_benchmark("dc", base.with_stu_entries(4096));
    let i_small = run_benchmark("dc", base.with_stu_entries(256));
    let n_big = run_benchmark(
        "dc",
        base.with_scheme(Scheme::DeactN).with_stu_entries(4096),
    );
    let n_small = run_benchmark("dc", base.with_scheme(Scheme::DeactN).with_stu_entries(256));
    let ifam_loss = i_big.ipc / i_small.ipc;
    let deact_loss = n_big.ipc / n_small.ipc;
    assert!(
        ifam_loss > deact_loss,
        "shrinking STU: I-FAM lost {ifam_loss:.2}x, DeACT {deact_loss:.2}x"
    );
}

#[test]
fn higher_fabric_latency_increases_deact_advantage() {
    // Fig. 15's direction.
    let speedup_at = |ns: u64| {
        let c = cfg(Scheme::IFam).with_fabric_latency_ns(ns);
        let i = run_benchmark("pf", c);
        let n = run_benchmark("pf", c.with_scheme(Scheme::DeactN));
        n.speedup_over(&i)
    };
    let fast = speedup_at(100);
    let slow = speedup_at(6000);
    assert!(
        slow > fast,
        "speedup should grow with fabric latency: {fast:.2}x @100ns vs {slow:.2}x @6us"
    );
}

#[test]
fn multi_node_contention_increases_deact_advantage() {
    // Fig. 16's direction.
    let speedup_at = |nodes: usize| {
        let c = cfg(Scheme::IFam)
            .with_nodes(nodes)
            .with_refs_per_core(8_000);
        let i = run_benchmark("dc", c);
        let n = run_benchmark("dc", c.with_scheme(Scheme::DeactN));
        n.speedup_over(&i)
    };
    let one = speedup_at(1);
    let eight = speedup_at(8);
    assert!(
        eight > one * 0.95,
        "speedup should not shrink with node count: {one:.2}x @1 vs {eight:.2}x @8"
    );
}

#[test]
fn skip_read_checks_only_helps() {
    let base = cfg(Scheme::DeactN);
    let checked = run_benchmark("canl", base);
    let skipped = run_benchmark("canl", base.with_skip_read_checks(true));
    assert!(skipped.ipc >= checked.ipc);
    assert!(skipped.fam.at_acm_reads < checked.fam.at_acm_reads);
}

#[test]
fn instructions_match_workload_density() {
    // refs * (mean gap + 1) per core, within stochastic tolerance.
    let r = run_benchmark("mcf", cfg(Scheme::EFam));
    let per_core = r.instructions as f64 / 4.0;
    let w = fam_workloads::Workload::by_name("mcf").unwrap();
    let expected = 20_000.0 * (w.mean_gap_instrs() as f64 + 1.5);
    assert!(
        (per_core / expected - 1.0).abs() < 0.1,
        "instructions {per_core} vs expected {expected}"
    );
}

#[test]
fn lru_translation_cache_hits_at_least_as_often_but_writes_more() {
    let base = cfg(Scheme::DeactN);
    let random = run_benchmark("mcf", base);
    let lru = run_benchmark("mcf", base.with_translation_cache_lru(true));
    assert!(
        lru.translation_hit_rate.unwrap() >= random.translation_hit_rate.unwrap() - 0.02,
        "LRU {:.3} vs random {:.3}",
        lru.translation_hit_rate.unwrap(),
        random.translation_hit_rate.unwrap()
    );
    assert!(
        lru.dram_writes > random.dram_writes,
        "LRU recency updates cost DRAM writes: {} !> {}",
        lru.dram_writes,
        random.dram_writes
    );
}

#[test]
fn trace_replay_drives_the_full_system() {
    use fam_workloads::trace::{replay_streams, TraceRecord};
    use fam_workloads::TraceWriter;

    let c = cfg(Scheme::DeactN).with_refs_per_core(2_000);
    let w = fam_workloads::Workload::by_name("pf").unwrap();
    let ranks = (c.nodes * c.cores_per_node) as u16;
    let path = std::env::temp_dir().join(format!("e2e-pf-trace-{}.famt", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let mut writer = TraceWriter::v2(file, ranks, u64::from(ranks) * 2_000).unwrap();
    for rank in 0..ranks {
        let core = usize::from(rank) % c.cores_per_node;
        for mem in w.generator(core as u64).take_refs(2_000) {
            writer.push(&TraceRecord { rank, mem }).unwrap();
        }
    }
    writer.finish().unwrap();
    let streams = replay_streams(&path, c.nodes, c.cores_per_node).unwrap();
    let r = deact::System::with_streams(c, "pf-trace", streams).run();
    std::fs::remove_file(&path).ok();
    assert_eq!(r.workload, "pf-trace");
    assert!(r.ipc > 0.0);
    assert!(r.fam.data_reads > 0);
}

#[test]
fn shared_segment_traffic_shows_bitmap_fetches() {
    // §VI "Shared Pages": two nodes touch a common segment; DeACT's
    // verification fetches the 1 GB-region bitmap for shared pages.
    let mut w = fam_workloads::Workload::by_name("dc").unwrap();
    w.shared_fraction = 0.25;
    w.shared_pages = 64;
    let c = cfg(Scheme::DeactN)
        .with_nodes(2)
        .with_refs_per_core(5_000)
        .with_shared_segment_pages(64);
    let r = deact::System::new(c, &w).run();
    assert!(
        r.fam.at_bitmap_reads > 0,
        "shared pages must trigger bitmap fetches"
    );
    assert!(r.ipc > 0.0);

    // The same workload without sharing fetches no bitmaps.
    let mut w2 = w;
    w2.shared_fraction = 0.0;
    let r2 = deact::System::new(
        cfg(Scheme::DeactN).with_nodes(2).with_refs_per_core(5_000),
        &w2,
    )
    .run();
    assert_eq!(r2.fam.at_bitmap_reads, 0);
}

#[test]
fn shared_segment_works_under_every_scheme() {
    let mut w = fam_workloads::Workload::by_name("pf").unwrap();
    w.shared_fraction = 0.2;
    w.shared_pages = 32;
    for scheme in Scheme::ALL {
        let c = cfg(scheme)
            .with_refs_per_core(2_000)
            .with_shared_segment_pages(32);
        let r = deact::System::new(c, &w).run();
        assert!(r.ipc > 0.0, "{scheme}");
    }
}
