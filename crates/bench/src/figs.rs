//! One function per table/figure; the `fig*` binaries are thin
//! wrappers so `--bin all` can regenerate everything in one process.

use deact::node::{CORE_OUTSTANDING, DRAM_ACCESS_NS, DRAM_BYTES, FREQUENCY_MHZ, ISSUE_WIDTH};
use deact::{Scheme, SystemConfig};
use fam_broker::AcmWidth;
use fam_mem::{HierarchyConfig, NvmConfig};
use fam_sim::stats::geomean;
use fam_sim::Frequency;
use fam_vm::TlbConfig;
use fam_workloads::table3;

use crate::{
    benchmarks, cell, heading, paper, refs_from_env, row, run_matrix, suite_speedup, SUITE_GROUPS,
};

fn base_cfg(default_refs: u64) -> SystemConfig {
    SystemConfig::paper_default().with_refs_per_core(refs_from_env(default_refs))
}

/// Table I: qualitative scheme comparison.
pub fn table1() {
    heading("Table I", "FAM architectures comparison");
    row(
        "scheme",
        &["perf".into(), "no-OS-mods".into(), "security".into()],
    );
    let tick = |b: bool| if b { "yes" } else { "no" }.to_string();
    for s in [Scheme::EFam, Scheme::IFam, Scheme::DeactN] {
        let label = if s == Scheme::DeactN {
            "DeACT"
        } else {
            s.name()
        };
        row(
            label,
            &[
                tick(s.has_good_performance()),
                tick(s.avoids_os_changes()),
                tick(s.is_secure()),
            ],
        );
    }
}

/// Table II: system configuration in force.
pub fn table2() {
    heading("Table II", "system configuration");
    let c = SystemConfig::paper_default();
    let (tlb, hierarchy, nvm) = (
        TlbConfig::default(),
        HierarchyConfig::default(),
        NvmConfig::default(),
    );
    let items: Vec<(&str, String)> = vec![
        (
            "CPU",
            format!(
                "{} OoO cores, {}, {ISSUE_WIDTH} issues/cycle, {CORE_OUTSTANDING} outstanding",
                c.cores_per_node,
                Frequency::mhz(FREQUENCY_MHZ),
            ),
        ),
        (
            "TLB",
            format!(
                "2 levels, L1 {} entries, L2 {} entries",
                tlb.l1_entries, tlb.l2_entries
            ),
        ),
        (
            "L1",
            format!("private, 64B blocks, {} KB, LRU", hierarchy.l1_bytes / 1024),
        ),
        (
            "L2",
            format!("private, 64B blocks, {} KB, LRU", hierarchy.l2_bytes / 1024),
        ),
        (
            "L3",
            format!("shared, 64B blocks, {} MB, LRU", hierarchy.l3_bytes >> 20),
        ),
        (
            "Local mem",
            format!("DRAM, {} GB, {DRAM_ACCESS_NS} ns", DRAM_BYTES >> 30),
        ),
        (
            "STU cache",
            format!("{} entries, associativity {}", c.stu_entries, c.stu_ways),
        ),
        (
            "Fabric",
            format!("{} ns one-way latency", c.fabric.latency_ns),
        ),
        (
            "FAM (NVM)",
            format!(
                "{} GB, read {} ns, write {} ns, {} banks, {} outstanding",
                c.fam_bytes >> 30,
                nvm.read_ns,
                nvm.write_ns,
                nvm.banks,
                nvm.max_outstanding
            ),
        ),
        (
            "FAM tcache",
            format!("{} KB in DRAM (DeACT)", c.translation_cache_bytes >> 10),
        ),
    ];
    for (k, v) in items {
        println!("{k:>10}  {v}");
    }
}

/// Table III: applications with paper vs measured MPKI.
pub fn table3_bin() {
    heading(
        "Table III",
        "applications (paper MPKI vs measured on E-FAM)",
    );
    let cfg = base_cfg(40_000).with_scheme(Scheme::EFam);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam], cfg);
    row(
        "bench",
        &["suite".into(), "paper".into(), "measured".into()],
    );
    for w in table3() {
        let r = &m[&(w.name.to_string(), Scheme::EFam)];
        row(
            w.name,
            &[
                w.suite.name().into(),
                format!("{}", w.paper_mpki),
                format!("{:.0}", r.mpki),
            ],
        );
    }
}

/// Fig. 3: slowdown of I-FAM wrt E-FAM.
pub fn fig03() {
    heading("Fig. 3", "slowdown of I-FAM wrt E-FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam, Scheme::IFam], cfg);
    row("bench", &["measured".into(), "paper".into()]);
    let mut slowdowns = Vec::new();
    for b in benchmarks() {
        let e = &m[&(b.to_string(), Scheme::EFam)];
        let i = &m[&(b.to_string(), Scheme::IFam)];
        let slowdown = e.ipc / i.ipc;
        slowdowns.push(slowdown);
        let p = paper::row(b)
            .map(|p| p.fig3_ifam_slowdown)
            .unwrap_or(f64::NAN);
        row(b, &[format!("{slowdown:.1}x"), format!("{p:.1}x")]);
    }
    println!("geomean slowdown: {:.2}x", geomean(&slowdowns));
}

/// Fig. 4: breakdown of AT vs non-AT requests at the FAM.
pub fn fig04() {
    heading(
        "Fig. 4",
        "% address-translation requests at FAM (E-FAM vs I-FAM)",
    );
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam, Scheme::IFam], cfg);
    row(
        "bench",
        &[
            "E-FAM".into(),
            "paper".into(),
            "I-FAM".into(),
            "paper".into(),
        ],
    );
    for b in benchmarks() {
        let e = m[&(b.to_string(), Scheme::EFam)].fam.at_percent();
        let i = m[&(b.to_string(), Scheme::IFam)].fam.at_percent();
        let p = paper::row(b).unwrap();
        row(
            b,
            &[
                cell(e),
                cell(p.fig4_efam_at_pct),
                cell(i),
                cell(p.fig4_ifam_at_pct),
            ],
        );
    }
}

/// Fig. 9: ACM hit rate at the STU across organisations.
pub fn fig09() {
    heading("Fig. 9", "access-control-metadata hit rate (%)");
    let cfg = base_cfg(100_000);
    let m = run_matrix(
        &benchmarks(),
        &[Scheme::IFam, Scheme::DeactW, Scheme::DeactN],
        cfg,
    );
    row(
        "bench",
        &[
            "I-FAM".into(),
            "paper".into(),
            "DeACT-W".into(),
            "paper".into(),
            "DeACT-N".into(),
            "paper".into(),
        ],
    );
    for b in benchmarks() {
        let get = |s: Scheme| m[&(b.to_string(), s)].acm_hit_rate.unwrap() * 100.0;
        let p = paper::row(b).unwrap();
        row(
            b,
            &[
                cell(get(Scheme::IFam)),
                cell(p.fig9_ifam),
                cell(get(Scheme::DeactW)),
                cell(p.fig9_w),
                cell(get(Scheme::DeactN)),
                cell(p.fig9_n),
            ],
        );
    }
}

/// Fig. 10: FAM address-translation hit rate, I-FAM vs DeACT.
pub fn fig10() {
    heading("Fig. 10", "FAM address-translation hit rate (%)");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::IFam, Scheme::DeactN], cfg);
    row(
        "bench",
        &[
            "I-FAM".into(),
            "paper".into(),
            "DeACT".into(),
            "paper".into(),
        ],
    );
    for b in benchmarks() {
        let i = m[&(b.to_string(), Scheme::IFam)]
            .translation_hit_rate
            .unwrap()
            * 100.0;
        let d = m[&(b.to_string(), Scheme::DeactN)]
            .translation_hit_rate
            .unwrap()
            * 100.0;
        let p = paper::row(b).unwrap();
        row(
            b,
            &[cell(i), cell(p.fig10_ifam), cell(d), cell(p.fig10_deact)],
        );
    }
}

/// Fig. 11: percentage of AT requests at the FAM across schemes.
pub fn fig11() {
    heading("Fig. 11", "% address-translation requests at FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(
        &benchmarks(),
        &[Scheme::IFam, Scheme::DeactW, Scheme::DeactN],
        cfg,
    );
    row(
        "bench",
        &["I-FAM".into(), "DeACT-W".into(), "DeACT-N".into()],
    );
    let mut sums = [0.0f64; 3];
    for b in benchmarks() {
        let vals: Vec<f64> = [Scheme::IFam, Scheme::DeactW, Scheme::DeactN]
            .iter()
            .map(|s| m[&(b.to_string(), *s)].fam.at_percent())
            .collect();
        for (a, v) in sums.iter_mut().zip(&vals) {
            *a += v;
        }
        row(b, &vals.iter().map(|v| cell(*v)).collect::<Vec<_>>());
    }
    let n = benchmarks().len() as f64;
    println!(
        "averages: I-FAM {:.2}%, DeACT-W {:.2}%, DeACT-N {:.2}%  (paper: {:.2} / {:.2} / {:.2})",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        paper::FIG11_AVERAGES.0,
        paper::FIG11_AVERAGES.1,
        paper::FIG11_AVERAGES.2,
    );
}

/// Fig. 12: normalized performance wrt E-FAM, all four schemes.
pub fn fig12() {
    heading("Fig. 12", "normalized performance wrt E-FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &Scheme::ALL, cfg);
    row(
        "bench",
        &[
            "I-FAM".into(),
            "paper".into(),
            "DeACT-W".into(),
            "paper".into(),
            "DeACT-N".into(),
            "paper".into(),
        ],
    );
    let mut norms: Vec<(f64, f64, f64)> = Vec::new();
    let mut speedups = Vec::new();
    for b in benchmarks() {
        let e = &m[&(b.to_string(), Scheme::EFam)];
        let i = m[&(b.to_string(), Scheme::IFam)].normalized_to(e);
        let w = m[&(b.to_string(), Scheme::DeactW)].normalized_to(e);
        let n = m[&(b.to_string(), Scheme::DeactN)].normalized_to(e);
        norms.push((i, w, n));
        speedups.push(n / i);
        let p = paper::row(b).unwrap();
        row(
            b,
            &[
                cell(i),
                cell(p.fig12_ifam),
                cell(w),
                cell(p.fig12_w),
                cell(n),
                cell(p.fig12_n),
            ],
        );
    }
    let count = norms.len() as f64;
    let avg_i: f64 = norms.iter().map(|n| n.0).sum::<f64>() / count;
    let avg_n: f64 = norms.iter().map(|n| n.2).sum::<f64>() / count;
    let max_speedup = speedups.iter().cloned().fold(0.0, f64::max);
    println!(
        "averages wrt E-FAM: I-FAM {avg_i:.3}, DeACT-N {avg_n:.3}  (paper: {:.3} / {:.3})",
        paper::FIG12_AVG_IFAM,
        paper::FIG12_AVG_DEACT,
    );
    println!(
        "DeACT-N speedup over I-FAM: max {max_speedup:.2}x, geomean {:.2}x  (paper headline: up to {:.2}x, {:.1}x average)",
        geomean(&speedups),
        paper::HEADLINE_MAX_SPEEDUP,
        paper::HEADLINE_AVG_SPEEDUP,
    );
}

/// The sensitivity sweeps print suite geomeans + pf + dc of DeACT-N
/// speedup over I-FAM, like Figs. 13–16.
fn sweep_rows(header: &str, points: &[(String, SystemConfig)], note: &str) {
    let mut labels: Vec<String> = vec![header.into()];
    labels.extend(SUITE_GROUPS.iter().map(|s| s.to_string()));
    row(&labels[0], &labels[1..]);
    let benches: Vec<&str> = SUITE_GROUPS
        .iter()
        .flat_map(|s| crate::suite_members(s))
        .collect();
    for (label, cfg) in points {
        let m = run_matrix(&benches, &[Scheme::IFam, Scheme::DeactN], *cfg);
        let cells: Vec<String> = SUITE_GROUPS
            .iter()
            .map(|s| format!("{:.2}x", suite_speedup(&m, s, Scheme::DeactN)))
            .collect();
        row(label, &cells);
    }
    println!("{note}");
}

/// Fig. 13: speedup over I-FAM vs STU cache size.
pub fn fig13() {
    heading("Fig. 13", "DeACT-N speedup wrt I-FAM vs STU cache entries");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [256usize, 512, 1024, 2048, 4096]
        .iter()
        .map(|&e| (format!("{e}"), cfg.with_stu_entries(e)))
        .collect();
    sweep_rows("entries", &points, paper::FIG13_TEXT);
}

/// §V-D1 (text): speedup over I-FAM vs STU associativity.
pub fn assoc() {
    heading("§V-D1", "DeACT-N speedup wrt I-FAM vs STU associativity");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [4usize, 8, 16, 32, 64]
        .iter()
        .map(|&w| (format!("{w}-way"), cfg.with_stu_ways(w)))
        .collect();
    sweep_rows("assoc", &points, paper::ASSOC_TEXT);
}

/// Fig. 14: ACM width (8/16/32-bit) and DeACT-N pairs-per-way.
pub fn fig14() {
    heading("Fig. 14", "metadata size effect on DeACT speedup wrt I-FAM");
    let cfg = base_cfg(40_000);
    println!("-- DeACT-W across ACM widths --");
    let points: Vec<(String, SystemConfig)> = [
        ("8-bit", AcmWidth::W8),
        ("16-bit", AcmWidth::W16),
        ("32-bit", AcmWidth::W32),
    ]
    .iter()
    .map(|(l, w)| {
        (
            l.to_string(),
            cfg.with_acm_width(*w).with_scheme(Scheme::DeactW),
        )
    })
    .collect();
    let benches: Vec<&str> = SUITE_GROUPS
        .iter()
        .flat_map(|s| crate::suite_members(s))
        .collect();
    let mut labels: Vec<String> = vec!["width".into()];
    labels.extend(SUITE_GROUPS.iter().map(|s| s.to_string()));
    row(&labels[0], &labels[1..]);
    for (label, c) in &points {
        let m = run_matrix(&benches, &[Scheme::IFam, Scheme::DeactW], *c);
        let cells: Vec<String> = SUITE_GROUPS
            .iter()
            .map(|s| format!("{:.2}x", suite_speedup(&m, s, Scheme::DeactW)))
            .collect();
        row(label, &cells);
    }
    println!("-- DeACT-N, 8-bit ACM, pairs per way --");
    let pair_points: Vec<(String, SystemConfig)> = [1usize, 2, 3]
        .iter()
        .map(|&p| {
            (
                format!("{p} pair"),
                cfg.with_acm_width(AcmWidth::W8).with_deact_n_pairs(Some(p)),
            )
        })
        .collect();
    sweep_rows("pairs", &pair_points, paper::FIG14_TEXT);
}

/// Fig. 15: fabric-latency sweep.
pub fn fig15() {
    heading("Fig. 15", "DeACT-N speedup wrt I-FAM vs fabric latency");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [100u64, 250, 500, 750, 1000, 3000, 6000]
        .iter()
        .map(|&ns| {
            let label = if ns >= 1000 {
                format!("{}us", ns / 1000)
            } else {
                format!("{ns}ns")
            };
            (label, cfg.with_fabric_latency_ns(ns))
        })
        .collect();
    sweep_rows("latency", &points, paper::FIG15_TEXT);
}

/// Fig. 16: node-count sweep (pf and dc).
pub fn fig16() {
    heading("Fig. 16", "DeACT-N speedup wrt I-FAM vs number of nodes");
    let cfg = base_cfg(25_000);
    row("nodes", &["pf".into(), "dc".into()]);
    for nodes in [1usize, 2, 4, 8] {
        // Fig. 16 keeps FAM pools proportional to the node count.
        let point = cfg.with_nodes(nodes).with_fam_modules(nodes);
        let m = run_matrix(&["pf", "dc"], &[Scheme::IFam, Scheme::DeactN], point);
        let cells: Vec<String> = ["pf", "dc"]
            .iter()
            .map(|b| {
                let d = &m[&(b.to_string(), Scheme::DeactN)];
                let i = &m[&(b.to_string(), Scheme::IFam)];
                format!("{:.2}x", d.speedup_over(i))
            })
            .collect();
        row(&nodes.to_string(), &cells);
    }
    println!("{}", paper::FIG16_TEXT);
}

/// Extension ablations beyond the paper's figures (DESIGN.md §6).
pub fn ablation() {
    heading(
        "Ablation",
        "design-choice studies beyond the paper's figures",
    );
    let cfg = base_cfg(40_000);

    println!("-- in-DRAM translation-cache capacity (DeACT-N, canl/sssp) --");
    row("size", &["canl".into(), "sssp".into()]);
    for kb in [256u64, 512, 1024, 2048, 4096] {
        let mut c = cfg;
        c.translation_cache_bytes = kb << 10;
        let m = run_matrix(&["canl", "sssp"], &[Scheme::IFam, Scheme::DeactN], c);
        let cells: Vec<String> = ["canl", "sssp"]
            .iter()
            .map(|b| {
                let d = &m[&(b.to_string(), Scheme::DeactN)];
                let i = &m[&(b.to_string(), Scheme::IFam)];
                format!("{:.2}x", d.speedup_over(i))
            })
            .collect();
        row(&format!("{kb}KB"), &cells);
    }

    println!("-- §VI shared pages: bitmap traffic vs shared fraction (DeACT-N, 2 nodes) --");
    {
        row("shared", &["bitmap rd".into(), "AT %".into(), "ipc".into()]);
        for shared in [0.0f64, 0.1, 0.25, 0.5] {
            let mut w = fam_workloads::Workload::by_name("dc").expect("table3 name");
            w.shared_fraction = shared;
            w.shared_pages = 128;
            let c = cfg
                .with_scheme(Scheme::DeactN)
                .with_nodes(2)
                .with_refs_per_core(refs_from_env(15_000))
                .with_shared_segment_pages(128);
            let r = deact::System::new(c, &w).run();
            row(
                &format!("{:.0}%", shared * 100.0),
                &[
                    format!("{}", r.fam.at_bitmap_reads),
                    format!("{:.1}", r.fam.at_percent()),
                    format!("{:.3}", r.ipc),
                ],
            );
        }
        println!("(shared pages are vetted through the 1 GB-region bitmaps of Fig. 5; the entry's\n all-ones node field redirects verification to the bitmap)");
    }

    println!("-- §III-C translation-cache replacement: random vs LRU --");
    {
        row(
            "policy",
            &["canl thit".into(), "canl norm".into(), "dram wr".into()],
        );
        let efam =
            run_matrix(&["canl"], &[Scheme::EFam], cfg)[&("canl".into(), Scheme::EFam)].clone();
        for (label, lru) in [("random", false), ("LRU", true)] {
            let c = cfg.with_translation_cache_lru(lru);
            let r = run_matrix(&["canl"], &[Scheme::DeactN], c)[&("canl".into(), Scheme::DeactN)]
                .clone();
            row(
                label,
                &[
                    format!("{:.1}%", r.translation_hit_rate.unwrap() * 100.0),
                    format!("{:.2}", r.normalized_to(&efam)),
                    format!("{}", r.dram_writes),
                ],
            );
        }
        println!("(LRU buys a slightly better hit rate at the cost of a DRAM write per FAM access — the paper's §III-C trade)");
    }

    println!("-- §VI large pages: TLB reach if data were 2 MB-mapped --");
    {
        use fam_vm::{PtFlags, Pte, TlbConfig, TlbHierarchy};
        row("bench", &["4KB hit%".into(), "2MB hit%".into()]);
        for name in ["canl", "sssp", "mg"] {
            let w = fam_workloads::Workload::by_name(name).expect("table3 name");
            let mut small = TlbHierarchy::new(TlbConfig::default());
            let mut huge = TlbHierarchy::new(TlbConfig::default());
            let mut gen = w.generator(11);
            for _ in 0..200_000 {
                let vpage = gen.next_ref().vaddr.page();
                let fill = Pte {
                    target_page: vpage,
                    flags: PtFlags::rw(),
                };
                if small.lookup(vpage).2.is_none() {
                    small.fill(vpage, fill);
                }
                let region = vpage >> 9; // 2 MB granule
                if huge.lookup(region).2.is_none() {
                    huge.fill(region, fill);
                }
            }
            row(
                name,
                &[
                    format!("{:.1}", small.stats().percent()),
                    format!("{:.1}", huge.stats().percent()),
                ],
            );
        }
        println!(
            "(2 MB pages would fix TLB reach, but §VI's objections stand: local DRAM hosts\n fewer large pages, sparse use wastes it, and hot small pages scatter across them)"
        );
    }

    println!("-- §II-B walk accounting: 1-D vs nested 2-D translation --");
    {
        use fam_vm::{PageTable, PageWalker, PtFlags, PtwCache, TwoDimWalker};
        let mut guest = PageTable::new(0);
        let mut next = 0x100_0000u64;
        let mut alloc = |_: usize| {
            let a = next;
            next += 4096;
            a
        };
        guest.map(7, 0x5000, PtFlags::rw(), &mut alloc);
        let mut nested = PageTable::new(0x800_0000);
        let mut next2 = 0x900_0000u64;
        let mut alloc2 = |_: usize| {
            let a = next2;
            next2 += 4096;
            a
        };
        for p in 0..0x6000u64 {
            nested.map(p, p, PtFlags::rw(), &mut alloc2);
        }
        let one_d = PageWalker::plan(&guest, None, 7).reads();
        let two_d = TwoDimWalker::plan(&guest, &nested, None, 7).reads();
        let mut ptw = PtwCache::new(32);
        TwoDimWalker::plan(&guest, &nested, Some(&mut ptw), 7);
        let two_d_cached = TwoDimWalker::plan(&guest, &nested, Some(&mut ptw), 7).reads();
        println!(
            "  native walk: {one_d} reads; nested 2-D walk: {two_d} reads (paper: 4 vs 24); with warm nested-PTW cache: {two_d_cached}"
        );
    }

    println!("-- §III-A encrypted-memory read bypass (DeACT-N) --");
    row("mode", &["canl".into(), "bc".into(), "dc".into()]);
    for (label, skip) in [("verify-all", false), ("skip-reads", true)] {
        let c = cfg.with_skip_read_checks(skip);
        let m = run_matrix(&["canl", "bc", "dc"], &[Scheme::EFam, Scheme::DeactN], c);
        let cells: Vec<String> = ["canl", "bc", "dc"]
            .iter()
            .map(|b| {
                let d = &m[&(b.to_string(), Scheme::DeactN)];
                let e = &m[&(b.to_string(), Scheme::EFam)];
                format!("{:.2}", d.normalized_to(e))
            })
            .collect();
        row(label, &cells);
    }
    println!("(normalized performance wrt E-FAM; reads dominate, so skipping read checks narrows the gap)");
}

/// Runs everything in figure order.
pub fn all() {
    table1();
    table2();
    table3_bin();
    fig03();
    fig04();
    fig09();
    fig10();
    fig11();
    fig12();
    fig13();
    assoc();
    fig14();
    fig15();
    fig16();
    ablation();
}
