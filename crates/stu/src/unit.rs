//! The STU proper: verification and FAM page-table walking.

use fam_broker::{AccessKind, MemoryBroker};
use fam_sim::stats::Counter;
use fam_vm::{NodeId, PageWalker, PtwCache, WalkPlan};

use crate::{StuCache, StuConfig};

/// Counters the STU accumulates, beyond the cache's own hit ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct StuStats {
    /// FAM page-table walks performed.
    pub walks: Counter,
    /// Entry reads issued by those walks (each is a FAM access).
    pub walk_reads: Counter,
    /// ACM metadata blocks fetched from FAM (DeACT miss path).
    pub acm_fetches: Counter,
    /// Sharing-bitmap fetches from FAM (shared pages only).
    pub bitmap_fetches: Counter,
    /// Accesses vetted.
    pub verifications: Counter,
    /// Accesses denied.
    pub denials: Counter,
}

/// Outcome of a DeACT verification (the `V = 1` fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeactVerification {
    /// Whether the ACM was resident in the STU cache.
    pub acm_hit: bool,
    /// FAM byte address of the metadata block fetched on a miss
    /// (§III-A address arithmetic), if any.
    pub acm_fetch_addr: Option<u64>,
    /// FAM byte address of the sharing bitmap fetched when the entry
    /// marks the page shared, if any.
    pub bitmap_fetch_addr: Option<u64>,
    /// Whether the access passed verification.
    pub allowed: bool,
}

/// A fault the STU cannot resolve alone: the node address has no
/// system-level mapping, so the memory broker must allocate
/// (§II-C: an address-translation-service request to the broker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedFault {
    /// The faulting node-physical page.
    pub npa_page: u64,
    /// The walk performed before discovering the hole (still costs
    /// FAM reads).
    pub walk_reads: usize,
}

impl std::fmt::Display for UnmappedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no system mapping for node page {:#x}", self.npa_page)
    }
}

impl std::error::Error for UnmappedFault {}

/// One node's System Translation Unit.
///
/// Holds the organisation-specific [`StuCache`], a 32-entry PTW cache
/// for FAM page-table walks (the Bhargava-et-al. optimisation granted to all
/// schemes, §IV), and verification counters. Ground truth (system page
/// tables and ACM) lives in the [`MemoryBroker`]; the STU's caches
/// only determine how often that truth must be re-fetched from FAM.
///
/// # Examples
///
/// ```
/// use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
/// use fam_stu::{Stu, StuConfig, StuOrganization};
///
/// let mut broker = MemoryBroker::new(BrokerConfig::default());
/// let node = broker.register_node().unwrap();
/// let fam_page = broker.demand_map(node, 0x100).unwrap();
///
/// let mut stu = Stu::new(StuConfig {
///     organization: StuOrganization::DeactN,
///     ..StuConfig::default()
/// });
/// let v = stu.verify(&broker, node, fam_page, AccessKind::Read);
/// assert!(v.allowed);
/// assert!(!v.acm_hit); // first touch fetches the metadata block
/// ```
#[derive(Debug)]
pub struct Stu {
    cache: StuCache,
    ptw_cache: PtwCache,
    stats: StuStats,
}

impl Stu {
    /// Default PTW-cache entries granted to the walker (§IV grants 32
    /// at the paper's full memory scale; systems scaled down for
    /// simulation speed should scale this reach too).
    pub const PTW_CACHE_ENTRIES: usize = 32;

    /// Creates an STU with the given cache configuration and the
    /// default PTW-cache size.
    pub fn new(config: StuConfig) -> Stu {
        Stu::with_ptw_entries(config, Self::PTW_CACHE_ENTRIES)
    }

    /// Creates an STU with an explicit FAM-PTW cache size.
    ///
    /// # Panics
    ///
    /// Panics if `ptw_entries` is zero.
    pub fn with_ptw_entries(config: StuConfig, ptw_entries: usize) -> Stu {
        Stu {
            cache: StuCache::new(config),
            ptw_cache: PtwCache::new(ptw_entries),
            stats: StuStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> StuConfig {
        self.cache.config()
    }

    /// I-FAM coupled-entry lookup: counts one verification and
    /// consults the cache for the node page's FAM page.
    pub fn ifam_lookup(&mut self, npa_page: u64) -> Option<u64> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        self.stats.verifications.inc();
        self.cache.ifam_lookup(npa_page)
    }

    /// I-FAM coupled-entry fill (after a modelled walk).
    pub fn ifam_fill(&mut self, npa_page: u64, fam_page: u64) {
        self.cache.ifam_fill(npa_page, fam_page)
    }

    /// DeACT ACM lookup without verification (timing-only probes).
    pub fn acm_lookup(&mut self, fam_page: u64) -> bool {
        self.cache.acm_lookup(fam_page)
    }

    /// DeACT ACM fill (after a modelled metadata fetch).
    pub fn acm_fill(&mut self, fam_page: u64) {
        self.cache.acm_fill(fam_page)
    }

    /// The DeACT verification path (`V = 1` packets): the request
    /// already carries a FAM address; only access control is checked
    /// (§III-D). On an ACM-cache miss the metadata block address is
    /// derived from the FAM address alone and reported for timing.
    ///
    /// # Panics
    ///
    /// Panics if this STU is configured with the I-FAM organisation.
    pub fn verify(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        fam_page: u64,
        kind: AccessKind,
    ) -> DeactVerification {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        self.stats.verifications.inc();
        let layout = broker.layout();
        let fam_addr = fam_vm::FamAddr(fam_page * fam_vm::PAGE_BYTES);
        let acm_hit = self.cache.acm_lookup(fam_page);
        let mut acm_fetch_addr = None;
        let mut bitmap_fetch_addr = None;
        if !acm_hit {
            acm_fetch_addr = Some(layout.acm_addr(fam_addr));
            self.stats.acm_fetches.inc();
            self.cache.acm_fill(fam_page);
            // If the freshly read entry marks the page shared, the
            // relevant bitmap words are fetched immediately (§III-A).
            if broker.acm().entry(fam_page).is_some_and(|e| e.is_shared()) {
                bitmap_fetch_addr = Some(layout.bitmap_addr(fam_addr));
                self.stats.bitmap_fetches.inc();
            }
        }
        let allowed = broker.check_access(node, fam_page, kind);
        if !allowed {
            self.stats.denials.inc();
        }
        DeactVerification {
            acm_hit,
            acm_fetch_addr,
            bitmap_fetch_addr,
            allowed,
        }
    }

    /// Walks the node's system page table (the FAM-PTW of Fig. 6 ④),
    /// used for `V = 0` packets and I-FAM misses.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedFault`] when no mapping exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered with the broker.
    pub fn walk_system_table(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        npa_page: u64,
    ) -> Result<(u64, WalkPlan), UnmappedFault> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        let table = broker
            .system_table(node)
            .expect("node must be registered before issuing requests");
        self.stats.walks.inc();
        let plan = PageWalker::plan(table, Some(&mut self.ptw_cache), npa_page);
        self.stats.walk_reads.add(plan.reads() as u64);
        match plan.mapping {
            Some(pte) => Ok((pte.target_page, plan)),
            None => Err(UnmappedFault {
                npa_page,
                walk_reads: plan.reads(),
            }),
        }
    }

    /// Invalidates state for a page (migration shootdown, §VI). Pass
    /// the node page for I-FAM, the FAM page for DeACT.
    pub fn invalidate_page(&mut self, key_page: u64) {
        self.cache.invalidate(key_page);
    }

    /// Flushes all cached state (including the PTW cache).
    pub fn flush(&mut self) {
        self.cache.flush();
        self.ptw_cache.flush();
    }

    /// Applies a permanent-failure shootdown: invalidates the cached
    /// entry for every key page in the worklist (node pages for I-FAM,
    /// FAM pages for DeACT) and flushes the FAM-PTW cache — relocated
    /// table pages make every cached interior entry's address suspect.
    /// Returns the number of invalidation operations performed (one
    /// per key plus one for the PTW flush), the quantity the timing
    /// layer charges per entry.
    pub fn shootdown(&mut self, key_pages: impl IntoIterator<Item = u64>) -> u64 {
        let mut ops = 0u64;
        for key in key_pages {
            self.cache.invalidate(key);
            ops += 1;
        }
        self.ptw_cache.flush();
        ops + 1
    }

    /// ACM hit/miss ratio (Fig. 9 series).
    pub fn acm_stats(&self) -> fam_sim::stats::Ratio {
        self.cache.acm_stats()
    }

    /// Walk/fetch/verification counters.
    pub fn stats(&self) -> StuStats {
        self.stats
    }

    /// Resets statistics, keeping cached state.
    pub fn reset_stats(&mut self) {
        self.stats = StuStats::default();
        self.cache.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuOrganization;
    use fam_broker::BrokerConfig;
    use fam_vm::PtFlags;

    fn setup(org: StuOrganization) -> (MemoryBroker, NodeId, Stu) {
        let mut broker = MemoryBroker::new(BrokerConfig {
            fam_bytes: 2 << 30,
            ..BrokerConfig::default()
        });
        let node = broker.register_node().unwrap();
        let stu = Stu::new(StuConfig {
            organization: org,
            ..StuConfig::default()
        });
        (broker, node, stu)
    }

    #[test]
    fn ifam_miss_walks_then_hits() {
        let (mut broker, node, mut stu) = setup(StuOrganization::IFam);
        let fam_page = broker.demand_map(node, 0x50).unwrap();
        assert_eq!(stu.ifam_lookup(0x50), None, "cold coupled entry");
        let (walked, plan) = stu.walk_system_table(&broker, node, 0x50).unwrap();
        assert_eq!(walked, fam_page);
        assert_eq!(plan.reads(), 4);
        stu.ifam_fill(0x50, walked);
        assert!(broker.check_access(node, walked, AccessKind::Read));

        assert_eq!(stu.ifam_lookup(0x50), Some(fam_page), "filled entry hits");
        assert_eq!(stu.stats().walks.value(), 1);
        assert_eq!(stu.stats().walk_reads.value(), 4);
        assert_eq!(stu.stats().verifications.value(), 2);
    }

    #[test]
    fn ifam_unmapped_faults_to_broker() {
        let (broker, node, mut stu) = setup(StuOrganization::IFam);
        assert_eq!(stu.ifam_lookup(0x99), None);
        let err = stu.walk_system_table(&broker, node, 0x99).unwrap_err();
        assert_eq!(err.npa_page, 0x99);
        assert!(err.walk_reads >= 1);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn ifam_denies_foreign_access() {
        let (mut broker, node, mut stu) = setup(StuOrganization::IFam);
        let intruder = broker.register_node().unwrap();
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        // The intruder somehow issues a request for the victim's node
        // page: the walk uses *the intruder's* table, which has no such
        // mapping -> fault, not leak.
        assert_eq!(stu.ifam_lookup(0x10), None);
        assert!(stu.walk_system_table(&broker, intruder, 0x10).is_err());
        assert!(!broker.check_access(intruder, fam_page, AccessKind::Read));
    }

    #[test]
    fn deact_verify_fetches_metadata_once() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        let v1 = stu.verify(&broker, node, fam_page, AccessKind::Read);
        assert!(v1.allowed);
        assert!(!v1.acm_hit);
        let expected = broker
            .layout()
            .acm_addr(fam_vm::FamAddr(fam_page * fam_vm::PAGE_BYTES));
        assert_eq!(v1.acm_fetch_addr, Some(expected));
        assert_eq!(v1.bitmap_fetch_addr, None, "owned page needs no bitmap");

        let v2 = stu.verify(&broker, node, fam_page, AccessKind::Read);
        assert!(v2.acm_hit);
        assert_eq!(v2.acm_fetch_addr, None);
        assert_eq!(stu.stats().acm_fetches.value(), 1);
    }

    #[test]
    fn deact_verify_denies_foreign_page() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let intruder = broker.register_node().unwrap();
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        let v = stu.verify(&broker, intruder, fam_page, AccessKind::Read);
        assert!(!v.allowed, "decoupling must not bypass access control");
        assert_eq!(stu.stats().denials.value(), 1);
    }

    #[test]
    fn deact_verify_write_permission_checked() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        assert!(
            stu.verify(&broker, node, fam_page, AccessKind::Write)
                .allowed
        );
        assert!(
            !stu.verify(&broker, node, fam_page, AccessKind::Execute)
                .allowed,
            "demand-mapped pages are RW, not X"
        );
    }

    #[test]
    fn shared_page_miss_also_fetches_bitmap() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let seg = broker
            .share_segment(4, &[(node, PtFlags::rw(), 0x200)])
            .unwrap();
        let v = stu.verify(&broker, node, seg.first_page, AccessKind::Write);
        assert!(v.allowed);
        assert!(v.bitmap_fetch_addr.is_some());
        assert_eq!(stu.stats().bitmap_fetches.value(), 1);
        // Once cached, no more fetches.
        let v2 = stu.verify(&broker, node, seg.first_page, AccessKind::Write);
        assert!(v2.acm_hit);
        assert_eq!(v2.bitmap_fetch_addr, None);
    }

    #[test]
    fn walk_reuses_ptw_cache() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        broker.demand_map(node, 0x40).unwrap();
        broker.demand_map(node, 0x41).unwrap();
        let (_, plan1) = stu.walk_system_table(&broker, node, 0x40).unwrap();
        assert_eq!(plan1.reads(), 4);
        // Neighbouring page: interior levels are PTW-cached.
        let (_, plan2) = stu.walk_system_table(&broker, node, 0x41).unwrap();
        assert_eq!(plan2.reads(), 1);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        stu.verify(&broker, node, fam_page, AccessKind::Read);
        stu.invalidate_page(fam_page);
        let v = stu.verify(&broker, node, fam_page, AccessKind::Read);
        assert!(!v.acm_hit);
    }

    #[test]
    fn shootdown_invalidates_entries_and_ptw_cache() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_a = broker.demand_map(node, 0x40).unwrap();
        let fam_b = broker.demand_map(node, 0x41).unwrap();
        stu.verify(&broker, node, fam_a, AccessKind::Read);
        stu.verify(&broker, node, fam_b, AccessKind::Read);
        stu.walk_system_table(&broker, node, 0x40).unwrap();
        let ops = stu.shootdown([fam_a]);
        assert_eq!(ops, 2, "one entry + the PTW flush");
        // The shot-down page re-fetches; the survivor still hits.
        assert!(!stu.verify(&broker, node, fam_a, AccessKind::Read).acm_hit);
        assert!(stu.verify(&broker, node, fam_b, AccessKind::Read).acm_hit);
        // The PTW cache went cold: a neighbouring walk re-reads all
        // four levels.
        let (_, plan) = stu.walk_system_table(&broker, node, 0x41).unwrap();
        assert_eq!(plan.reads(), 4);
    }

    #[test]
    fn flush_clears_ptw_cache_too() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        broker.demand_map(node, 0x40).unwrap();
        stu.walk_system_table(&broker, node, 0x40).unwrap();
        stu.flush();
        let (_, plan) = stu.walk_system_table(&broker, node, 0x40).unwrap();
        assert_eq!(plan.reads(), 4, "cold walk after flush");
    }
}
