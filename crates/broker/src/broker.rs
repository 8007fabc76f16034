//! The memory broker: system-level allocation and mapping.

use std::fmt;

use fam_sim::SimRng;
use fam_vm::{NodeId, PageTable, PtFlags, Pte, PAGE_BYTES};

use crate::layout::{Quarantine, REGION_BYTES};
use crate::{AccessKind, AcmStore, AcmWidth, FamLayout, LogicalNodeMap};

/// Broker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// FAM module capacity in bytes (Table II: 16 GB).
    pub fam_bytes: u64,
    /// ACM entry width (paper default 16-bit; Fig. 14 sweeps 8/32).
    pub acm_width: AcmWidth,
    /// Maximum registerable nodes.
    pub max_nodes: usize,
    /// Seed for the randomised page allocator. The paper observes that
    /// "since FAM is shared by multiple nodes, memory allocation is
    /// random" (§III-D) — the allocator hands out pages of each region
    /// in shuffled order to reproduce that poor spatial locality.
    pub seed: u64,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            fam_bytes: 16 << 30,
            acm_width: AcmWidth::W16,
            max_nodes: 64,
            seed: 0xB20CE2,
        }
    }
}

/// Errors returned by broker operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerError {
    /// All node slots are taken.
    TooManyNodes,
    /// The FAM has no free pages left.
    OutOfMemory,
    /// The node id is not registered.
    UnknownNode(NodeId),
    /// No whole 1 GB region is left for a shared segment.
    RegionExhausted,
    /// A shared segment larger than one region was requested.
    SegmentTooLarge {
        /// Pages requested.
        requested: u64,
        /// Pages in one region.
        limit: u64,
    },
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::TooManyNodes => write!(f, "node limit reached"),
            BrokerError::OutOfMemory => write!(f, "fabric-attached memory exhausted"),
            BrokerError::UnknownNode(n) => write!(f, "unregistered node {n}"),
            BrokerError::RegionExhausted => write!(f, "no free 1 GB region for shared segment"),
            BrokerError::SegmentTooLarge { requested, limit } => {
                write!(
                    f,
                    "shared segment of {requested} pages exceeds region limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for BrokerError {}

/// A shared memory segment registered in a dedicated 1 GB region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedSegment {
    /// The 1 GB region hosting the segment.
    pub region: u64,
    /// First FAM page of the segment.
    pub first_page: u64,
    /// Number of pages.
    pub pages: u64,
    /// The members the segment is mapped into: `(node, flags,
    /// npa_start)`. Migration and evacuation need this to find and
    /// rewrite every member's system-table mappings.
    pub members: Vec<(NodeId, PtFlags, u64)>,
}

impl SharedSegment {
    /// Iterates over the segment's FAM page numbers.
    pub fn fam_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.first_page..self.first_page + self.pages
    }
}

/// Accounting for a job migration (§VI): what a shootdown costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationReport {
    /// Pages whose ownership moved.
    pub pages_moved: u64,
    /// Shared-segment pages whose membership moved with the node
    /// (counted once per segment membership transferred).
    pub shared_pages_moved: u64,
    /// ACM entries rewritten in FAM.
    pub acm_writes: u64,
    /// System-level translations that must be invalidated (node-side
    /// FAM-translation-cache lines and STU entries).
    pub translation_invalidations: u64,
}

/// One page's fate during a permanent-failure evacuation: the
/// shootdown worklist entry the system applies to node-side caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRelocation {
    /// The node whose system-table mapping was rewritten.
    pub node: NodeId,
    /// The node-physical page that mapped to the failed FAM page.
    pub npa_page: u64,
    /// The quarantined FAM page the mapping used to name.
    pub old_fam_page: u64,
    /// Where the data lives now — `None` means the data is lost and
    /// the mapping was removed (a later access takes a fresh demand
    /// fault, or surfaces as data loss to whoever needed the bytes).
    pub new_fam_page: Option<u64>,
}

/// What broker-led permanent-failure recovery accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvacuationReport {
    /// Data pages copied to surviving FAM and remapped.
    pub pages_evacuated: u64,
    /// Data pages destroyed with the failed hardware.
    pub pages_lost: u64,
    /// System-page-table interior pages rebuilt on surviving FAM (the
    /// broker authored every entry, so tables are always rebuildable).
    pub table_pages_rebuilt: u64,
    /// ACM entries rewritten.
    pub acm_writes: u64,
    /// Bytes copied over the management path (drives the simulated
    /// evacuation-bandwidth cost).
    pub bytes_copied: u64,
    /// Usable capacity the quarantine removed from service, in pages.
    pub capacity_pages_lost: u64,
}

#[derive(Debug, Clone)]
struct NodeState {
    table: PageTable,
    /// `(npa_page, fam_page)` pairs installed by demand mapping.
    owned_pages: Vec<(u64, u64)>,
}

/// The centralized memory broker (Opal's role in the paper's SST
/// setup).
///
/// Owns the FAM: the randomised page pool, the per-node *system page
/// tables* (NPA→FAM; these are what the STU walks, and their interior
/// pages live in FAM), and the ACM store.
///
/// # Examples
///
/// ```
/// use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
///
/// let mut broker = MemoryBroker::new(BrokerConfig::default());
/// let a = broker.register_node().unwrap();
/// let b = broker.register_node().unwrap();
/// let page = broker.demand_map(a, 100).unwrap();
/// assert!(broker.check_access(a, page, AccessKind::Read));
/// assert!(!broker.check_access(b, page, AccessKind::Read));
/// ```
#[derive(Debug)]
pub struct MemoryBroker {
    config: BrokerConfig,
    layout: FamLayout,
    acm: AcmStore,
    /// Regions not yet handed to the page pool or a shared segment.
    /// The pool takes from the front; shared segments from the back.
    unassigned_regions: std::collections::VecDeque<u64>,
    /// Shuffled free pages of pool regions.
    free_pages: Vec<u64>,
    nodes: Vec<NodeState>,
    shared_segments: Vec<SharedSegment>,
    logical: LogicalNodeMap,
    rng: SimRng,
}

impl MemoryBroker {
    /// Creates a broker managing a fresh FAM module.
    pub fn new(config: BrokerConfig) -> MemoryBroker {
        let layout = FamLayout::new(config.fam_bytes, config.acm_width);
        let regions = layout.usable_bytes().div_ceil(REGION_BYTES);
        MemoryBroker {
            config,
            layout,
            acm: AcmStore::new(config.acm_width),
            unassigned_regions: (0..regions).collect(),
            free_pages: Vec::new(),
            nodes: Vec::new(),
            shared_segments: Vec::new(),
            logical: LogicalNodeMap::new(),
            rng: SimRng::seeded(config.seed),
        }
    }

    /// The FAM layout (for metadata address arithmetic).
    pub fn layout(&self) -> &FamLayout {
        &self.layout
    }

    /// The ACM store (ground truth the STU verifies against).
    pub fn acm(&self) -> &AcmStore {
        &self.acm
    }

    /// The logical-node-id map (§VI).
    pub fn logical_nodes(&mut self) -> &mut LogicalNodeMap {
        &mut self.logical
    }

    /// Registers a new compute node, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::TooManyNodes`] if the configured limit or
    /// the ACM width's node-id space is exhausted, and propagates
    /// allocation failure for the node's system-page-table root.
    pub fn register_node(&mut self) -> Result<NodeId, BrokerError> {
        let id = self.nodes.len();
        if id >= self.config.max_nodes || id as u32 > self.config.acm_width.max_nodes() {
            return Err(BrokerError::TooManyNodes);
        }
        let root_page = self.take_page()?;
        self.nodes.push(NodeState {
            table: PageTable::new(root_page * PAGE_BYTES),
            owned_pages: Vec::new(),
        });
        Ok(NodeId::new(id as u16))
    }

    fn node_ref(&self, node: NodeId) -> Result<&NodeState, BrokerError> {
        self.nodes
            .get(node.index())
            .ok_or(BrokerError::UnknownNode(node))
    }

    /// Pops one free page, refilling the pool from the next unassigned
    /// region (in shuffled order) when empty.
    fn take_page(&mut self) -> Result<u64, BrokerError> {
        if self.free_pages.is_empty() {
            let region = self
                .unassigned_regions
                .pop_front()
                .ok_or(BrokerError::OutOfMemory)?;
            let first = region * (REGION_BYTES / PAGE_BYTES);
            let last = ((region + 1) * (REGION_BYTES / PAGE_BYTES)).min(self.layout.usable_pages());
            let quarantine = self.layout.quarantine();
            self.free_pages
                .extend((first..last).filter(|&p| !quarantine.contains(p)));
            // Fisher-Yates shuffle: random allocation order (§III-D).
            for i in (1..self.free_pages.len()).rev() {
                let j = self.rng.index(i + 1);
                self.free_pages.swap(i, j);
            }
        }
        self.free_pages.pop().ok_or(BrokerError::OutOfMemory)
    }

    /// Maps `npa_page` (a page in the node's FAM zone) to a freshly
    /// allocated FAM page, writing ownership ACM and installing the
    /// translation in the node's system page table. Idempotent: an
    /// already-mapped page returns its existing FAM page.
    ///
    /// This is the path taken when the STU faults on an unmapped node
    /// address and "requests physical pages from the system-level
    /// memory broker" (§II-C).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] or
    /// [`BrokerError::OutOfMemory`].
    pub fn demand_map(&mut self, node: NodeId, npa_page: u64) -> Result<u64, BrokerError> {
        if let Some(pte) = self.node_ref(node)?.table.translate(npa_page) {
            return Ok(pte.target_page);
        }
        let fam_page = self.take_page()?;
        // Pre-allocate pages for any interior table nodes the mapping
        // may need (at most LEVELS-1), then return the unused ones.
        let mut spare: Vec<u64> = Vec::with_capacity(3);
        for _ in 0..3 {
            spare.push(self.take_page()?);
        }
        let state = &mut self.nodes[node.index()];
        let mut alloc = |_level: usize| {
            spare
                .pop()
                .expect("three spare pages cover a 4-level mapping")
                * PAGE_BYTES
        };
        state
            .table
            .map(npa_page, fam_page, PtFlags::rw(), &mut alloc);
        state.owned_pages.push((npa_page, fam_page));
        self.free_pages.extend(spare);
        self.acm.set_owner(fam_page, node, PtFlags::rw());
        Ok(fam_page)
    }

    /// Looks up a node's system-level translation without faulting.
    pub fn translate(&self, node: NodeId, npa_page: u64) -> Option<Pte> {
        self.node_ref(node).ok()?.table.translate(npa_page)
    }

    /// The node's system page table — what the STU's FAM-PTW walks.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] for unregistered ids.
    pub fn system_table(&self, node: NodeId) -> Result<&PageTable, BrokerError> {
        Ok(&self.node_ref(node)?.table)
    }

    /// Vets an access: the STU's verification decision, delegated to
    /// the ACM ground truth.
    pub fn check_access(&self, node: NodeId, fam_page: u64, kind: AccessKind) -> bool {
        let region = fam_page * PAGE_BYTES / REGION_BYTES;
        self.acm.check(fam_page, region, node, kind)
    }

    /// Creates a shared segment of `pages` pages in a dedicated 1 GB
    /// region (shared pages are confined to 1 GB physical pages,
    /// §III-A), grants each member its flags in the region bitmap, and
    /// maps the segment into each member's system table starting at
    /// that member's `npa_start` page.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::SegmentTooLarge`],
    /// [`BrokerError::RegionExhausted`] or
    /// [`BrokerError::UnknownNode`].
    pub fn share_segment(
        &mut self,
        pages: u64,
        members: &[(NodeId, PtFlags, u64)],
    ) -> Result<SharedSegment, BrokerError> {
        let region_pages = REGION_BYTES / PAGE_BYTES;
        if pages > region_pages {
            return Err(BrokerError::SegmentTooLarge {
                requested: pages,
                limit: region_pages,
            });
        }
        for (node, _, _) in members {
            self.node_ref(*node)?;
        }
        let region = self
            .unassigned_regions
            .pop_back()
            .ok_or(BrokerError::RegionExhausted)?;
        let first_page = region * region_pages;
        let segment = SharedSegment {
            region,
            first_page,
            pages,
            members: members.to_vec(),
        };
        for fam_page in segment.fam_pages() {
            // All node-id bits set marks the page shared (§III-A); the
            // entry's own permission bits are the default for bitmap
            // members.
            self.acm.set_shared(fam_page, PtFlags::ro());
        }
        for &(node, flags, npa_start) in members {
            self.acm.grant_shared(region, node, flags);
            for (i, fam_page) in segment.fam_pages().enumerate() {
                let mut spare: Vec<u64> = Vec::with_capacity(3);
                for _ in 0..3 {
                    spare.push(self.take_page()?);
                }
                let state = &mut self.nodes[node.index()];
                let mut alloc = |_level: usize| {
                    spare.pop().expect("three spare pages cover a mapping") * PAGE_BYTES
                };
                state
                    .table
                    .map(npa_start + i as u64, fam_page, flags, &mut alloc);
                self.free_pages.extend(spare);
            }
        }
        self.shared_segments.push(segment.clone());
        Ok(segment)
    }

    /// Revokes `node`'s rights on the shared pages of `region` (the
    /// bitmap update a job teardown performs).
    pub fn revoke_shared(&mut self, region: u64, node: NodeId) {
        self.acm.revoke_shared(region, node);
    }

    /// Migrates every page owned by `from` to `to` (§VI): rewrites ACM
    /// ownership, moves the system-table mappings — including the
    /// node's *shared-segment* memberships, whose pages are not in
    /// `owned_pages` and used to be silently left behind — and reports
    /// the shootdown work the caller must apply to node-side caches.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] for unregistered ids.
    pub fn migrate_node(
        &mut self,
        from: NodeId,
        to: NodeId,
    ) -> Result<MigrationReport, BrokerError> {
        self.node_ref(from)?;
        self.node_ref(to)?;
        let moved = std::mem::take(&mut self.nodes[from.index()].owned_pages);
        let mut report = MigrationReport::default();

        for &(npa_page, fam_page) in &moved {
            let pte = self.nodes[from.index()]
                .table
                .unmap(npa_page)
                .unwrap_or(Pte {
                    target_page: fam_page,
                    flags: PtFlags::rw(),
                });
            self.acm.set_owner(fam_page, to, PtFlags::rw());
            report.acm_writes += 1;
            let mut spare: Vec<u64> = Vec::with_capacity(3);
            for _ in 0..3 {
                spare.push(self.take_page()?);
            }
            let state = &mut self.nodes[to.index()];
            let mut alloc = |_level: usize| {
                spare.pop().expect("three spare pages cover a mapping") * PAGE_BYTES
            };
            state.table.map(npa_page, fam_page, pte.flags, &mut alloc);
            self.free_pages.extend(spare);
            report.translation_invalidations += 1;
        }
        self.nodes[to.index()].owned_pages.extend(&moved);
        report.pages_moved = moved.len() as u64;

        // Shared-segment memberships travel with the job: revoke the
        // old node's bitmap grant, grant the new one, and rewrite the
        // member's system-table mappings under the same NPAs.
        for seg_idx in 0..self.shared_segments.len() {
            let segment = self.shared_segments[seg_idx].clone();
            for (m, &(member, flags, npa_start)) in segment.members.iter().enumerate() {
                if member != from {
                    continue;
                }
                self.acm.revoke_shared(segment.region, from);
                self.acm.grant_shared(segment.region, to, flags);
                report.acm_writes += 1;
                for (i, fam_page) in segment.fam_pages().enumerate() {
                    let npa_page = npa_start + i as u64;
                    self.nodes[from.index()].table.unmap(npa_page);
                    let mut spare: Vec<u64> = Vec::with_capacity(3);
                    for _ in 0..3 {
                        spare.push(self.take_page()?);
                    }
                    let state = &mut self.nodes[to.index()];
                    let mut alloc = |_level: usize| {
                        spare.pop().expect("three spare pages cover a mapping") * PAGE_BYTES
                    };
                    state.table.map(npa_page, fam_page, flags, &mut alloc);
                    self.free_pages.extend(spare);
                    report.translation_invalidations += 1;
                }
                report.shared_pages_moved += segment.pages;
                self.shared_segments[seg_idx].members[m] = (to, flags, npa_start);
            }
        }
        Ok(report)
    }

    /// Quarantines the FAM pages a permanent failure took out and
    /// rewrites every mapping that named them — the broker half of the
    /// permanent-failure recovery protocol.
    ///
    /// * The free pool and future region refills shed quarantined
    ///   pages, so nothing doomed is ever handed out again.
    /// * Data pages still reachable over the management path
    ///   (`evacuable`, i.e. a severed data link) are copied to
    ///   surviving FAM and their system-table mappings rewritten in
    ///   place; unreachable pages (dead node, failed media) are lost —
    ///   their mappings are removed and their ACM entries cleared, so
    ///   a later touch takes a fresh demand fault.
    /// * System-page-table pages on failed media are rebuilt on
    ///   surviving FAM regardless of `evacuable`: the broker authored
    ///   every entry, so tables are always reconstructible.
    ///
    /// Returns the accounting plus the shootdown worklist — one
    /// [`PageRelocation`] per rewritten or removed mapping — which the
    /// caller must apply to node-side caches (TLBs, STU, PTW caches)
    /// before any core may observe the new state. Evacuation that runs
    /// out of surviving capacity degrades page-by-page into loss
    /// rather than failing the protocol.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (capacity exhaustion degrades
    /// to loss); the `Result` reserves room for future broker errors.
    pub fn quarantine_and_evacuate(
        &mut self,
        quarantine: Quarantine,
        evacuable: bool,
    ) -> Result<(EvacuationReport, Vec<PageRelocation>), BrokerError> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Evacuation);
        self.layout.set_quarantine(quarantine);
        let mut report = EvacuationReport {
            capacity_pages_lost: self.layout.quarantined_pages(),
            ..EvacuationReport::default()
        };
        let mut relocations = Vec::new();

        self.free_pages.retain(|&p| !quarantine.contains(p));

        // Owned data pages.
        for node_idx in 0..self.nodes.len() {
            let node = NodeId::new(node_idx as u16);
            let doomed: Vec<(u64, u64)> = self.nodes[node_idx]
                .owned_pages
                .iter()
                .copied()
                .filter(|&(_, fam)| quarantine.contains(fam))
                .collect();
            for (npa_page, old_fam) in doomed {
                let replacement = if evacuable {
                    self.take_page().ok()
                } else {
                    None
                };
                let state = &mut self.nodes[node_idx];
                match replacement {
                    Some(new_fam) => {
                        let flags = state
                            .table
                            .translate(npa_page)
                            .map(|pte| pte.flags)
                            .unwrap_or_else(PtFlags::rw);
                        let mut alloc = |_level: usize| -> u64 {
                            unreachable!("remapping an existing leaf allocates nothing")
                        };
                        state.table.map(npa_page, new_fam, flags, &mut alloc);
                        for pair in &mut state.owned_pages {
                            if *pair == (npa_page, old_fam) {
                                pair.1 = new_fam;
                            }
                        }
                        self.acm.clear(old_fam);
                        self.acm.set_owner(new_fam, node, flags);
                        report.acm_writes += 2;
                        report.pages_evacuated += 1;
                        report.bytes_copied += PAGE_BYTES;
                        relocations.push(PageRelocation {
                            node,
                            npa_page,
                            old_fam_page: old_fam,
                            new_fam_page: Some(new_fam),
                        });
                    }
                    None => {
                        state.table.unmap(npa_page);
                        state.owned_pages.retain(|&p| p != (npa_page, old_fam));
                        self.acm.clear(old_fam);
                        report.acm_writes += 1;
                        report.pages_lost += 1;
                        relocations.push(PageRelocation {
                            node,
                            npa_page,
                            old_fam_page: old_fam,
                            new_fam_page: None,
                        });
                    }
                }
            }
        }

        // Shared-segment pages: one data fate per page, one mapping
        // rewrite per member.
        for seg_idx in 0..self.shared_segments.len() {
            let segment = self.shared_segments[seg_idx].clone();
            for (i, old_fam) in segment.fam_pages().enumerate() {
                if !quarantine.contains(old_fam) {
                    continue;
                }
                let replacement = if evacuable {
                    self.take_page().ok()
                } else {
                    None
                };
                match replacement {
                    Some(new_fam) => {
                        self.acm.set_shared(new_fam, PtFlags::ro());
                        report.acm_writes += 1;
                        report.pages_evacuated += 1;
                        report.bytes_copied += PAGE_BYTES;
                        let new_region = new_fam * PAGE_BYTES / REGION_BYTES;
                        for &(member, flags, npa_start) in &segment.members {
                            self.acm.grant_shared(new_region, member, flags);
                            report.acm_writes += 1;
                            let npa_page = npa_start + i as u64;
                            let state = &mut self.nodes[member.index()];
                            let mut alloc = |_level: usize| -> u64 {
                                unreachable!("remapping an existing leaf allocates nothing")
                            };
                            state.table.map(npa_page, new_fam, flags, &mut alloc);
                            relocations.push(PageRelocation {
                                node: member,
                                npa_page,
                                old_fam_page: old_fam,
                                new_fam_page: Some(new_fam),
                            });
                        }
                    }
                    None => {
                        self.acm.clear(old_fam);
                        report.acm_writes += 1;
                        report.pages_lost += 1;
                        for &(member, _, npa_start) in &segment.members {
                            let npa_page = npa_start + i as u64;
                            self.nodes[member.index()].table.unmap(npa_page);
                            relocations.push(PageRelocation {
                                node: member,
                                npa_page,
                                old_fam_page: old_fam,
                                new_fam_page: None,
                            });
                        }
                    }
                }
            }
        }

        // Table pages: always rebuildable, relocated in place so every
        // later walk reads surviving addresses.
        for node_idx in 0..self.nodes.len() {
            let doomed: Vec<u64> = self.nodes[node_idx]
                .table
                .table_page_addrs()
                .filter(|&addr| quarantine.contains(addr / PAGE_BYTES))
                .collect();
            for old_base in doomed {
                // Capacity exhaustion here would leave the table
                // unreadable; in practice table pages are a tiny
                // fraction of the pool, and the refill filter already
                // excludes quarantined pages.
                let new_page = self.take_page()?;
                self.nodes[node_idx]
                    .table
                    .relocate_table_page(old_base, new_page * PAGE_BYTES);
                report.table_pages_rebuilt += 1;
                report.bytes_copied += PAGE_BYTES;
                // Announce the rebuild as a relocation too, so in-flight
                // walks that already read the old address can redirect
                // instead of surfacing rebuildable metadata as loss.
                // The sentinel NPA can never collide with a real
                // mapping, so shootdowns keyed on NPAs ignore it.
                relocations.push(PageRelocation {
                    node: NodeId::new(node_idx as u16),
                    npa_page: u64::MAX,
                    old_fam_page: old_base / PAGE_BYTES,
                    new_fam_page: Some(new_page),
                });
            }
        }

        Ok((report, relocations))
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Pages currently owned (demand-mapped) by `node`.
    pub fn owned_pages(&self, node: NodeId) -> usize {
        self.node_ref(node)
            .map(|s| s.owned_pages.len())
            .unwrap_or(0)
    }

    /// Registered shared segments.
    pub fn shared_segments(&self) -> &[SharedSegment] {
        &self.shared_segments
    }

    /// The broker configuration.
    pub fn config(&self) -> BrokerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_vm::FamAddr;

    fn small_broker() -> MemoryBroker {
        MemoryBroker::new(BrokerConfig {
            fam_bytes: 4 << 30,
            ..BrokerConfig::default()
        })
    }

    #[test]
    fn register_and_map() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let page = b.demand_map(n, 0x1000).unwrap();
        assert_eq!(b.translate(n, 0x1000).unwrap().target_page, page);
        assert_eq!(b.owned_pages(n), 1);
    }

    #[test]
    fn demand_map_is_idempotent() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let p1 = b.demand_map(n, 7).unwrap();
        let p2 = b.demand_map(n, 7).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(b.owned_pages(n), 1);
    }

    #[test]
    fn nodes_get_disjoint_pages() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let mut pages = std::collections::HashSet::new();
        for i in 0..100 {
            assert!(pages.insert(b.demand_map(n1, i).unwrap()));
            assert!(pages.insert(b.demand_map(n2, i).unwrap()));
        }
    }

    #[test]
    fn allocation_order_is_randomised() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let pages: Vec<u64> = (0..64).map(|i| b.demand_map(n, i).unwrap()).collect();
        let sorted = {
            let mut s = pages.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(pages, sorted, "random allocation (§III-D)");
    }

    #[test]
    fn ownership_is_enforced() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let page = b.demand_map(n1, 0).unwrap();
        assert!(b.check_access(n1, page, AccessKind::Read));
        assert!(b.check_access(n1, page, AccessKind::Write));
        assert!(!b.check_access(n1, page, AccessKind::Execute));
        assert!(!b.check_access(n2, page, AccessKind::Read));
    }

    #[test]
    fn shared_segment_grants_mixed_permissions() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let n3 = b.register_node().unwrap();
        let seg = b
            .share_segment(
                16,
                &[(n1, PtFlags::rw(), 0x9000), (n2, PtFlags::ro(), 0xA000)],
            )
            .unwrap();
        let page = seg.first_page;
        assert!(b.check_access(n1, page, AccessKind::Write));
        assert!(b.check_access(n2, page, AccessKind::Read));
        assert!(!b.check_access(n2, page, AccessKind::Write));
        assert!(!b.check_access(n3, page, AccessKind::Read));
        // Mapped into both members' system tables at their NPAs.
        assert_eq!(b.translate(n1, 0x9000).unwrap().target_page, page);
        assert_eq!(b.translate(n2, 0xA000).unwrap().target_page, page);
    }

    #[test]
    fn shared_pages_marked_with_all_ones_node_field() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let seg = b.share_segment(1, &[(n1, PtFlags::ro(), 0)]).unwrap();
        let entry = b.acm().entry(seg.first_page).unwrap();
        assert!(entry.is_shared());
    }

    #[test]
    fn segment_too_large_rejected() {
        let mut b = small_broker();
        b.register_node().unwrap();
        let err = b.share_segment(1 << 30, &[]).unwrap_err();
        assert!(matches!(err, BrokerError::SegmentTooLarge { .. }));
    }

    #[test]
    fn migration_moves_ownership_and_mappings() {
        let mut b = small_broker();
        let from = b.register_node().unwrap();
        let to = b.register_node().unwrap();
        let p0 = b.demand_map(from, 10).unwrap();
        let p1 = b.demand_map(from, 11).unwrap();
        let report = b.migrate_node(from, to).unwrap();
        assert_eq!(report.pages_moved, 2);
        assert_eq!(report.acm_writes, 2);
        assert_eq!(report.translation_invalidations, 2);
        assert!(b.check_access(to, p0, AccessKind::Read));
        assert!(!b.check_access(from, p1, AccessKind::Read));
        assert_eq!(b.translate(to, 10).unwrap().target_page, p0);
        assert_eq!(b.translate(from, 10), None);
    }

    #[test]
    fn migration_carries_shared_segment_memberships() {
        let mut b = small_broker();
        let from = b.register_node().unwrap();
        let to = b.register_node().unwrap();
        let other = b.register_node().unwrap();
        b.demand_map(from, 10).unwrap();
        let seg = b
            .share_segment(
                8,
                &[
                    (from, PtFlags::rw(), 0x9000),
                    (other, PtFlags::ro(), 0xA000),
                ],
            )
            .unwrap();
        let report = b.migrate_node(from, to).unwrap();
        assert_eq!(report.pages_moved, 1);
        assert_eq!(
            report.shared_pages_moved, 8,
            "the shared membership must migrate, not be silently dropped"
        );
        assert_eq!(report.translation_invalidations, 1 + 8);
        // The new node sees the segment under the old NPAs with the old
        // rights; the old node has lost both mapping and rights.
        assert_eq!(b.translate(to, 0x9000).unwrap().target_page, seg.first_page);
        assert_eq!(b.translate(from, 0x9000), None);
        assert!(b.check_access(to, seg.first_page, AccessKind::Write));
        assert!(!b.check_access(from, seg.first_page, AccessKind::Read));
        // The uninvolved member is untouched.
        assert!(b.check_access(other, seg.first_page, AccessKind::Read));
        assert_eq!(
            b.translate(other, 0xA000).unwrap().target_page,
            seg.first_page
        );
        // The member record now names the new node.
        let members = &b.shared_segments()[0].members;
        assert!(members.iter().any(|&(n, _, _)| n == to));
        assert!(!members.iter().any(|&(n, _, _)| n == from));
    }

    #[test]
    fn evacuation_relocates_reachable_pages_and_reports_them() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let pages: Vec<u64> = (0..50).map(|i| b.demand_map(n, i).unwrap()).collect();
        let quarantine = Quarantine::Module {
            index: 1,
            stride: 4,
        };
        let doomed: Vec<u64> = pages.iter().copied().filter(|p| p % 4 == 1).collect();
        assert!(!doomed.is_empty(), "the stride must hit some allocations");
        let (report, relocations) = b.quarantine_and_evacuate(quarantine, true).unwrap();
        assert_eq!(report.pages_evacuated, doomed.len() as u64);
        assert_eq!(report.pages_lost, 0, "a severed link loses no data");
        assert_eq!(report.bytes_copied % PAGE_BYTES, 0);
        assert!(report.capacity_pages_lost > 0);
        // Data relocations carry the real NPA; rebuilt table pages ride
        // along under the sentinel NPA so in-flight walks can redirect.
        let (table_moves, data_moves): (Vec<&PageRelocation>, Vec<&PageRelocation>) =
            relocations.iter().partition(|r| r.npa_page == u64::MAX);
        assert_eq!(data_moves.len(), doomed.len());
        assert_eq!(table_moves.len(), report.table_pages_rebuilt as usize);
        for r in table_moves {
            assert!(r.new_fam_page.is_some(), "tables are always rebuildable");
        }
        for r in data_moves {
            let new_fam = r.new_fam_page.expect("evacuable pages relocate");
            assert!(!quarantine.contains(new_fam), "destination must survive");
            assert_eq!(b.translate(n, r.npa_page).unwrap().target_page, new_fam);
            assert!(b.check_access(n, new_fam, AccessKind::Read));
            assert!(!b.check_access(n, r.old_fam_page, AccessKind::Read));
        }
        // Future allocations never land on quarantined pages.
        for i in 100..200 {
            let p = b.demand_map(n, i).unwrap();
            assert!(!quarantine.contains(p));
        }
    }

    #[test]
    fn dead_node_loses_pages_and_unmaps_them() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        for i in 0..50 {
            b.demand_map(n, i).unwrap();
        }
        let quarantine = Quarantine::Module {
            index: 0,
            stride: 4,
        };
        let (report, relocations) = b.quarantine_and_evacuate(quarantine, false).unwrap();
        assert_eq!(report.pages_evacuated, 0);
        assert!(report.pages_lost > 0, "a dead module destroys data");
        for r in &relocations {
            assert_eq!(r.new_fam_page, None);
            assert_eq!(
                b.translate(n, r.npa_page),
                None,
                "lost mappings are removed so a re-touch demand-faults"
            );
        }
        // A re-touch of a lost NPA maps a fresh, surviving page.
        let lost_npa = relocations[0].npa_page;
        let fresh = b.demand_map(n, lost_npa).unwrap();
        assert!(!quarantine.contains(fresh));
    }

    #[test]
    fn evacuation_rebuilds_table_pages_on_failed_media() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        b.demand_map(n, 42).unwrap();
        // Quarantine exactly the pages holding the node's table, as a
        // media-failure range; the broker must rebuild them.
        let table_page = b.system_table(n).unwrap().root_addr() / PAGE_BYTES;
        let quarantine = Quarantine::Range {
            first_page: table_page,
            pages: 1,
        };
        let (report, _) = b.quarantine_and_evacuate(quarantine, false).unwrap();
        assert_eq!(report.table_pages_rebuilt, 1);
        let rebuilt_root = b.system_table(n).unwrap().root_addr() / PAGE_BYTES;
        assert!(!quarantine.contains(rebuilt_root));
        // The logical mapping survived the rebuild.
        assert!(b.translate(n, 42).is_some());
    }

    #[test]
    fn unknown_node_is_an_error() {
        let mut b = small_broker();
        let err = b.demand_map(NodeId::new(9), 0).unwrap_err();
        assert_eq!(err, BrokerError::UnknownNode(NodeId::new(9)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut b = MemoryBroker::new(BrokerConfig {
            fam_bytes: 16 << 20, // 16 MB: ~4K usable pages
            ..BrokerConfig::default()
        });
        let n = b.register_node().unwrap();
        let mut npa = 0u64;
        let err = loop {
            match b.demand_map(n, npa) {
                Ok(_) => npa += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, BrokerError::OutOfMemory);
        assert!(npa > 1000, "most pages were allocatable first");
    }

    #[test]
    fn node_limit_enforced() {
        let mut b = MemoryBroker::new(BrokerConfig {
            max_nodes: 1,
            ..BrokerConfig::default()
        });
        b.register_node().unwrap();
        assert_eq!(b.register_node().unwrap_err(), BrokerError::TooManyNodes);
    }

    #[test]
    fn system_table_walkable_by_stu() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let page = b.demand_map(n, 42).unwrap();
        let table = b.system_table(n).unwrap();
        let walk = table.walk(42);
        assert_eq!(walk.mapping.unwrap().target_page, page);
        assert_eq!(walk.steps.len(), 4, "4-level system page table");
        // Interior pages live in FAM's usable region.
        for step in &walk.steps {
            assert!(b.layout().is_usable(FamAddr(step.entry_addr)));
        }
    }
}
