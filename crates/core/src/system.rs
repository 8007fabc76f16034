//! The full-system model and simulation driver.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use fam_broker::{AccessKind, BrokerConfig, MemoryBroker, PageRelocation, Quarantine};
use fam_fabric::packet::{Packet, PacketKind, RESPONSE_BYTES};
use fam_fabric::Fabric;
use fam_mem::{MemOpKind, NvmConfig, NvmModel};
use fam_sim::profile::{self, PhaseId};
use fam_sim::{
    Cycle, Duration, FabricFault, FaultInjector, Frequency, PersistentFault, Stage, Tracer, Track,
    WindowSample,
};
use fam_stu::Stu;
use fam_vm::{NodeId, Pte, VirtAddr, WalkAccess, PAGE_BYTES};
use fam_workloads::{RefStream, TraceGenerator, Workload};

use crate::error::SimError;
use crate::metrics::{
    AuditCheck, AuditReport, DegradationReport, FamTraffic, FaultRecovery, RunReport,
};
use crate::node::{Node, FAM_KEY_PAGE, FREQUENCY_MHZ, ISSUE_WIDTH};
use crate::translator::{RetryConfig, RetryOutcome, RetryState};
use crate::{Scheme, SystemConfig};

/// STU FAM-PTW cache entries. The paper grants 32 entries at full
/// memory scale (§IV), where they covered roughly a tenth of a scatter
/// benchmark's footprint; at this repo's scaled-down footprints
/// (DESIGN.md §1) the equivalent reach is 4 entries.
const STU_PTW_ENTRIES: usize = 4;
/// One-way node↔STU router hop in nanoseconds (the STU sits in the
/// first router, §III-A).
const ROUTER_NS: u64 = 10;
/// STU cache lookup latency.
const STU_LOOKUP: Duration = Duration(4);
/// Kernel page-fault service time in nanoseconds (charged once per
/// first touch; identical across schemes).
const FAULT_NS: u64 = 1500;
/// Management-path copy bandwidth, in bytes per core cycle, charged on
/// the simulated clock while the broker evacuates still-reachable pages
/// off quarantined FAM (a persistent [`fam_sim::PersistentFault`]).
const EVACUATION_BYTES_PER_CYCLE: u64 = 64;

/// A complete FAM system under one scheme: nodes, fabric, STUs, the
/// FAM device and the memory broker (Fig. 6 writ large).
///
/// # Examples
///
/// ```
/// use deact::{Scheme, System, SystemConfig};
/// use fam_workloads::Workload;
///
/// let cfg = SystemConfig::paper_default()
///     .with_scheme(Scheme::DeactN)
///     .with_refs_per_core(200);
/// let mut sys = System::new(cfg, &Workload::by_name("astar").unwrap());
/// let report = sys.run();
/// assert!(report.ipc > 0.0);
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    workload_name: String,
    nodes: Vec<Node>,
    stus: Vec<Stu>,
    /// Per-STU FAM-PTW availability: the walker handles one walk at a
    /// time, so concurrent misses queue — the first-order reason
    /// I-FAM collapses on translation-hostile workloads.
    walker_free: Vec<Cycle>,
    fabric: Fabric,
    /// One device model per FAM module; pages interleave across them.
    nvm: Vec<NvmModel>,
    broker: MemoryBroker,
    router: Duration,
    fault_latency: Duration,
    /// Retry/timeout/backoff policy the nodes use to recover from
    /// injected faults.
    retry: RetryConfig,
    traffic: FamTraffic,
    /// Deterministic fault injection; a disabled injector costs one
    /// branch per FAM round trip and nothing else.
    injector: FaultInjector,
    /// Response-side recovery accounting (the injected-fault counters
    /// come from the injector itself at report time).
    recovery: FaultRecovery,
    /// Reusable wire-frame buffer for the fault injector's corruption
    /// path, so injected frames don't allocate a fresh `Vec` each.
    frame_scratch: Vec<u8>,
    /// Request-lifecycle tracing; like the injector, a disabled tracer
    /// costs one branch per event site and nothing else.
    tracer: Tracer,
    /// The FAM pages a scheduled persistent fault will destroy,
    /// precomputed from the config ([`Quarantine::None`] when no
    /// persistent fault is scheduled). Membership is pure arithmetic,
    /// so the strike check costs one compare per FAM round trip.
    pending_quarantine: Quarantine,
    /// Whether the broker-led recovery protocol has already run — the
    /// escalation state machine's Recovering → Degraded edge is
    /// one-shot.
    persistent_handled: bool,
    /// What the permanent failure cost (all-zero until one strikes).
    degradation: DegradationReport,
    /// Where each quarantined FAM page's data went: `Some(new)` for a
    /// page the broker evacuated, `None` for destroyed data. Fed by the
    /// recovery protocol, consumed by the degraded-mode redirect and
    /// the E-FAM lazy PTE heal.
    moved: BTreeMap<u64, Option<u64>>,
    /// `(node, npa_page) → old FAM page` for mappings the recovery
    /// protocol removed because the data was destroyed — the first
    /// re-walk of one of these is a poisoned access, not an ordinary
    /// first touch.
    lost: BTreeMap<(NodeId, u64), u64>,
    /// The recycled page-walk access buffer: a node-level walk plans
    /// into it instead of allocating a fresh vector per walk.
    walk_buf: Vec<WalkAccess>,
}

impl System {
    /// Builds a system running `workload` on every core.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (see
    /// [`SystemConfig::validate`]).
    pub fn new(config: SystemConfig, workload: &Workload) -> System {
        let streams = System::synthetic_streams(&config, workload);
        System::with_streams(config, workload.name, streams)
    }

    /// The per-core synthetic reference streams [`System::new`] runs:
    /// one generator per core, seeded from the config seed and the
    /// core's global rank. Public so `deact-sim record` (and the
    /// replay tests) can draw *exactly* the stream a live run would
    /// execute — record-then-replay is bit-identical because both
    /// paths start from this function.
    pub fn synthetic_streams(config: &SystemConfig, workload: &Workload) -> Vec<Vec<RefStream>> {
        (0..config.nodes)
            .map(|n| {
                (0..config.cores_per_node)
                    .map(|c| {
                        let seed = config
                            .seed
                            .wrapping_mul(0x9E37_79B9)
                            .wrapping_add((n * 64 + c) as u64);
                        RefStream::from(TraceGenerator::new(
                            *workload,
                            fam_workloads::VA_BASE + ((c as u64) << 40),
                            seed,
                        ))
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds a system from explicit per-core reference streams.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (see
    /// [`SystemConfig::validate`]) or a mis-shaped stream matrix.
    pub fn with_streams(config: SystemConfig, label: &str, streams: Vec<Vec<RefStream>>) -> System {
        config.validate();
        assert_eq!(streams.len(), config.nodes, "one stream set per node");
        let freq = Frequency::mhz(FREQUENCY_MHZ);
        let mut broker = MemoryBroker::new(BrokerConfig {
            fam_bytes: config.fam_bytes,
            acm_width: config.acm_width,
            max_nodes: config.nodes,
            seed: config.seed,
        });
        let mut nodes: Vec<Node> = streams
            .into_iter()
            .enumerate()
            .map(|(i, node_streams)| Node::new(&config, node_streams, &mut broker, i))
            .collect();
        if config.shared_segment_pages > 0 {
            let members: Vec<(fam_vm::NodeId, fam_vm::PtFlags, u64)> = nodes
                .iter()
                .map(|n| (n.id, fam_vm::PtFlags::rw(), crate::node::FAM_ZONE_PAGE))
                .collect();
            let segment = broker
                .share_segment(config.shared_segment_pages, &members)
                .expect("a 1 GB region is reserved for sharing");
            for node in &mut nodes {
                node.map_shared_segment(segment.first_page, segment.pages);
            }
        }
        let stus = if config.scheme == Scheme::EFam {
            Vec::new()
        } else {
            (0..config.nodes)
                .map(|_| Stu::with_ptw_entries(config.stu_config(), STU_PTW_ENTRIES))
                .collect()
        };
        System {
            workload_name: label.to_string(),
            nodes,
            stus,
            walker_free: vec![Cycle::ZERO; config.nodes],
            fabric: Fabric::new(freq, config.fabric, config.nodes, config.fam_modules),
            nvm: (0..config.fam_modules)
                .map(|_| NvmModel::new(freq, NvmConfig::default()))
                .collect(),
            broker,
            router: freq.ns_to_cycles(ROUTER_NS),
            fault_latency: freq.ns_to_cycles(FAULT_NS),
            retry: RetryConfig::default(),
            traffic: FamTraffic::default(),
            injector: FaultInjector::new(config.fault_injection),
            recovery: FaultRecovery::default(),
            frame_scratch: Vec::with_capacity(fam_fabric::packet::PACKET_BYTES),
            tracer: Tracer::new(config.trace),
            pending_quarantine: match config.fault_injection.persistent {
                None => Quarantine::None,
                Some(schedule) => match schedule.fault {
                    PersistentFault::NodeDead { module }
                    | PersistentFault::LinkSevered { module } => Quarantine::Module {
                        index: module,
                        stride: config.fam_modules,
                    },
                    PersistentFault::MediaFailed { first_page, pages } => {
                        Quarantine::Range { first_page, pages }
                    }
                },
            },
            persistent_handled: false,
            degradation: DegradationReport::default(),
            moved: BTreeMap::new(),
            lost: BTreeMap::new(),
            walk_buf: Vec::new(),
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The per-node STUs (empty for E-FAM).
    pub fn stus(&self) -> &[Stu] {
        &self.stus
    }

    /// The tracer (events, latency breakdowns, windowed time series).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs every core to `refs_per_core` references and reports.
    ///
    /// # Panics
    ///
    /// Panics if the run cannot complete (see [`System::try_run`] for
    /// the non-panicking form).
    pub fn run(&mut self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs every core to `refs_per_core` references and reports,
    /// surfacing failures as a typed [`SimError`] instead of a panic.
    ///
    /// The scheduler is a min-heap of `(ready_cycle, slot)` entries,
    /// where `slot = node * cores_per_node + core`: one pop plus one
    /// push per reference. References execute in ready order, so the
    /// shared-resource timelines advance in time order (running a
    /// far-future request first would push a resource's timeline past
    /// everyone else's present). The explicit slot tie-break makes the
    /// order among equal ready times deterministic, and a core's
    /// predicted ready time depends only on its own front end and
    /// outstanding window, so only the core that just executed is
    /// pushed back: a slot is in the heap at most once, and no entry
    /// ever needs re-keying.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FamExhausted`] when the broker cannot
    /// demand-map another FAM page for the workload.
    pub fn try_run(&mut self) -> Result<RunReport, SimError> {
        let refs = self.config.refs_per_core;
        let cores_per_node = self.config.cores_per_node;
        let mut ready_queue = BinaryHeap::with_capacity(self.nodes.len() * cores_per_node);
        for n in 0..self.nodes.len() {
            for c in 0..self.nodes[n].cores.len() {
                if self.nodes[n].cores[c].refs_done < refs {
                    let slot = n * cores_per_node + c;
                    ready_queue.push(Reverse((self.stage_ref(n, c), slot)));
                }
            }
        }
        loop {
            let popped = {
                let _prof = profile::span(PhaseId::SchedPop);
                ready_queue.pop()
            };
            let Some(Reverse((_, slot))) = popped else {
                break;
            };
            let (n, c) = (slot / cores_per_node, slot % cores_per_node);
            self.sim_ref(n, c)?;
            if self.nodes[n].cores[c].refs_done < refs {
                ready_queue.push(Reverse((self.stage_ref(n, c), slot)));
            }
        }
        Ok(self.report())
    }

    /// Draws the next reference of core `c` on node `n`, stages it, and
    /// returns its predicted start.
    fn stage_ref(&mut self, n: usize, c: usize) -> Cycle {
        let req = self.tracer.next_request();
        let core = &mut self.nodes[n].cores[c];
        core.staged += 1;
        // Struct-of-arrays batching: the enum-dispatched generator call
        // is paid once per `RefBatch::DEFAULT_LEN` references; the steady
        // state is an indexed pop. Order is exactly the unbatched stream's.
        let r = match core.batch.pop() {
            Some(r) => r,
            None => {
                core.batch
                    .refill(&mut core.gen, fam_workloads::RefBatch::DEFAULT_LEN);
                core.batch.pop().expect("a refill yields references")
            }
        };
        core.instructions += u64::from(r.gap_instrs) + 1;
        core.next_issue += Duration(u64::from(r.gap_instrs).div_ceil(ISSUE_WIDTH) + 1);
        let mut start_req = core.next_issue.max(core.issue_clock);
        if r.dependent {
            start_req = start_req.max(core.last_mem_completion);
        }
        let ready = core.window.would_start_mut(start_req);
        core.pending = Some(crate::node::PendingRef {
            mem: r,
            req,
            start_req,
            ready,
        });
        ready
    }

    /// Simulates one staged reference of core `c` on node `n` end to
    /// end.
    fn sim_ref(&mut self, n: usize, c: usize) -> Result<(), SimError> {
        let _prof = profile::span(PhaseId::SchedDispatch);
        let (r, t) = {
            let core = &mut self.nodes[n].cores[c];
            let p = core
                .pending
                .take()
                .expect("sim_ref runs only on staged cores");
            let start = core.window.admit(p.start_req);
            core.issue_clock = start;
            self.tracer.begin(p.req);
            (p.mem, start)
        };
        // Time-series snapshot: traffic/recovery counters before the
        // reference, so their deltas can be attributed to its window.
        let window_before = if self.tracer.wants_windows() {
            Some((
                self.traffic.at_total(),
                self.traffic.total(),
                self.recovery.retries,
                self.recovery.recovered,
            ))
        } else {
            None
        };

        // Node-level translation (TLB → node page-table walk).
        let (pte, t) = self.translate(n, c, r.vaddr, t)?;
        let phys_byte = pte.target_page * PAGE_BYTES + r.vaddr.offset();
        let line = phys_byte / 64;

        // Data caches.
        let lookup = self.nodes[n].hierarchy.access(c, line, r.is_write);
        let mut completion = t + lookup.latency;
        if lookup.level.is_none() {
            let kind = if r.is_write {
                MemOpKind::Write
            } else {
                MemOpKind::Read
            };
            completion = if self.nodes[n].is_fam_page(pte.target_page) {
                match self.config.scheme {
                    Scheme::EFam => {
                        if r.is_write {
                            self.traffic.data_writes += 1;
                        } else {
                            self.traffic.data_reads += 1;
                        }
                        let fam_byte = phys_byte - FAM_KEY_PAGE * PAGE_BYTES;
                        self.fam_round_trip(n, completion, fam_byte, kind)?
                    }
                    Scheme::IFam => self.ifam_fam_access(
                        n,
                        completion,
                        pte.target_page,
                        r.vaddr.offset(),
                        kind,
                    )?,
                    Scheme::DeactW | Scheme::DeactN => self.deact_fam_access(
                        n,
                        completion,
                        pte.target_page,
                        r.vaddr.offset(),
                        kind,
                    )?,
                }
            } else if r.is_write {
                self.nodes[n].dram.write(completion, phys_byte)
            } else {
                self.nodes[n].dram.access(completion, phys_byte)
            };
        }
        if let Some(wb_line) = lookup.writeback {
            self.writeback(n, wb_line, completion);
        }

        let core = &mut self.nodes[n].cores[c];
        core.window.record_completion(completion);
        core.last_mem_completion = completion;
        core.refs_done += 1;
        core.finish = core.finish.max(completion);
        if let Some((at_before, total_before, retries_before, recovered_before)) = window_before {
            self.tracer.sample(
                completion,
                WindowSample {
                    instructions: u64::from(r.gap_instrs) + 1,
                    fam_at: self.traffic.at_total() - at_before,
                    fam_total: self.traffic.total() - total_before,
                    retries: self.recovery.retries - retries_before,
                    recovered: self.recovery.recovered - recovered_before,
                },
            );
        }
        Ok(())
    }

    /// Node-level translation: TLB, then a page-table walk whose entry
    /// reads replay through the data caches and the right memory.
    fn translate(
        &mut self,
        n: usize,
        c: usize,
        vaddr: VirtAddr,
        t: Cycle,
    ) -> Result<(Pte, Cycle), SimError> {
        let vpage = vaddr.vpage();
        let (_, tlb_latency, hit) = self.nodes[n].cores[c].tlb.lookup(vpage);
        let start = t;
        let mut t = t + tlb_latency;
        self.tracer
            .span(Stage::TlbLookup, Track::Node(n as u16), start, t);
        if let Some(pte) = hit {
            return Ok((pte, t));
        }
        // Recycled walk buffer: plans land in the system's one vector
        // instead of a fresh allocation per walk. On early `?` returns
        // the buffer is dropped rather than put back — harmless, the
        // next walk allocates a new one.
        let mut walk_buf = std::mem::take(&mut self.walk_buf);
        loop {
            let mapping = {
                let node = &mut self.nodes[n];
                fam_vm::PageWalker::plan_into(
                    &node.page_table,
                    Some(&mut node.cores[c].ptw),
                    vpage,
                    &mut walk_buf,
                )
            };
            match mapping {
                None => {
                    // Node-level page fault: the OS installs a mapping.
                    self.tracer.span(
                        Stage::Fault,
                        Track::Node(n as u16),
                        t,
                        t + self.fault_latency,
                    );
                    t += self.fault_latency;
                    let node = &mut self.nodes[n];
                    node.map_page(vaddr, &mut self.broker)
                        .map_err(|source| SimError::FamExhausted { node: n, source })?;
                }
                Some(mut pte) => {
                    let walk_start = t;
                    for acc in &walk_buf {
                        t = self.pt_step_access(n, c, acc.entry_addr, t)?;
                    }
                    if !walk_buf.is_empty() {
                        self.tracer
                            .span(Stage::PtWalk, Track::Node(n as u16), walk_start, t);
                    }
                    // E-FAM lazy PTE heal: a walk surfacing a PTE that
                    // names a quarantined FAM key repairs it in place
                    // (the data was evacuated) or unmaps and refaults
                    // (the data is gone — a counted poisoned access).
                    if self.persistent_handled
                        && self.config.scheme == Scheme::EFam
                        && pte.target_page >= FAM_KEY_PAGE
                    {
                        match self.moved.get(&(pte.target_page - FAM_KEY_PAGE)).copied() {
                            Some(Some(new_fam)) => {
                                let mut alloc = |_level: usize| -> u64 {
                                    unreachable!("rewriting an existing leaf allocates nothing")
                                };
                                self.nodes[n].page_table.map(
                                    vpage,
                                    FAM_KEY_PAGE + new_fam,
                                    pte.flags,
                                    &mut alloc,
                                );
                                pte.target_page = FAM_KEY_PAGE + new_fam;
                                self.degradation.pte_rewrites += 1;
                            }
                            Some(None) => {
                                self.degradation.poisoned_accesses += 1;
                                if self.config.halt_on_data_loss {
                                    return Err(SimError::DataLoss {
                                        node: n,
                                        fam_page: pte.target_page - FAM_KEY_PAGE,
                                    });
                                }
                                self.nodes[n].page_table.unmap(vpage);
                                continue;
                            }
                            None => {}
                        }
                    }
                    self.nodes[n].cores[c].tlb.fill(vpage, pte);
                    self.walk_buf = walk_buf;
                    return Ok((pte, t));
                }
            }
        }
    }

    /// One page-table entry read: probes the caches, then local DRAM
    /// or (E-FAM only) the FAM.
    fn pt_step_access(
        &mut self,
        n: usize,
        c: usize,
        entry_addr: u64,
        t: Cycle,
    ) -> Result<Cycle, SimError> {
        let lookup = self.nodes[n].hierarchy.access(c, entry_addr / 64, false);
        let mut t = t + lookup.latency;
        if lookup.level.is_none() {
            let page = entry_addr / PAGE_BYTES;
            t = if self.nodes[n].is_fam_page(page) {
                debug_assert_eq!(
                    self.config.scheme,
                    Scheme::EFam,
                    "only E-FAM places node PT pages in FAM"
                );
                self.traffic.at_pte_reads += 1;
                let fam_byte = entry_addr - FAM_KEY_PAGE * PAGE_BYTES;
                self.fam_round_trip(n, t, fam_byte, MemOpKind::Read)?
            } else {
                self.nodes[n].dram.access(t, entry_addr)
            };
        }
        if let Some(wb_line) = lookup.writeback {
            self.writeback(n, wb_line, t);
        }
        Ok(t)
    }

    /// Selects the FAM module backing an address (page-interleaved).
    fn module_of(&self, fam_byte: u64) -> usize {
        // Single-module systems (the paper default) skip the divide.
        let modules = self.nvm.len();
        if modules == 1 {
            return 0;
        }
        ((fam_byte / PAGE_BYTES) % modules as u64) as usize
    }

    /// Whether a scheduled persistent fault destroys the page holding
    /// `fam_byte`. Only the usable data region is in the blast zone:
    /// the Fig. 5 metadata regions (ACM, bitmaps) are broker-authored
    /// and modeled as rebuilt from the broker's mirror for free.
    fn persistent_strikes(&self, fam_byte: u64) -> bool {
        let page = fam_byte / PAGE_BYTES;
        page < self.broker.layout().usable_pages() && self.pending_quarantine.contains(page)
    }

    /// A node↔FAM round trip for one block: fabric there, device
    /// service, fabric back. Every FAM request in every scheme funnels
    /// through here, so this is where injected fabric faults strike
    /// and where the retry/timeout/backoff machine recovers from them.
    /// A *persistent* fault on the target page never heals under retry
    /// and escalates into broker-led recovery instead
    /// ([`System::persistent_path`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DataLoss`] when the access reads destroyed
    /// data and the config sets `halt_on_data_loss`.
    fn fam_round_trip(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        if !self.injector.is_enabled() {
            return Ok(self.fam_round_trip_clean(n, t, fam_byte, kind));
        }
        self.injector.note_fam_op();
        if self.injector.persistent_active().is_some() && self.persistent_strikes(fam_byte) {
            return self.persistent_path(n, t, fam_byte, kind);
        }
        let mut t = t;
        let mut state = RetryState::new();
        loop {
            // Scheduled link-down window: the requester sits at the
            // serializer until the link returns.
            let up = self.injector.link_up_at(t);
            self.recovery.link_down_wait_cycles += (up - t).0;
            if up > t {
                self.tracer
                    .span(Stage::Fault, Track::Fabric(n as u16), t, up);
            }
            t = up;
            match self.injector.fabric_fault() {
                None => {
                    let done = self.fam_round_trip_clean(n, t, fam_byte, kind);
                    if state.attempts() > 0 {
                        self.recovery.recovered += 1;
                    }
                    return Ok(done);
                }
                Some(FabricFault::Drop) => {
                    // The frame left the node (the link was occupied)
                    // and vanished; the requester burns the timeout.
                    let module = self.module_of(fam_byte);
                    self.fabric.node_to_fam(t, n, module);
                    self.recovery.timeouts += 1;
                    let expiry = t + Duration(self.retry.timeout_cycles);
                    self.tracer
                        .span(Stage::Retry, Track::Fabric(n as u16), t, expiry);
                    t = expiry;
                }
                Some(FabricFault::Corrupt) => {
                    // Corrupt the *real* wire frame and let the CRC
                    // catch it — detection is earned, not assumed. The
                    // FAM side answers with a corrupt-NACK, costing a
                    // full fabric round trip with no device service.
                    self.fill_corrupted_frame(n, fam_byte, kind);
                    match Packet::decode(&self.frame_scratch) {
                        Err(_) => {
                            self.recovery.nacks_corrupt += 1;
                            let module = self.module_of(fam_byte);
                            let arrival = self.fabric.node_to_fam(t, n, module);
                            let back = self.fabric.fam_to_node(
                                arrival,
                                n,
                                module,
                                fam_fabric::packet::RESPONSE_BYTES as u64,
                            );
                            self.tracer
                                .span(Stage::Retry, Track::Fabric(n as u16), t, back);
                            t = back;
                        }
                        Ok(_) => {
                            // Unreachable with CRC-16 and a single-byte
                            // flip, but honesty demands the branch: an
                            // undetected corruption is a delivery.
                            return Ok(self.fam_round_trip_clean(n, t, fam_byte, kind));
                        }
                    }
                }
            }
            match state.on_fault(&self.retry) {
                RetryOutcome::Retry { backoff } => {
                    self.recovery.retries += 1;
                    self.recovery.backoff_cycles += backoff.0;
                    self.tracer
                        .span(Stage::Backoff, Track::Fabric(n as u16), t, t + backoff);
                    t += backoff;
                }
                RetryOutcome::GiveUp => {
                    // Graceful degradation: the access is counted as
                    // fatal (a real system would raise a poison/MCE)
                    // but still completes so the run finishes and the
                    // damage is measurable instead of a crash.
                    self.recovery.fatal += 1;
                    return Ok(self.fam_round_trip_clean(n, t, fam_byte, kind));
                }
            }
        }
    }

    /// One fabric round trip ending in an unreachable-NACK from the
    /// failed endpoint's management plane (the data path is gone, the
    /// enclosure still answers).
    fn unreachable_nack(&mut self, n: usize, t: Cycle, module: usize) -> Cycle {
        let arrival = self.fabric.node_to_fam(t, n, module);
        let back = self
            .fabric
            .fam_to_node(arrival, n, module, RESPONSE_BYTES as u64);
        self.recovery.nacks_unreachable += 1;
        self.tracer
            .span(Stage::Retry, Track::Fabric(n as u16), t, back);
        back
    }

    /// The persistent-fault arm of [`System::fam_round_trip`]: the
    /// escalation state machine.
    ///
    /// * **Suspect** — the first access into the blast zone burns its
    ///   full retry budget against unreachable-NACKs (a persistent
    ///   fault never heals under retry).
    /// * **Recovering** — budget exhausted: escalate into the one-shot
    ///   broker-led recovery protocol
    ///   ([`System::recover_from_persistent`]).
    /// * **Degraded** — the system is consistent again. The escalating
    ///   access (and any straggler still naming a quarantined page)
    ///   either redirects to the page's evacuated home or fast-fails
    ///   with a single unreachable-NACK as a counted poisoned access.
    fn persistent_path(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        let mut t = t;
        let module = self.module_of(fam_byte);
        if !self.persistent_handled {
            let mut state = RetryState::new();
            loop {
                t = self.unreachable_nack(n, t, module);
                match state.on_fault(&self.retry) {
                    RetryOutcome::Retry { backoff } => {
                        self.recovery.retries += 1;
                        self.recovery.backoff_cycles += backoff.0;
                        self.tracer
                            .span(Stage::Backoff, Track::Fabric(n as u16), t, t + backoff);
                        t += backoff;
                    }
                    RetryOutcome::GiveUp => break,
                }
            }
            t = self.recover_from_persistent(n, t)?;
        }
        let fam_page = fam_byte / PAGE_BYTES;
        match self.moved.get(&fam_page).copied().flatten() {
            Some(new_fam) => {
                // The data survived on another module; the requester
                // re-issues against the evacuated home.
                Ok(self.fam_round_trip_clean(
                    n,
                    t,
                    new_fam * PAGE_BYTES + fam_byte % PAGE_BYTES,
                    kind,
                ))
            }
            None => {
                // Destroyed data (or a mapping recovery never knew
                // about): fast-fail with one NACK and poison the
                // access instead of panicking.
                let back = self.unreachable_nack(n, t, module);
                self.degradation.poisoned_accesses += 1;
                if self.config.halt_on_data_loss {
                    return Err(SimError::DataLoss { node: n, fam_page });
                }
                Ok(back)
            }
        }
    }

    /// The broker-led recovery protocol, run exactly once per run, on
    /// the simulated clock of the access that escalated:
    ///
    /// 1. Quarantine the blast zone in the broker's [`FamLayout`] and
    ///    evacuate still-reachable pages (link-severed modules keep a
    ///    management path; dead nodes and failed media lose their
    ///    data), charging the copy at [`EVACUATION_BYTES_PER_CYCLE`].
    /// 2. Broadcast a translation shootdown to every surviving node:
    ///    stale TLB entries (E-FAM), STU and FAM-PTW cache entries, and
    ///    in-DRAM translation-cache entries naming quarantined pages
    ///    are invalidated, with per-entry latency accounting.
    /// 3. Rebuild node-table pages that lived on the failed hardware
    ///    (the broker authored every entry, so tables are always
    ///    rebuildable).
    ///
    /// [`FamLayout`]: fam_broker::FamLayout
    fn recover_from_persistent(&mut self, n: usize, t: Cycle) -> Result<Cycle, SimError> {
        self.persistent_handled = true;
        let started = t;
        self.degradation.recovery_started_cycle = t.0;
        let fault = self
            .injector
            .persistent_active()
            .expect("recovery runs only on an active persistent fault");
        let (evac, relocations) = self
            .broker
            .quarantine_and_evacuate(self.pending_quarantine, fault.evacuable())
            .map_err(|source| SimError::FamExhausted { node: n, source })?;

        // Evacuation rides the management path at a fixed bandwidth;
        // the protocol is stop-the-world on the simulated clock (every
        // node waits for the broker's all-clear).
        let evacuation_cycles = evac.bytes_copied.div_ceil(EVACUATION_BYTES_PER_CYCLE);
        let mut t = t + Duration(evacuation_cycles);

        for r in &relocations {
            self.moved.entry(r.old_fam_page).or_insert(r.new_fam_page);
            if r.new_fam_page.is_none() {
                self.lost.insert((r.node, r.npa_page), r.old_fam_page);
            }
        }
        let shootdown_start = t;
        t += self.shootdown_all_nodes(&relocations);
        self.tracer
            .span(Stage::Fault, Track::Fabric(n as u16), started, t);

        let d = &mut self.degradation;
        d.pages_quarantined = evac.capacity_pages_lost;
        d.pages_evacuated = evac.pages_evacuated;
        d.pages_lost = evac.pages_lost;
        d.table_pages_rebuilt += evac.table_pages_rebuilt;
        d.evacuation_cycles = evacuation_cycles;
        d.shootdown_cycles = (t - shootdown_start).0;
        d.capacity_pages_remaining = self.broker.layout().usable_pages() - evac.capacity_pages_lost;
        d.recovery_cycles = (t - started).0;
        Ok(t)
    }

    /// The broadcast translation shootdown: every surviving node drops
    /// cached translations that name a quarantined FAM page. Returns
    /// the simulated cost (one management round trip per node plus one
    /// cycle per invalidated entry, serialized on the broker's
    /// management port).
    fn shootdown_all_nodes(&mut self, relocations: &[PageRelocation]) -> Duration {
        let _prof = profile::span(PhaseId::Shootdown);
        let mut invalidations = 0u64;
        let mut cost = Duration(0);
        for m in 0..self.nodes.len() {
            let node_id = self.nodes[m].id;
            let mut node_invalidations = 0u64;
            match self.config.scheme {
                Scheme::EFam => {
                    // E-FAM PTEs embed FAM keys, so stale entries sit in
                    // the per-core TLBs; interior table pages the broker
                    // re-homed are repointed eagerly (the lazy walk-time
                    // heal covers leaf PTEs).
                    let quarantine = self.pending_quarantine;
                    for core in &mut self.nodes[m].cores {
                        node_invalidations += core.tlb.invalidate_stale(|pte| {
                            pte.target_page >= FAM_KEY_PAGE
                                && quarantine.contains(pte.target_page - FAM_KEY_PAGE)
                        }) as u64;
                        core.ptw.flush();
                    }
                    for r in relocations {
                        if r.node != node_id {
                            continue;
                        }
                        if let Some(new_fam) = r.new_fam_page {
                            if self.nodes[m].page_table.relocate_table_page(
                                (FAM_KEY_PAGE + r.old_fam_page) * PAGE_BYTES,
                                (FAM_KEY_PAGE + new_fam) * PAGE_BYTES,
                            ) {
                                self.degradation.table_pages_rebuilt += 1;
                            }
                        }
                    }
                }
                Scheme::IFam => {
                    // Coupled STU entries are keyed by the owning node's
                    // NPA pages.
                    let keys = relocations
                        .iter()
                        .filter(|r| r.node == node_id)
                        .map(|r| r.npa_page);
                    node_invalidations += self.stus[m].shootdown(keys);
                }
                Scheme::DeactW | Scheme::DeactN => {
                    // ACM-organized STU entries are keyed by FAM page
                    // (any node's STU may cache any page), and the
                    // in-DRAM translation cache by this node's NPAs.
                    let keys = relocations.iter().map(|r| r.old_fam_page);
                    node_invalidations += self.stus[m].shootdown(keys);
                    let tr = self.nodes[m]
                        .translator
                        .as_mut()
                        .expect("DeACT nodes have a translator");
                    for r in relocations {
                        if r.node == node_id && tr.handle_stale_nack(r.npa_page) {
                            node_invalidations += 1;
                        }
                    }
                }
            }
            invalidations += node_invalidations;
            cost = cost + self.router + self.router + Duration(node_invalidations);
        }
        self.degradation.shootdown_invalidations = invalidations;
        cost
    }

    /// Encodes the request as its wire packet into the per-`System`
    /// scratch buffer and applies the injector's chosen corruption to
    /// it — no allocation per injected frame.
    fn fill_corrupted_frame(&mut self, n: usize, fam_byte: u64, kind: MemOpKind) {
        // The tag is never read: the CRC check rejects the frame.
        let packet = Packet {
            kind: match kind {
                MemOpKind::Read => PacketKind::Read,
                MemOpKind::Write => PacketKind::Write,
            },
            source: self.nodes[n].id,
            addr: fam_byte,
            verified: true,
            tag: 0,
        };
        packet.encode_into(&mut self.frame_scratch);
        let (pos, mask) = self.injector.corruption_site(self.frame_scratch.len());
        self.frame_scratch[pos] ^= mask;
    }

    /// The fault-free round trip: fabric there, device service,
    /// fabric back.
    fn fam_round_trip_clean(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Cycle {
        let module = self.module_of(fam_byte);
        let arrival = self.fabric.node_to_fam(t, n, module);
        let done = self.nvm[module].access(arrival, fam_byte, kind);
        let ret = self.fabric.fam_to_node(done, n, module, 64);
        self.tracer
            .span(Stage::FabricSend, Track::Fabric(n as u16), t, arrival);
        self.tracer
            .span(Stage::NvmAccess, Track::Nvm(module as u16), arrival, done);
        self.tracer
            .span(Stage::FabricRecv, Track::Fabric(n as u16), done, ret);
        ret
    }

    /// Walks the system page table at the STU, serialized on the
    /// node's single FAM-PTW unit; every entry read is a FAM round
    /// trip counted as AT traffic.
    fn stu_walk(&mut self, n: usize, t: Cycle, npa_page: u64) -> Result<(u64, Cycle), SimError> {
        let node_id = self.nodes[n].id;
        let mut t = t;
        // Injected STU stall: the unit is briefly unresponsive (queue
        // backpressure, firmware hiccup) before the walk begins.
        if self.injector.is_enabled() {
            if let Some(stall) = self.injector.stu_stall() {
                self.recovery.stu_stall_cycles += stall.0;
                self.tracer
                    .span(Stage::Fault, Track::Stu(n as u16), t, t + stall);
                t += stall;
            }
        }
        loop {
            match self.stus[n].walk_system_table(&self.broker, node_id, npa_page) {
                Ok((fam_page, plan)) => {
                    let start = t.max(self.walker_free[n]);
                    let mut tw = start;
                    for acc in &plan.accesses {
                        self.traffic.at_walk_reads += 1;
                        tw = self.fam_round_trip(n, tw, acc.entry_addr, MemOpKind::Read)?;
                    }
                    if tw > start {
                        self.tracer
                            .span(Stage::StuWalk, Track::Stu(n as u16), start, tw);
                    }
                    // A walk whose entry reads escalated into recovery
                    // planned against the pre-recovery table; its
                    // mapping may name a page that no longer exists.
                    // The walker re-walks the (now rewritten) table —
                    // the raced shootdown's retry.
                    if self.persistent_handled && self.persistent_strikes(fam_page * PAGE_BYTES) {
                        t = tw;
                        continue;
                    }
                    self.walker_free[n] = tw;
                    return Ok((fam_page, tw));
                }
                Err(_) => {
                    // A mapping the recovery protocol removed because
                    // its data died with the hardware: the re-walk is a
                    // poisoned access (the refault below hands back a
                    // fresh page, not the lost bytes).
                    if self.persistent_handled {
                        if let Some(old_fam) = self.lost.remove(&(node_id, npa_page)) {
                            self.degradation.poisoned_accesses += 1;
                            if self.config.halt_on_data_loss {
                                return Err(SimError::DataLoss {
                                    node: n,
                                    fam_page: old_fam,
                                });
                            }
                        }
                    }
                    // System-level fault: the STU asks the broker for
                    // a page (§II-C) and retries.
                    self.tracer.span(
                        Stage::Fault,
                        Track::Stu(n as u16),
                        t,
                        t + self.fault_latency,
                    );
                    t += self.fault_latency;
                    self.nodes[n]
                        .system_fault(npa_page, &mut self.broker)
                        .map_err(|source| SimError::FamExhausted { node: n, source })?;
                }
            }
        }
    }

    /// The I-FAM data path (Fig. 2b): every FAM access is translated
    /// *and* verified at the STU.
    fn ifam_fam_access(
        &mut self,
        n: usize,
        t: Cycle,
        npa_page: u64,
        offset: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        let node_id = self.nodes[n].id;
        let acc_kind = access_kind(kind);
        let lookup_done = t + self.router + STU_LOOKUP; // node → STU lookup
        self.tracer
            .span(Stage::StuLookup, Track::Stu(n as u16), t, lookup_done);
        let mut t = lookup_done;
        let fam_page = match self.stus[n].ifam_lookup(npa_page) {
            Some(fam_page) => fam_page,
            None => {
                // Coupled-entry miss: walk serialized at the FAM-PTW
                // (`stu_walk` handles system faults internally), then
                // fill the coupled entry.
                let (fam_page, tw) = self.stu_walk(n, t, npa_page)?;
                t = tw;
                self.stus[n].ifam_fill(npa_page, fam_page);
                fam_page
            }
        };
        assert!(
            self.broker.check_access(node_id, fam_page, acc_kind),
            "benign workloads never trip access control"
        );
        match kind {
            MemOpKind::Read => self.traffic.data_reads += 1,
            MemOpKind::Write => self.traffic.data_writes += 1,
        }
        let done = self.fam_round_trip(n, t, fam_page * PAGE_BYTES + offset, kind)?;
        Ok(done + self.router) // response back through the router
    }

    /// The DeACT data path (Fig. 6): unverified node-side translation
    /// from the in-DRAM cache, then decoupled verification at the STU.
    fn deact_fam_access(
        &mut self,
        n: usize,
        t: Cycle,
        npa_page: u64,
        offset: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        let node_id = self.nodes[n].id;
        let acc_kind = access_kind(kind);

        // ① FAM translator: one DRAM set read + parallel tag match.
        let t_in = t;
        let set_addr = self.nodes[n]
            .translator
            .as_ref()
            .expect("DeACT nodes have a translator")
            .dram_addr_of(npa_page);
        let mut t = self.nodes[n].dram.access(t, set_addr) + Duration(1);
        self.tracer
            .span(Stage::TranslationCache, Track::Node(n as u16), t_in, t);

        let mut cached = self.nodes[n]
            .translator
            .as_mut()
            .expect("checked above")
            .lookup(npa_page);
        if self.config.translation_cache_lru {
            // §III-C: LRU means writing back updated recency bits on
            // every access — an extra DRAM write off the critical path.
            self.nodes[n].dram.write(t, set_addr);
        }

        // Injected staleness: the broker remapped this page behind the
        // node's back, so the STU rejects the `V = 1` request with a
        // stale-NACK (the DeACT verification story — unverified cached
        // translations are *allowed* to be wrong, and this is the
        // hardware path that makes that safe). The node invalidates the
        // cached entry and falls back to the full STU walk below.
        let mut stale_nacked = false;
        if cached.is_some() && self.injector.is_enabled() && self.injector.stale_translation() {
            // The doomed pre-translated request travels node → STU and
            // the NACK travels back before the node can react.
            self.tracer.span(
                Stage::Fault,
                Track::Stu(n as u16),
                t,
                t + self.router + STU_LOOKUP + self.router,
            );
            t += self.router + STU_LOOKUP + self.router;
            self.recovery.nacks_stale += 1;
            self.nodes[n]
                .translator
                .as_mut()
                .expect("checked above")
                .handle_stale_nack(npa_page);
            // Invalidation is a read-modify-write of the set's tags.
            self.nodes[n].dram.write(t, set_addr);
            cached = None;
            stale_nacked = true;
        }
        let fam_page = match cached {
            Some(fam_page) => {
                // ③ forward pre-translated with V = 1.
                t += self.router;
                fam_page
            }
            None => {
                // ④ V = 0: the STU walks on our behalf...
                t += self.router;
                let (fam_page, tw) = self.stu_walk(n, t, npa_page)?;
                t = tw;
                if stale_nacked {
                    // The reissue-as-unverified walk *is* the retry, and
                    // completing it is the recovery.
                    self.recovery.retries += 1;
                    self.recovery.recovered += 1;
                }
                // ⑤ ...and returns the mapping; the translator updates
                // the in-DRAM cache with a read-modify-write that only
                // occupies the channel (off the critical path).
                let tr = self.nodes[n].translator.as_mut().expect("checked above");
                tr.install(npa_page, fam_page);
                self.nodes[n].dram.access(t, set_addr);
                self.nodes[n].dram.write(t, set_addr);
                fam_page
            }
        };

        // Outstanding-mapping-list bookkeeping (reads expect data
        // responses tagged with FAM addresses).
        if kind == MemOpKind::Read {
            let tr = self.nodes[n].translator.as_mut().expect("checked above");
            tr.oml_mut().register(fam_page, npa_page);
        }

        // Decoupled verification at the STU. Under the §III-A
        // encrypted-memory extension, reads skip verification entirely
        // (a foreign node's ciphertext is useless without its key).
        if !(self.config.skip_read_checks && kind == MemOpKind::Read) {
            let v = self.stus[n].verify(&self.broker, node_id, fam_page, acc_kind);
            self.tracer
                .span(Stage::StuLookup, Track::Stu(n as u16), t, t + STU_LOOKUP);
            t += STU_LOOKUP;
            if let Some(acm_addr) = v.acm_fetch_addr {
                let fetch_start = t;
                self.traffic.at_acm_reads += 1;
                t = self.fam_round_trip(n, t, acm_addr, MemOpKind::Read)?;
                if let Some(bitmap_addr) = v.bitmap_fetch_addr {
                    self.traffic.at_bitmap_reads += 1;
                    t = self.fam_round_trip(n, t, bitmap_addr, MemOpKind::Read)?;
                }
                self.tracer
                    .span(Stage::AcmFetch, Track::Stu(n as u16), fetch_start, t);
            }
            assert!(v.allowed, "benign workloads never trip access control");
        }

        match kind {
            MemOpKind::Read => self.traffic.data_reads += 1,
            MemOpKind::Write => self.traffic.data_writes += 1,
        }
        let done = self.fam_round_trip(n, t, fam_page * PAGE_BYTES + offset, kind)?;

        if kind == MemOpKind::Read {
            let tr = self.nodes[n].translator.as_mut().expect("checked above");
            tr.oml_mut().complete(fam_page);
        }
        Ok(done + self.router)
    }

    /// A dirty-line writeback, off the critical path: it occupies the
    /// memory resources at `at` but delays nobody directly.
    fn writeback(&mut self, n: usize, wb_line: u64, at: Cycle) {
        let byte = wb_line * 64;
        let page = byte / PAGE_BYTES;
        if self.nodes[n].is_fam_page(page) {
            let fam_byte = match self.config.scheme {
                Scheme::EFam => byte - FAM_KEY_PAGE * PAGE_BYTES,
                _ => {
                    // The LLC holds node addresses; eviction reuses the
                    // system translation (hardware tags the line), so no
                    // timing charge and no AT traffic. A mapping the
                    // recovery protocol removed has nowhere to land —
                    // the dirty line dies with the hardware it named.
                    let Some(pte) = self.broker.translate(self.nodes[n].id, page) else {
                        if self.persistent_handled {
                            self.degradation.writebacks_dropped += 1;
                        }
                        return;
                    };
                    pte.target_page * PAGE_BYTES + byte % PAGE_BYTES
                }
            };
            // A dirty line still tagged with a quarantined FAM address
            // (E-FAM keys embed the page): the write follows evacuated
            // data to its new home; with the data destroyed it is
            // dropped — the target no longer exists.
            let mut fam_byte = fam_byte;
            if self.injector.is_enabled()
                && self.injector.persistent_active().is_some()
                && self.persistent_strikes(fam_byte)
            {
                match self.moved.get(&(fam_byte / PAGE_BYTES)).copied().flatten() {
                    Some(new_fam) => fam_byte = new_fam * PAGE_BYTES + fam_byte % PAGE_BYTES,
                    None => {
                        self.degradation.writebacks_dropped += 1;
                        return;
                    }
                }
            }
            self.traffic.writebacks += 1;
            let module = self.module_of(fam_byte);
            let arrival = self.fabric.node_to_fam(at, n, module);
            self.nvm[module].access(arrival, fam_byte, MemOpKind::Write);
        } else {
            self.nodes[n].dram.write(at, byte);
        }
    }

    /// Assembles the run report.
    ///
    /// In debug builds every successful run also passes the
    /// end-of-run conservation audit, so the whole test suite doubles
    /// as an invariant checker.
    fn report(&self) -> RunReport {
        #[cfg(debug_assertions)]
        {
            let audit = self.audit();
            debug_assert!(audit.passed(), "conservation audit failed:\n{audit}");
        }
        let instructions: u64 = self.nodes.iter().map(Node::instructions).sum();
        let cycles = self
            .nodes
            .iter()
            .map(Node::finish)
            .max()
            .unwrap_or(Cycle::ZERO)
            .0
            .max(1);
        let mut tlb = fam_sim::stats::Ratio::new();
        for node in &self.nodes {
            for core in &node.cores {
                tlb.merge(core.tlb.stats());
            }
        }
        let mut llc = fam_sim::stats::Ratio::new();
        for node in &self.nodes {
            llc.merge(node.hierarchy.llc_stats());
        }
        let (translation_hit_rate, acm_hit_rate) = match self.config.scheme {
            Scheme::EFam => (None, None),
            Scheme::IFam => {
                let mut acm = fam_sim::stats::Ratio::new();
                for stu in &self.stus {
                    acm.merge(stu.acm_stats());
                }
                (Some(acm.rate()), Some(acm.rate()))
            }
            Scheme::DeactW | Scheme::DeactN => {
                let mut tr = fam_sim::stats::Ratio::new();
                for node in &self.nodes {
                    if let Some(t) = &node.translator {
                        tr.merge(t.hit_ratio());
                    }
                }
                let mut acm = fam_sim::stats::Ratio::new();
                for stu in &self.stus {
                    acm.merge(stu.acm_stats());
                }
                (Some(tr.rate()), Some(acm.rate()))
            }
        };
        RunReport {
            scheme: self.config.scheme,
            workload: self.workload_name.clone(),
            nodes: self.config.nodes,
            cores_per_node: self.config.cores_per_node,
            instructions,
            cycles,
            ipc: instructions as f64 / cycles as f64,
            fam: self.traffic,
            translation_hit_rate,
            acm_hit_rate,
            tlb_hit_rate: tlb.rate(),
            mpki: llc.misses() as f64 / (instructions as f64 / 1000.0),
            dram_reads: self.nodes.iter().map(|n| n.dram.reads()).sum(),
            dram_writes: self.nodes.iter().map(|n| n.dram.writes()).sum(),
            faults: self.nodes.iter().map(|n| n.faults).sum(),
            recovery: self.recovery_report(),
            degradation: self.degradation,
            refs_per_core: self.config.refs_per_core,
            latency: self.tracer.breakdown().clone(),
            fast_path_coverage: 0.0,
            parallel_phase_coverage: 0.0,
            profile: if profile::is_enabled() {
                profile::take_report()
            } else {
                fam_sim::ProfileReport::default()
            },
        }
    }

    /// Combines the injector's view (what was thrown) with the
    /// system's view (what was done about it).
    fn recovery_report(&self) -> FaultRecovery {
        let mut r = self.recovery;
        let injected = self.injector.stats();
        r.injected_drops = injected.drops.value();
        r.injected_corruptions = injected.corruptions.value();
        r.injected_stale = injected.stale_marks.value();
        r.injected_stu_stalls = injected.stu_stalls.value();
        r
    }

    /// Collects every component's raw counters into one named
    /// [`fam_sim::Registry`] snapshot.
    ///
    /// Names are hierarchical and stable: `node{n}/…` for per-node
    /// state, `nvm{m}/…` per FAM module, `traffic/…` for the
    /// cross-fabric request mix, and `recovery/…` for the fault
    /// ledger. [`System::audit`] consumes this snapshot, and the
    /// `deact-sim audit` subcommand prints it.
    pub fn metrics(&self) -> fam_sim::Registry {
        let mut reg = fam_sim::Registry::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let mut tlb = fam_sim::stats::Ratio::new();
            let mut staged = 0u64;
            let mut refs_done = 0u64;
            let mut replay_wraps = 0u64;
            for core in &node.cores {
                tlb.merge(core.tlb.stats());
                staged = staged.saturating_add(core.staged);
                refs_done = refs_done.saturating_add(core.refs_done);
                replay_wraps = replay_wraps.saturating_add(core.gen.wraps());
            }
            *reg.ratio(&format!("node{n}/tlb")) = tlb;
            reg.counter(&format!("node{n}/staged")).add(staged);
            reg.counter(&format!("node{n}/refs_done")).add(refs_done);
            reg.counter(&format!("node{n}/replay_wraps"))
                .add(replay_wraps);
            reg.counter(&format!("node{n}/faults")).add(node.faults);
            reg.counter(&format!("node{n}/dram_reads"))
                .add(node.dram.reads());
            reg.counter(&format!("node{n}/dram_writes"))
                .add(node.dram.writes());
            *reg.ratio(&format!("node{n}/llc")) = node.hierarchy.llc_stats();
        }
        for (m, nvm) in self.nvm.iter().enumerate() {
            reg.counter(&format!("nvm{m}/reads")).add(nvm.reads());
            reg.counter(&format!("nvm{m}/writes")).add(nvm.writes());
            reg.counter(&format!("nvm{m}/admission_stalls"))
                .add(nvm.admission_stalls());
        }
        for (s, stu) in self.stus.iter().enumerate() {
            *reg.ratio(&format!("stu{s}/acm")) = stu.acm_stats();
        }
        reg.counter("fabric/traversals")
            .add(self.fabric.traversals());
        let t = &self.traffic;
        reg.counter("traffic/data_reads").add(t.data_reads);
        reg.counter("traffic/data_writes").add(t.data_writes);
        reg.counter("traffic/writebacks").add(t.writebacks);
        reg.counter("traffic/at_pte_reads").add(t.at_pte_reads);
        reg.counter("traffic/at_walk_reads").add(t.at_walk_reads);
        reg.counter("traffic/at_acm_reads").add(t.at_acm_reads);
        reg.counter("traffic/at_bitmap_reads")
            .add(t.at_bitmap_reads);
        let r = self.recovery_report();
        reg.counter("recovery/timeouts").add(r.timeouts);
        reg.counter("recovery/retries").add(r.retries);
        reg.counter("recovery/nacks_corrupt").add(r.nacks_corrupt);
        reg.counter("recovery/nacks_stale").add(r.nacks_stale);
        reg.counter("recovery/nacks_unreachable")
            .add(r.nacks_unreachable);
        reg.counter("recovery/recovered").add(r.recovered);
        reg.counter("recovery/fatal").add(r.fatal);
        reg.counter("recovery/injected_drops").add(r.injected_drops);
        reg.counter("recovery/injected_corruptions")
            .add(r.injected_corruptions);
        reg
    }

    /// End-of-run conservation audit: cross-checks independently
    /// maintained counters against each other through the
    /// [`System::metrics`] registry.
    ///
    /// Invariants checked (each sums over the registry snapshot):
    ///
    /// 1. `refs-conservation` — every staged reference retired
    ///    (poisoned accesses retire through the degraded path, so
    ///    they are *included* in `refs_done`).
    /// 2. `tlb-conservation` — exactly one TLB hierarchy lookup per
    ///    retired reference.
    /// 3. `nvm-traffic-balance` — every FAM traffic increment lands
    ///    exactly one NVM access; skipped when a permanent failure is
    ///    scheduled (evacuation copies bypass the traffic ledger).
    /// 4. `fabric-parity` — reads cross the fabric twice and posted
    ///    writebacks once, so `traversals == 2*total - writebacks`;
    ///    skipped when fault injection is enabled (retries and NACKs
    ///    add traversals).
    /// 5. `drop-accounting` — every injected drop was seen as exactly
    ///    one timeout; skipped under permanent failures (a dead
    ///    module times out without injector bookkeeping).
    /// 6. `crc-detection` — CRC-16 catches every injected corruption
    ///    as a corrupt NACK; skipped under permanent failures.
    pub fn audit(&self) -> AuditReport {
        let reg = self.metrics();
        let sum = |suffix: &str| -> u64 {
            (0..self.nodes.len())
                .filter_map(|n| reg.counter_value(&format!("node{n}/{suffix}")))
                .sum()
        };
        let mut checks = Vec::new();
        fn check(
            checks: &mut Vec<AuditCheck>,
            name: &'static str,
            lhs: (&str, u64),
            rhs: (&str, u64),
        ) {
            checks.push(AuditCheck {
                name,
                passed: lhs.1 == rhs.1,
                detail: format!("{} = {} vs {} = {}", lhs.0, lhs.1, rhs.0, rhs.1),
            });
        }
        fn skip(checks: &mut Vec<AuditCheck>, name: &'static str, why: &str) {
            checks.push(AuditCheck {
                name,
                passed: true,
                detail: format!("skipped: {why}"),
            });
        }

        let refs_done = sum("refs_done");
        check(
            &mut checks,
            "refs-conservation",
            ("staged", sum("staged")),
            ("refs_done", refs_done),
        );
        let tlb_lookups: u64 = (0..self.nodes.len())
            .filter_map(|n| reg.ratio_value(&format!("node{n}/tlb")))
            .map(|r| r.total())
            .sum();
        check(
            &mut checks,
            "tlb-conservation",
            ("tlb lookups", tlb_lookups),
            ("refs_done", refs_done),
        );

        let traffic_total = self.traffic.total();
        let persistent = self.injector.persistent_schedule().is_some();
        if persistent {
            skip(
                &mut checks,
                "nvm-traffic-balance",
                "permanent failure scheduled",
            );
        } else {
            let nvm_accesses: u64 = (0..self.nvm.len())
                .map(|m| {
                    reg.counter_value(&format!("nvm{m}/reads")).unwrap_or(0)
                        + reg.counter_value(&format!("nvm{m}/writes")).unwrap_or(0)
                })
                .sum();
            check(
                &mut checks,
                "nvm-traffic-balance",
                ("nvm accesses", nvm_accesses),
                ("traffic total", traffic_total),
            );
        }

        if self.injector.is_enabled() {
            skip(&mut checks, "fabric-parity", "fault injection enabled");
        } else {
            check(
                &mut checks,
                "fabric-parity",
                (
                    "fabric traversals",
                    reg.counter_value("fabric/traversals").unwrap_or(0),
                ),
                (
                    "2*traffic - writebacks",
                    2 * traffic_total - self.traffic.writebacks,
                ),
            );
        }

        if persistent {
            skip(
                &mut checks,
                "drop-accounting",
                "permanent failure scheduled",
            );
            skip(&mut checks, "crc-detection", "permanent failure scheduled");
        } else {
            check(
                &mut checks,
                "drop-accounting",
                (
                    "timeouts",
                    reg.counter_value("recovery/timeouts").unwrap_or(0),
                ),
                (
                    "injected drops",
                    reg.counter_value("recovery/injected_drops").unwrap_or(0),
                ),
            );
            check(
                &mut checks,
                "crc-detection",
                (
                    "corrupt NACKs",
                    reg.counter_value("recovery/nacks_corrupt").unwrap_or(0),
                ),
                (
                    "injected corruptions",
                    reg.counter_value("recovery/injected_corruptions")
                        .unwrap_or(0),
                ),
            );
        }
        AuditReport { checks }
    }
}

fn access_kind(kind: MemOpKind) -> AccessKind {
    match kind {
        MemOpKind::Read => AccessKind::Read,
        MemOpKind::Write => AccessKind::Write,
    }
}

/// Runs one benchmark under one configuration and returns the report —
/// the workhorse of the experiment harness.
///
/// # Panics
///
/// Panics if `name` is not a Table III benchmark.
///
/// # Examples
///
/// ```
/// use deact::{run_benchmark, Scheme, SystemConfig};
///
/// let cfg = SystemConfig::paper_default().with_refs_per_core(100);
/// let r = run_benchmark("pf", cfg.with_scheme(Scheme::EFam));
/// assert_eq!(r.workload, "pf");
/// ```
pub fn run_benchmark(name: &str, config: SystemConfig) -> RunReport {
    try_run_benchmark(name, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`run_benchmark`]: returns a typed [`SimError`]
/// instead of panicking, so binaries can exit with a readable message.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] for a name outside Table
/// III, or any error of [`System::try_run`].
///
/// # Examples
///
/// ```
/// use deact::{try_run_benchmark, SimError, SystemConfig};
///
/// let err = try_run_benchmark("doom", SystemConfig::paper_default()).unwrap_err();
/// assert!(matches!(err, SimError::UnknownBenchmark { .. }));
/// ```
pub fn try_run_benchmark(name: &str, config: SystemConfig) -> Result<RunReport, SimError> {
    let workload = Workload::by_name(name).ok_or_else(|| SimError::UnknownBenchmark {
        name: name.to_string(),
    })?;
    System::new(config, &workload).try_run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme) -> SystemConfig {
        SystemConfig::paper_default()
            .with_scheme(scheme)
            .with_refs_per_core(2_000)
            .with_seed(7)
    }

    #[test]
    fn all_schemes_complete_and_report() {
        for scheme in Scheme::ALL {
            let r = run_benchmark("astar", quick(scheme));
            assert_eq!(r.scheme, scheme);
            assert!(r.ipc > 0.0, "{scheme}: ipc {}", r.ipc);
            assert_eq!(r.refs_per_core, 2_000);
            assert!(r.instructions > 8_000, "{scheme}");
            assert!(r.cycles > 0, "{scheme}");
        }
    }

    #[test]
    fn efam_has_no_system_translation_stats() {
        let r = run_benchmark("pf", quick(Scheme::EFam));
        assert_eq!(r.translation_hit_rate, None);
        assert_eq!(r.acm_hit_rate, None);
        assert_eq!(r.fam.at_walk_reads, 0);
        assert_eq!(r.fam.at_acm_reads, 0);
    }

    #[test]
    fn efam_at_traffic_is_pte_reads() {
        let r = run_benchmark("sssp", quick(Scheme::EFam));
        assert!(r.fam.at_pte_reads > 0, "E-FAM PTE pages live in FAM");
    }

    #[test]
    fn ifam_translates_at_stu() {
        let r = run_benchmark("sssp", quick(Scheme::IFam));
        assert!(r.fam.at_walk_reads > 0);
        assert_eq!(r.fam.at_pte_reads, 0, "node PT pages stay in DRAM");
        assert_eq!(r.fam.at_acm_reads, 0, "ACM rides in the coupled entry");
        assert!(r.translation_hit_rate.is_some());
    }

    /// A reuse-heavy workload sized between the STU's 4 MB reach and
    /// the translation cache's 256 MB reach, so short test runs warm
    /// up: the regime where DeACT's advantage lives.
    /// Tiers sized so reuse is high but the cold tail pressures the
    /// 1024-entry STU far more than DeACT-N's 2048 ACM slots or the
    /// 65536-entry translation cache.
    fn reuse_workload() -> Workload {
        Workload {
            footprint_pages: 4096,
            hot_fraction: 0.30,
            hot_pages: 64,
            warm_fraction: 0.45,
            warm_pages: 800,
            seq_run: 1,
            dep_fraction: 0.5,
            ..Workload::by_name("canl").unwrap()
        }
    }

    #[test]
    fn deact_fetches_acm_and_uses_dram_cache() {
        let mut sys = System::new(
            quick(Scheme::DeactN).with_refs_per_core(20_000),
            &reuse_workload(),
        );
        let r = sys.run();
        assert!(r.fam.at_acm_reads > 0);
        assert!(
            r.translation_hit_rate.unwrap() > 0.5,
            "got {}",
            r.translation_hit_rate.unwrap()
        );
        assert!(r.dram_reads > 0, "translation-cache reads hit DRAM");
    }

    #[test]
    fn ifam_is_slower_than_efam_on_translation_hostile_workloads() {
        let efam = run_benchmark("sssp", quick(Scheme::EFam));
        let ifam = run_benchmark("sssp", quick(Scheme::IFam));
        assert!(
            ifam.ipc < efam.ipc,
            "I-FAM {} !< E-FAM {}",
            ifam.ipc,
            efam.ipc
        );
    }

    #[test]
    fn deact_n_recovers_performance_over_ifam() {
        let cfg = quick(Scheme::IFam).with_refs_per_core(20_000);
        let ifam = System::new(cfg, &reuse_workload()).run();
        let deact = System::new(cfg.with_scheme(Scheme::DeactN), &reuse_workload()).run();
        assert!(
            deact.ipc > ifam.ipc,
            "DeACT-N {} !> I-FAM {}",
            deact.ipc,
            ifam.ipc
        );
    }

    #[test]
    fn deact_n_acm_hits_beat_deact_w_on_random_workloads() {
        let w = run_benchmark("canl", quick(Scheme::DeactW));
        let n = run_benchmark("canl", quick(Scheme::DeactN));
        assert!(
            n.acm_hit_rate.unwrap() >= w.acm_hit_rate.unwrap(),
            "N {} !>= W {}",
            n.acm_hit_rate.unwrap(),
            w.acm_hit_rate.unwrap()
        );
    }

    /// FNV-1a digest of a report's `Debug` text, leaving out the
    /// coverage diagnostics and the host-time `profile` (the rule of the
    /// golden-report integration test).
    fn digest(report: &RunReport) -> u64 {
        let mut r = report.clone();
        r.fast_path_coverage = 0.0;
        r.parallel_phase_coverage = 0.0;
        let text = format!("{r:?}");
        let end = text
            .rfind(", profile: ")
            .expect("profile is the last field");
        text[..end].bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    // The three `parallel_*` cases once compared the sharded parallel
    // engine with the sequential one. That engine is gone; each keeps
    // its configuration and pins the digest of the report both engines
    // produced, bit for bit, when it was removed.

    #[test]
    fn parallel_engine_matches_sequential_reports() {
        let got: Vec<u64> = Scheme::ALL
            .into_iter()
            .map(|scheme| {
                let cfg = quick(scheme)
                    .with_nodes(4)
                    .with_fam_modules(4)
                    .with_refs_per_core(800);
                digest(&run_benchmark("astar", cfg))
            })
            .collect();
        assert_eq!(
            got,
            [
                0x3e6a2d234de5bda9,
                0x200c5f81444c8db2,
                0x86df6af4cac51561,
                0xb21ee2466ce1c5bf,
            ]
        );
    }

    #[test]
    fn parallel_engine_is_thread_count_invariant() {
        let cfg = quick(Scheme::DeactN)
            .with_nodes(4)
            .with_fam_modules(4)
            .with_refs_per_core(600);
        let a = run_benchmark("pf", cfg);
        let b = run_benchmark("pf", cfg);
        assert_eq!(a, b);
        assert_eq!(digest(&a), 0x18bb3d337985cf09);
    }

    #[test]
    fn parallel_with_one_thread_is_the_sequential_engine() {
        let cfg = quick(Scheme::EFam).with_nodes(2).with_refs_per_core(500);
        let w = Workload::by_name("sssp").unwrap();
        let run = System::new(cfg, &w).run();
        let try_run = System::new(cfg, &w).try_run().expect("run completes");
        assert_eq!(run, try_run);
        assert_eq!(digest(&run), 0x5e0ba2af773aa7dd);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_benchmark("pf", quick(Scheme::DeactN));
        let b = run_benchmark("pf", quick(Scheme::DeactN));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.fam, b.fam);
    }

    #[test]
    fn multi_node_runs_share_the_fam() {
        let cfg = quick(Scheme::DeactN).with_nodes(2).with_refs_per_core(500);
        let r = run_benchmark("pf", cfg);
        assert_eq!(r.nodes, 2);
        assert!(r.instructions > 4_000, "both nodes executed");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        run_benchmark("doom", quick(Scheme::EFam));
    }

    #[test]
    fn multi_module_fam_distributes_traffic() {
        // Single core: the reference stream's execution order is then
        // timing-independent, so module count (which only changes
        // contention) must leave functional traffic bit-identical.
        let cfg = quick(Scheme::EFam)
            .with_cores_per_node(1)
            .with_fam_modules(4)
            .with_refs_per_core(1_000);
        let r = run_benchmark("pf", cfg);
        assert!(r.fam.data_reads > 0);
        // Same run, one module: identical functional traffic.
        let single = run_benchmark(
            "pf",
            quick(Scheme::EFam)
                .with_cores_per_node(1)
                .with_refs_per_core(1_000),
        );
        assert_eq!(r.fam.data_reads, single.fam.data_reads);
    }

    #[test]
    #[should_panic(expected = "one stream set per node")]
    fn misshaped_stream_matrix_rejected() {
        let cfg = quick(Scheme::EFam).with_nodes(2);
        let _ = System::with_streams(cfg, "bad", Vec::new());
    }

    #[test]
    #[should_panic(expected = "one reference stream per core")]
    fn misshaped_core_streams_rejected() {
        let cfg = quick(Scheme::EFam);
        let w = Workload::by_name("pf").unwrap();
        let streams = vec![vec![fam_workloads::RefStream::from(w.generator(0))]]; // 1 != 4
        let _ = System::with_streams(cfg, "bad", streams);
    }

    fn killed(scheme: Scheme, fault: PersistentFault) -> SystemConfig {
        quick(scheme)
            .with_nodes(2)
            .with_fam_modules(2)
            .with_refs_per_core(3_000)
            .with_fault_injection(fam_sim::FaultConfig::persistent_only(11, fault, 500))
    }

    #[test]
    fn node_death_survives_and_reports_degradation() {
        for scheme in Scheme::ALL {
            let r = run_benchmark(
                "astar",
                killed(scheme, PersistentFault::NodeDead { module: 1 }),
            );
            let d = r.degradation;
            assert!(!d.is_zero(), "{scheme}: a killed module must register");
            assert!(d.pages_quarantined > 0, "{scheme}");
            assert_eq!(d.pages_evacuated, 0, "{scheme}: a dead node's data is gone");
            assert!(d.pages_lost > 0, "{scheme}");
            assert!(d.recovery_cycles > 0, "{scheme}");
            assert!(
                d.capacity_pages_remaining > 0,
                "{scheme}: half the pool survives"
            );
            assert!(r.recovery.nacks_unreachable > 0, "{scheme}");
            assert!(r.ipc > 0.0, "{scheme}: the run completed degraded");
        }
    }

    #[test]
    fn severed_link_evacuates_instead_of_losing() {
        let r = run_benchmark(
            "astar",
            killed(Scheme::DeactN, PersistentFault::LinkSevered { module: 1 }),
        );
        let d = r.degradation;
        assert!(d.pages_evacuated > 0, "the management path survives");
        assert_eq!(d.pages_lost, 0, "a severed link loses no data");
        assert_eq!(d.poisoned_accesses, 0, "nothing to poison");
        assert!(d.evacuation_cycles > 0, "the copy is charged");
    }

    #[test]
    fn failed_media_range_quarantines_exactly() {
        let r = run_benchmark(
            "astar",
            killed(
                Scheme::IFam,
                PersistentFault::MediaFailed {
                    first_page: 0,
                    pages: 64,
                },
            ),
        );
        assert_eq!(r.degradation.pages_quarantined, 64);
    }

    #[test]
    fn efam_heals_evacuated_ptes_lazily() {
        let r = run_benchmark(
            "astar",
            killed(Scheme::EFam, PersistentFault::LinkSevered { module: 1 }),
        );
        assert!(
            r.degradation.pte_rewrites > 0,
            "walks repair FAM-key PTEs in place"
        );
        assert_eq!(r.degradation.pages_lost, 0);
    }

    #[test]
    fn shootdown_invalidates_survivor_translations() {
        let r = run_benchmark(
            "astar",
            killed(Scheme::DeactN, PersistentFault::NodeDead { module: 1 }),
        );
        assert!(
            r.degradation.shootdown_invalidations > 0,
            "warm STU/translator state covered the dead module"
        );
        assert!(r.degradation.shootdown_cycles > 0);
    }

    #[test]
    fn halt_on_data_loss_surfaces_typed_error() {
        let cfg = killed(Scheme::DeactN, PersistentFault::NodeDead { module: 1 })
            .with_halt_on_data_loss(true);
        let err = try_run_benchmark("astar", cfg).unwrap_err();
        assert!(matches!(err, SimError::DataLoss { .. }), "got {err}");
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let cfg = killed(Scheme::DeactN, PersistentFault::NodeDead { module: 0 });
        let w = Workload::by_name("astar").unwrap();
        let a = System::new(cfg, &w).try_run().expect("first run");
        let b = System::new(cfg, &w).try_run().expect("second run");
        assert_eq!(a, b, "recovery must not break determinism");
        assert!(!a.degradation.is_zero());
    }

    #[test]
    fn shared_segment_reserves_npa_window() {
        let mut w = Workload::by_name("pf").unwrap();
        w.shared_fraction = 0.3;
        w.shared_pages = 16;
        let cfg = quick(Scheme::DeactN)
            .with_refs_per_core(1_500)
            .with_shared_segment_pages(16);
        let mut sys = System::new(cfg, &w);
        let r = sys.run();
        assert!(r.ipc > 0.0);
        // Every node's shared VA window resolves to the same FAM pages.
        let shared_vpage = fam_workloads::SHARED_VA_BASE / PAGE_BYTES;
        let npa = sys.nodes[0]
            .page_table
            .translate(shared_vpage)
            .expect("shared page mapped")
            .target_page;
        assert_eq!(npa, crate::node::FAM_ZONE_PAGE, "reserved window base");
    }
}
