//! A 4-level x86-64-style radix page table.

use crate::addr::PAGE_BYTES;

/// Number of radix levels (PGD, PUD, PMD, PTE — §II-B).
pub const LEVELS: usize = 4;

/// Bits of index per level.
const INDEX_BITS: u32 = 9;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
/// Slots per table node (`2^INDEX_BITS`, exactly as in hardware).
const NODE_SLOTS: usize = 1 << INDEX_BITS;
/// Bytes per page-table entry.
const ENTRY_BYTES: u64 = 8;

/// Access-permission flags carried in a page-table entry.
///
/// # Examples
///
/// ```
/// use fam_vm::PtFlags;
///
/// let f = PtFlags::rw();
/// assert!(f.writable() && !f.executable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtFlags(u8);

impl PtFlags {
    const READ: u8 = 0b001;
    const WRITE: u8 = 0b010;
    const EXEC: u8 = 0b100;

    /// Read-only mapping.
    pub fn ro() -> PtFlags {
        PtFlags(Self::READ)
    }

    /// Read/write mapping.
    pub fn rw() -> PtFlags {
        PtFlags(Self::READ | Self::WRITE)
    }

    /// Read/write/execute mapping.
    pub fn rwx() -> PtFlags {
        PtFlags(Self::READ | Self::WRITE | Self::EXEC)
    }

    /// Read/execute mapping.
    pub fn rx() -> PtFlags {
        PtFlags(Self::READ | Self::EXEC)
    }

    /// Whether reads are permitted.
    pub fn readable(self) -> bool {
        self.0 & Self::READ != 0
    }

    /// Whether writes are permitted.
    pub fn writable(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    /// Whether instruction fetches are permitted.
    pub fn executable(self) -> bool {
        self.0 & Self::EXEC != 0
    }
}

/// A leaf page-table entry: the target physical page plus permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical page number (node-physical or FAM,
    /// depending on which table this is).
    pub target_page: u64,
    /// Access permissions.
    pub flags: PtFlags,
}

/// One step of a page-table walk: the memory read of a single entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Level walked, `0` = PGD … `3` = PTE.
    pub level: usize,
    /// Physical byte address of the entry that was read.
    pub entry_addr: u64,
}

/// The full result of walking one virtual page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Every entry read, in order. A complete walk has [`LEVELS`]
    /// steps; a walk that hits a non-present entry stops early.
    pub steps: Vec<WalkStep>,
    /// The final mapping, if the page is mapped.
    pub mapping: Option<Pte>,
}

#[derive(Debug, Clone)]
enum Slot {
    Table(usize),
    Leaf(Pte),
}

/// One table page. A page-table index is 9 bits, so instead of hashing
/// `u16` keys the node stores its 512 slots directly — a lookup is one
/// bounds-free array read, exactly the access a real table page does.
#[derive(Debug, Clone)]
struct Node {
    base_addr: u64,
    slots: Box<[Option<Slot>]>,
}

impl Node {
    fn new(base_addr: u64) -> Node {
        Node {
            base_addr,
            slots: vec![None; NODE_SLOTS].into_boxed_slice(),
        }
    }

    fn get(&self, idx: u16) -> Option<&Slot> {
        self.slots[idx as usize].as_ref()
    }

    fn get_mut(&mut self, idx: u16) -> Option<&mut Slot> {
        self.slots[idx as usize].as_mut()
    }

    fn set(&mut self, idx: u16, slot: Slot) -> Option<Slot> {
        self.slots[idx as usize].replace(slot)
    }

    fn take(&mut self, idx: u16) -> Option<Slot> {
        self.slots[idx as usize].take()
    }
}

/// A hierarchical 4-level page table whose interior nodes live at real
/// (simulated) physical addresses.
///
/// The point of modelling node placement is that a walk returns the
/// *physical addresses* of the entries it reads ([`Walk::steps`]), so
/// the timing model can send each step through the data caches and the
/// right memory device — which is exactly what distinguishes E-FAM,
/// I-FAM and DeACT traffic at the FAM (Fig. 4).
///
/// New interior nodes are placed by the caller-supplied allocator, so
/// the OS model decides whether page-table pages live in local DRAM or
/// FAM.
///
/// # Examples
///
/// ```
/// use fam_vm::{PageTable, PtFlags};
///
/// let mut pt = PageTable::new(0x1000);
/// let mut next = 0x10_0000u64;
/// let mut alloc = |_level| { let a = next; next += 4096; a };
/// pt.map(7, 99, PtFlags::rw(), &mut alloc);
/// assert_eq!(pt.translate(7).unwrap().target_page, 99);
/// assert_eq!(pt.walk(7).steps.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    mapped: u64,
}

impl PageTable {
    /// Creates an empty table whose root (PGD) page lives at
    /// `root_addr` (the simulated CR3 value).
    pub fn new(root_addr: u64) -> PageTable {
        PageTable {
            nodes: vec![Node::new(root_addr)],
            mapped: 0,
        }
    }

    fn index_at(vpage: u64, level: usize) -> u16 {
        debug_assert!(level < LEVELS);
        ((vpage >> (INDEX_BITS as usize * (LEVELS - 1 - level))) & INDEX_MASK) as u16
    }

    /// Maps `vpage → target_page` with `flags`, allocating interior
    /// node pages from `alloc_page`, which receives the depth of the
    /// node being created (1 = PUD … 3 = the PTE-level page) and must
    /// return the byte address of a fresh physical page — the hook the
    /// OS model uses to place PTE pages in DRAM or FAM. Returns the
    /// previous mapping if the page was already mapped.
    pub fn map(
        &mut self,
        vpage: u64,
        target_page: u64,
        flags: PtFlags,
        alloc_page: &mut dyn FnMut(usize) -> u64,
    ) -> Option<Pte> {
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpage, level);
            // Interior levels hold only tables: every leaf is a 4 KB
            // page at the last level.
            let next = match self.nodes[node].get(idx) {
                Some(Slot::Table(n)) => *n,
                _ => {
                    let base_addr = alloc_page(level + 1);
                    let n = self.nodes.len();
                    self.nodes.push(Node::new(base_addr));
                    self.nodes[node].set(idx, Slot::Table(n));
                    n
                }
            };
            node = next;
        }
        let idx = Self::index_at(vpage, LEVELS - 1);
        let old = self.nodes[node].set(idx, Slot::Leaf(Pte { target_page, flags }));
        match old {
            Some(Slot::Leaf(pte)) => Some(pte),
            Some(Slot::Table(_)) => unreachable!("leaf level never holds tables"),
            None => {
                self.mapped += 1;
                None
            }
        }
    }

    /// Walks the table for `vpage`, recording the entry address read at
    /// each level. Stops at the first non-present entry.
    pub fn walk(&self, vpage: u64) -> Walk {
        let mut steps = Vec::with_capacity(LEVELS);
        let mapping = self.walk_with(vpage, |s| steps.push(s));
        Walk { steps, mapping }
    }

    /// As [`PageTable::walk`], but reports each entry read through
    /// `visit` instead of collecting a vector — the allocation-free
    /// form the per-reference hot path uses.
    pub fn walk_with(&self, vpage: u64, mut visit: impl FnMut(WalkStep)) -> Option<Pte> {
        let mut node = 0usize;
        for level in 0..LEVELS {
            let idx = Self::index_at(vpage, level);
            visit(WalkStep {
                level,
                entry_addr: self.nodes[node].base_addr + idx as u64 * ENTRY_BYTES,
            });
            match self.nodes[node].get(idx) {
                Some(Slot::Table(n)) => node = *n,
                Some(Slot::Leaf(pte)) => return Some(*pte),
                None => break,
            }
        }
        None
    }

    /// Entry address that a walk would read at `level` for `vpage`,
    /// if the walk reaches that level. Level 0 always resolves (the
    /// root is always present).
    pub fn entry_addr_at(&self, vpage: u64, level: usize) -> Option<u64> {
        let mut node = 0usize;
        for l in 0..=level {
            let idx = Self::index_at(vpage, l);
            let addr = self.nodes[node].base_addr + idx as u64 * ENTRY_BYTES;
            if l == level {
                return Some(addr);
            }
            match self.nodes[node].get(idx) {
                Some(Slot::Table(n)) => node = *n,
                _ => return None,
            }
        }
        None
    }

    /// Looks up a mapping without recording walk steps.
    pub fn translate(&self, vpage: u64) -> Option<Pte> {
        self.walk(vpage).mapping
    }

    /// Removes the mapping for `vpage`, returning it if present.
    /// Interior nodes are not reclaimed (as in real kernels, table
    /// pages are freed lazily if at all).
    pub fn unmap(&mut self, vpage: u64) -> Option<Pte> {
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpage, level);
            match self.nodes[node].get(idx) {
                Some(Slot::Table(n)) => node = *n,
                _ => return None,
            }
        }
        let idx = Self::index_at(vpage, LEVELS - 1);
        match self.nodes[node].take(idx) {
            Some(Slot::Leaf(pte)) => {
                self.mapped -= 1;
                Some(pte)
            }
            Some(slot) => {
                self.nodes[node].set(idx, slot);
                None
            }
            None => None,
        }
    }

    /// Updates the permissions of an existing mapping in place; returns
    /// `false` if the page is not mapped.
    pub fn protect(&mut self, vpage: u64, flags: PtFlags) -> bool {
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpage, level);
            match self.nodes[node].get(idx) {
                Some(Slot::Table(n)) => node = *n,
                _ => return false,
            }
        }
        let idx = Self::index_at(vpage, LEVELS - 1);
        match self.nodes[node].get_mut(idx) {
            Some(Slot::Leaf(pte)) => {
                pte.flags = flags;
                true
            }
            _ => false,
        }
    }

    /// Physical base addresses of every table page (root first), in
    /// creation order. Recovery code scans this to find table pages
    /// resident on failed media.
    pub fn table_page_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes.iter().map(|n| n.base_addr)
    }

    /// Moves the table page whose physical base is `old_base` to
    /// `new_base`, returning whether such a page existed. The *logical*
    /// structure is untouched — only the physical placement changes, so
    /// subsequent walks read their entries from the new address. This
    /// is the broker's table-rebuild primitive: when failed media takes
    /// out an interior page, the broker (which authored every entry)
    /// reconstructs it on a surviving page and repoints the parent.
    pub fn relocate_table_page(&mut self, old_base: u64, new_base: u64) -> bool {
        match self.nodes.iter_mut().find(|n| n.base_addr == old_base) {
            Some(node) => {
                node.base_addr = new_base;
                true
            }
            None => false,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of table (interior + root) pages.
    pub fn table_pages(&self) -> usize {
        self.nodes.len()
    }

    /// The simulated CR3: the root page's physical address.
    pub fn root_addr(&self) -> u64 {
        self.nodes[0].base_addr
    }

    /// Total bytes of physical memory consumed by table pages.
    pub fn table_bytes(&self) -> u64 {
        self.nodes.len() as u64 * PAGE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump_alloc(start: u64) -> impl FnMut(usize) -> u64 {
        let mut next = start;
        move |_level| {
            let a = next;
            next += PAGE_BYTES;
            a
        }
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0x12345, 0x42, PtFlags::rw(), &mut alloc);
        let pte = pt.translate(0x12345).unwrap();
        assert_eq!(pte.target_page, 0x42);
        assert!(pte.flags.writable());
        assert_eq!(pt.translate(0x12346), None);
    }

    #[test]
    fn full_walk_has_four_steps_with_distinct_addresses() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(1, 2, PtFlags::ro(), &mut alloc);
        let walk = pt.walk(1);
        assert_eq!(walk.steps.len(), LEVELS);
        assert!(walk.mapping.is_some());
        let mut addrs: Vec<u64> = walk.steps.iter().map(|s| s.entry_addr).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), LEVELS, "each level reads a distinct entry");
        assert_eq!(
            walk.steps[0].entry_addr,
            pt.root_addr() + PageTable::index_at(1, 0) as u64 * 8
        );
    }

    #[test]
    fn unmapped_walk_stops_early() {
        let pt = PageTable::new(0);
        let walk = pt.walk(99);
        assert_eq!(walk.steps.len(), 1, "root entry read, found non-present");
        assert_eq!(walk.mapping, None);
    }

    #[test]
    fn neighbouring_pages_share_interior_nodes() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0, 1, PtFlags::ro(), &mut alloc);
        let tables_before = pt.table_pages();
        pt.map(1, 2, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.table_pages(), tables_before, "same PTE page reused");
        // A far-away page needs a whole new subtree.
        pt.map(1 << 27, 3, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.table_pages(), tables_before + 3);
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        assert_eq!(pt.map(5, 10, PtFlags::ro(), &mut alloc), None);
        let old = pt.map(5, 11, PtFlags::rw(), &mut alloc).unwrap();
        assert_eq!(old.target_page, 10);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmap_removes_mapping() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(5, 10, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.unmap(5).unwrap().target_page, 10);
        assert_eq!(pt.translate(5), None);
        assert_eq!(pt.unmap(5), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn protect_updates_flags() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(5, 10, PtFlags::rw(), &mut alloc);
        assert!(pt.protect(5, PtFlags::ro()));
        assert!(!pt.translate(5).unwrap().flags.writable());
        assert!(!pt.protect(6, PtFlags::ro()));
    }

    #[test]
    fn entry_addr_at_matches_walk() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0x777, 1, PtFlags::ro(), &mut alloc);
        let walk = pt.walk(0x777);
        for step in &walk.steps {
            assert_eq!(pt.entry_addr_at(0x777, step.level), Some(step.entry_addr));
        }
        assert_eq!(pt.entry_addr_at(0x888 << 18, 3), None, "subtree absent");
    }

    #[test]
    fn relocate_table_page_repoints_walk_addresses() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0x777, 1, PtFlags::ro(), &mut alloc);
        let doomed = pt.walk(0x777).steps[2].entry_addr & !(PAGE_BYTES - 1);
        assert!(pt.table_page_addrs().any(|a| a == doomed));
        assert!(pt.relocate_table_page(doomed, 0xAB_0000));
        // Same logical translation, new physical entry address.
        assert_eq!(pt.translate(0x777).unwrap().target_page, 1);
        let step = pt.walk(0x777).steps[2];
        assert_eq!(step.entry_addr & !(PAGE_BYTES - 1), 0xAB_0000);
        assert!(
            !pt.relocate_table_page(doomed, 0xCD_0000),
            "old address no longer names a table page"
        );
    }

    #[test]
    fn flags_combinators() {
        assert!(PtFlags::ro().readable());
        assert!(!PtFlags::ro().writable());
        assert!(PtFlags::rwx().executable());
        assert!(PtFlags::rx().executable());
        assert!(!PtFlags::rx().writable());
    }

    #[test]
    fn table_bytes_counts_nodes() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0, 1, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.table_bytes(), 4 * PAGE_BYTES); // root + 3 interior
    }

    #[test]
    fn index_extraction_covers_36_bits() {
        // vpage with distinct 9-bit groups: 0b000000001_000000010_000000011_000000100
        let vpage = (1u64 << 27) | (2 << 18) | (3 << 9) | 4;
        assert_eq!(PageTable::index_at(vpage, 0), 1);
        assert_eq!(PageTable::index_at(vpage, 1), 2);
        assert_eq!(PageTable::index_at(vpage, 2), 3);
        assert_eq!(PageTable::index_at(vpage, 3), 4);
    }
}
