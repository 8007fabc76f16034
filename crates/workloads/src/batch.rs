//! Struct-of-arrays reference batching.
//!
//! Drawing references one at a time through [`RefStream`] pays an enum
//! dispatch plus a non-inlinable call per reference — measurable
//! (≈29 ns/ref in `BENCH_baseline.json`) against component costs of
//! the same order. A [`RefBatch`] refill resolves the stream variant
//! once and then runs the concrete generator in a tight monomorphized
//! loop, storing the fields column-wise so the per-reference pop is a
//! few indexed loads. Generation order is exactly the order
//! [`RefStream::next_ref`] would have produced, so consumers that
//! switch to batching are bit-identical to consumers that do not.

use fam_vm::VirtAddr;

use crate::{MemRef, RefStream};

/// Write flag bit in the packed per-reference flag byte.
const FLAG_WRITE: u8 = 1;
/// Dependent flag bit in the packed per-reference flag byte.
const FLAG_DEP: u8 = 1 << 1;

/// A column-wise buffer of pre-generated memory references.
///
/// # Examples
///
/// ```
/// use fam_workloads::{RefBatch, RefStream, Workload};
///
/// let mut stream = RefStream::from(Workload::by_name("sssp").unwrap().generator(7));
/// let mut reference = RefStream::from(Workload::by_name("sssp").unwrap().generator(7));
/// let mut batch = RefBatch::new();
/// batch.refill(&mut stream, 16);
/// for _ in 0..16 {
///     assert_eq!(batch.pop(), Some(reference.next_ref()));
/// }
/// assert_eq!(batch.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefBatch {
    vaddrs: Vec<u64>,
    gaps: Vec<u32>,
    flags: Vec<u8>,
    head: usize,
}

impl RefBatch {
    /// Default refill length: long enough to amortize the dispatch,
    /// short enough that pre-generated state stays cache-resident.
    pub const DEFAULT_LEN: usize = 64;

    /// Creates an empty batch.
    pub fn new() -> RefBatch {
        RefBatch::default()
    }

    /// References still buffered.
    pub fn len(&self) -> usize {
        self.vaddrs.len() - self.head
    }

    /// Whether the batch is drained.
    pub fn is_empty(&self) -> bool {
        self.head == self.vaddrs.len()
    }

    /// The next buffered reference, front to back.
    pub fn pop(&mut self) -> Option<MemRef> {
        if self.is_empty() {
            return None;
        }
        let i = self.head;
        self.head += 1;
        let flags = self.flags[i];
        Some(MemRef {
            vaddr: VirtAddr(self.vaddrs[i]),
            is_write: flags & FLAG_WRITE != 0,
            dependent: flags & FLAG_DEP != 0,
            gap_instrs: self.gaps[i],
        })
    }

    /// Discards any remainder and refills with the next `n` references
    /// of `stream`, resolving the stream variant once for the whole
    /// batch.
    pub fn refill(&mut self, stream: &mut RefStream, n: usize) {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::BatchGen);
        self.vaddrs.clear();
        self.gaps.clear();
        self.flags.clear();
        self.head = 0;
        match stream {
            RefStream::Synthetic(g) => {
                for _ in 0..n {
                    self.push(g.next_ref());
                }
            }
            RefStream::Streamed(r) => {
                for _ in 0..n {
                    self.push(r.next_ref());
                }
            }
        }
    }

    fn push(&mut self, r: MemRef) {
        self.vaddrs.push(r.vaddr.0);
        self.gaps.push(r.gap_instrs);
        self.flags
            .push((r.is_write as u8) | ((r.dependent as u8) << 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn stream(seed: u64) -> RefStream {
        RefStream::from(Workload::by_name("mcf").unwrap().generator(seed))
    }

    #[test]
    fn batched_stream_matches_unbatched() {
        let mut batched = stream(11);
        let mut plain = stream(11);
        let mut batch = RefBatch::new();
        for _ in 0..10 {
            batch.refill(&mut batched, RefBatch::DEFAULT_LEN);
            while let Some(r) = batch.pop() {
                assert_eq!(r, plain.next_ref());
            }
        }
    }

    #[test]
    fn refill_discards_remainder() {
        let mut s = stream(3);
        let mut batch = RefBatch::new();
        batch.refill(&mut s, 8);
        batch.pop();
        batch.refill(&mut s, 8);
        assert_eq!(batch.len(), 8);
    }

    #[test]
    fn flags_roundtrip_both_bits() {
        // sp writes 40% and mcf chases pointers; across enough refs
        // both flag bits must surface set and clear.
        let mut s = RefStream::from(Workload::by_name("sp").unwrap().generator(5));
        let mut batch = RefBatch::new();
        batch.refill(&mut s, 4096);
        let mut writes = 0;
        let mut deps = 0;
        let n = batch.len();
        while let Some(r) = batch.pop() {
            writes += r.is_write as usize;
            deps += r.dependent as usize;
        }
        assert!(writes > 0 && writes < n);
        assert!(deps > 0 && deps < n);
    }

    #[test]
    fn empty_batch_pops_none() {
        assert_eq!(RefBatch::new().pop(), None);
    }
}
