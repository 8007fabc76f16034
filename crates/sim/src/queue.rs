//! An indexed min-priority queue for event-driven scheduling.
//!
//! The simulation driver keeps one entry per simulated core, keyed on
//! the cycle at which that core's next staged reference could start.
//! Between two consecutive references only a handful of cores change
//! key (the core that just executed, plus any whose predicted start was
//! invalidated by resource contention), so the driver needs a queue
//! that supports *re-keying an identified entry* — not just push/pop —
//! in O(log n). That is exactly what an indexed binary heap provides,
//! and it is what turns the per-reference scheduling cost from a full
//! O(n) rescan into O(log n) heap maintenance.
//!
//! Determinism contract: ties are broken by the [`Ord`] of the key
//! itself, so callers embed their tie-break in the key (the system
//! driver keys on `(ready_cycle, node, core)`, reproducing the
//! first-wins order of a linear scan over nodes and cores).

use std::cmp::Ordering;

/// An indexed binary min-heap over dense slot ids `0..capacity`.
///
/// Each slot holds at most one entry; entries are ordered by their key
/// and the smallest key pops first. Unlike `BinaryHeap`, an entry can
/// be re-keyed or removed *by slot id* in O(log n), which is what an
/// event-driven scheduler needs when a resource conflict invalidates a
/// previously predicted start time.
///
/// # Examples
///
/// ```
/// use fam_sim::IndexedMinHeap;
///
/// let mut q: IndexedMinHeap<(u64, usize)> = IndexedMinHeap::new(4);
/// q.insert(0, (30, 0));
/// q.insert(1, (10, 1));
/// q.insert(2, (10, 2));
/// assert_eq!(q.pop(), Some((1, (10, 1)))); // smallest key wins...
/// q.update(2, (40, 2));                    // ...and entries can re-key
/// assert_eq!(q.pop(), Some((0, (30, 0))));
/// assert_eq!(q.pop(), Some((2, (40, 2))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<K> {
    /// Heap array of slot ids, min-key at the root.
    heap: Vec<usize>,
    /// `pos[slot]` = index of `slot` in `heap`, or `ABSENT`.
    pos: Vec<usize>,
    /// `keys[slot]` = the key `slot` is currently ordered by.
    keys: Vec<Option<K>>,
}

const ABSENT: usize = usize::MAX;

impl<K: Ord> IndexedMinHeap<K> {
    /// Creates an empty heap accepting slot ids `0..capacity`.
    pub fn new(capacity: usize) -> IndexedMinHeap<K> {
        IndexedMinHeap {
            heap: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
            keys: (0..capacity).map(|_| None).collect(),
        }
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `slot` currently has an entry.
    pub fn contains(&self, slot: usize) -> bool {
        self.pos[slot] != ABSENT
    }

    /// Inserts `slot` with `key`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or already queued (re-keying an
    /// existing entry is [`IndexedMinHeap::update`]'s job — an insert
    /// over a live entry is always a scheduler bug).
    pub fn insert(&mut self, slot: usize, key: K) {
        assert!(
            self.pos[slot] == ABSENT,
            "slot {slot} is already queued; use update to re-key"
        );
        self.keys[slot] = Some(key);
        let i = self.heap.len();
        self.heap.push(slot);
        self.pos[slot] = i;
        self.sift_up(i);
    }

    /// Re-keys an existing entry, restoring heap order in O(log n).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not queued.
    pub fn update(&mut self, slot: usize, key: K) {
        let i = self.pos[slot];
        assert!(i != ABSENT, "slot {slot} is not queued");
        let went_down = matches!(
            key.cmp(self.keys[slot].as_ref().expect("queued slots have keys")),
            Ordering::Greater
        );
        self.keys[slot] = Some(key);
        if went_down {
            self.sift_down(i);
        } else {
            self.sift_up(i);
        }
    }

    /// Removes `slot`'s entry, returning its key, or `None` if absent.
    pub fn remove(&mut self, slot: usize) -> Option<K> {
        let i = self.pos[slot];
        if i == ABSENT {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        self.pos[self.heap[i]] = i;
        self.heap.pop();
        self.pos[slot] = ABSENT;
        let key = self.keys[slot].take();
        if i <= last && i < self.heap.len() {
            // The swapped-in entry may violate order in either
            // direction relative to its new parent/children.
            self.sift_down(i);
            self.sift_up(i);
        }
        key
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop(&mut self) -> Option<(usize, K)> {
        let slot = *self.heap.first()?;
        let key = self.remove(slot).expect("root entry exists");
        Some((slot, key))
    }

    /// The slot and key of the smallest entry without removing it.
    pub fn peek(&self) -> Option<(usize, &K)> {
        let slot = *self.heap.first()?;
        Some((slot, self.keys[slot].as_ref().expect("root has a key")))
    }

    fn less(&self, a: usize, b: usize) -> bool {
        let ka = self.keys[self.heap[a]].as_ref().expect("heaped key");
        let kb = self.keys[self.heap[b]].as_ref().expect("heaped key");
        ka < kb
    }

    fn swap_entries(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(i, parent) {
                break;
            }
            self.swap_entries(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < self.heap.len() && self.less(right, left) {
                smallest = right;
            }
            if !self.less(smallest, i) {
                break;
            }
            self.swap_entries(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(8);
        for (slot, key) in [(3, 40u64), (0, 10), (5, 30), (1, 20)] {
            q.insert(slot, key);
        }
        let order: Vec<(usize, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0, 10), (1, 20), (5, 30), (3, 40)]);
    }

    #[test]
    fn tuple_keys_break_ties_like_a_scan() {
        // A linear scan over (node, core) picks the *first* minimum;
        // keying on (time, node, core) reproduces that order exactly.
        let mut q: IndexedMinHeap<(u64, usize, usize)> = IndexedMinHeap::new(8);
        q.insert(5, (7, 1, 1));
        q.insert(2, (7, 0, 2));
        q.insert(7, (7, 1, 3));
        assert_eq!(q.pop(), Some((2, (7, 0, 2))));
        assert_eq!(q.pop(), Some((5, (7, 1, 1))));
        assert_eq!(q.pop(), Some((7, (7, 1, 3))));
    }

    #[test]
    fn update_rekeys_both_directions() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(4);
        q.insert(0, 10);
        q.insert(1, 20);
        q.insert(2, 30);
        q.update(2, 5); // decrease: must rise to the root
        assert_eq!(q.peek(), Some((2, &5)));
        q.update(2, 50); // increase: must sink below the others
        assert_eq!(q.pop(), Some((0, 10)));
        assert_eq!(q.pop(), Some((1, 20)));
        assert_eq!(q.pop(), Some((2, 50)));
    }

    #[test]
    fn remove_arbitrary_entry() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(4);
        q.insert(0, 10);
        q.insert(1, 20);
        q.insert(2, 30);
        assert_eq!(q.remove(1), Some(20));
        assert!(!q.contains(1));
        assert_eq!(q.remove(1), None);
        assert_eq!(q.pop(), Some((0, 10)));
        assert_eq!(q.pop(), Some((2, 30)));
        assert!(q.is_empty());
    }

    #[test]
    fn reinsert_after_pop() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(2);
        q.insert(0, 1);
        q.insert(1, 2);
        assert_eq!(q.pop(), Some((0, 1)));
        q.insert(0, 9);
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), Some((0, 9)));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_insert_rejected() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(2);
        q.insert(0, 1);
        q.insert(0, 2);
    }

    #[test]
    #[should_panic(expected = "not queued")]
    fn update_of_absent_slot_rejected() {
        let mut q: IndexedMinHeap<u64> = IndexedMinHeap::new(2);
        q.update(0, 1);
    }

    /// Randomized cross-check against a sorted reference model.
    #[test]
    fn matches_reference_model_under_churn() {
        let mut rng = crate::SimRng::seeded(42);
        let cap = 64;
        let mut q: IndexedMinHeap<(u64, usize)> = IndexedMinHeap::new(cap);
        let mut model: Vec<Option<(u64, usize)>> = vec![None; cap];
        for step in 0..10_000u64 {
            let slot = (rng.next_u64() % cap as u64) as usize;
            let key = (rng.next_u64() % 1000, slot);
            match rng.next_u64() % 4 {
                0 | 1 => {
                    if model[slot].is_none() {
                        q.insert(slot, key);
                        model[slot] = Some(key);
                    } else {
                        q.update(slot, key);
                        model[slot] = Some(key);
                    }
                }
                2 => {
                    assert_eq!(q.remove(slot), model[slot].take());
                }
                _ => {
                    let want = model
                        .iter()
                        .enumerate()
                        .filter_map(|(s, k)| k.map(|k| (k, s)))
                        .min();
                    let got = q.pop();
                    match want {
                        None => assert_eq!(got, None, "step {step}"),
                        Some((k, s)) => {
                            assert_eq!(got, Some((s, k)), "step {step}");
                            model[s] = None;
                        }
                    }
                }
            }
        }
    }
}
