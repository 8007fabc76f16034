//! Contended hardware resources modelled as busy-interval timelines.

use std::collections::VecDeque;

use crate::{Cycle, Duration};

/// Busy intervals a [`Resource`] retains. Older intervals are
/// forgotten (treated as free), which bounds memory for arbitrarily
/// long runs: before a push or an insert into a full timeline the
/// oldest interval is dropped, and an insert that would itself become
/// the oldest interval of a full timeline is forgotten at once.
pub const MAX_INTERVALS: usize = 256;

/// A serially-occupied hardware unit: a DRAM channel, a fabric link, an
/// STU lookup port.
///
/// A request arriving at time `t` is *backfilled* into the earliest gap
/// of length `occupancy` at or after `t` in the resource's busy
/// timeline. Unlike a single `next_free` cursor, this tolerates
/// requests arriving out of simulated-time order — which path-oriented
/// simulation produces constantly (a multi-hop operation acquires
/// downstream resources at future times; the next operation's upstream
/// acquisition happens earlier). A future-time request must not block
/// an earlier one.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, Resource};
///
/// let mut link = Resource::new(4);
/// assert_eq!(link.acquire(Cycle(100)), Cycle(100)); // future request
/// // An earlier arrival backfills in front of it.
/// assert_eq!(link.acquire(Cycle(0)), Cycle(0));
/// // Contention still queues: same-time requests serialize.
/// assert_eq!(link.acquire(Cycle(0)), Cycle(4));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    occupancy: Duration,
    /// Sorted, non-overlapping (start, end) busy intervals, at most
    /// [`MAX_INTERVALS`] of them (oldest first).
    intervals: VecDeque<(u64, u64)>,
    busy: Duration,
    requests: u64,
}

impl Resource {
    /// Creates a resource that is busy for `occupancy` cycles per request.
    pub fn new(occupancy: u64) -> Resource {
        Resource {
            occupancy: Duration(occupancy),
            intervals: VecDeque::new(),
            busy: Duration::ZERO,
            requests: 0,
        }
    }

    /// Claims the resource for one request arriving at `now`; returns
    /// the cycle at which service begins.
    pub fn acquire(&mut self, now: Cycle) -> Cycle {
        self.acquire_for(now, self.occupancy)
    }

    /// Claims the resource for a request with a non-default occupancy
    /// (e.g. a larger packet on a link).
    pub fn acquire_for(&mut self, now: Cycle, occupancy: Duration) -> Cycle {
        self.requests += 1;
        self.busy += occupancy;
        if occupancy.0 == 0 {
            return now;
        }
        let mut start = now.0;
        // Fast path: an arrival at or after the busy frontier appends a
        // fresh interval — no search, no mid-timeline insertion.
        // Back-to-back service extends the frontier interval in place:
        // the busy-set is identical and the timeline stays short, which
        // keeps every later search and insertion cheap.
        match self.intervals.back_mut() {
            Some((_, end)) if *end == start => {
                *end = start + occupancy.0;
                return Cycle(start);
            }
            Some((_, end)) if *end > start => {}
            _ => {
                if self.intervals.len() == MAX_INTERVALS {
                    self.intervals.pop_front();
                }
                self.intervals.push_back((start, start + occupancy.0));
                return Cycle(start);
            }
        }
        // Backfill: find the first interval that ends after our
        // candidate start (ends are strictly increasing across the
        // sorted timeline), then walk forward to the first gap that
        // fits. Backfills cluster a few intervals behind the frontier
        // (an outbound request slotting in under the return-leg
        // reservations), so a short contiguous walk back from the
        // newest interval beats a binary search's scattered probes;
        // the search is the fallback for the rare deep backfill.
        let ivs = &mut self.intervals;
        let mut idx = ivs.len();
        let floor = idx.saturating_sub(64);
        while idx > floor && ivs[idx - 1].1 > start {
            idx -= 1;
        }
        if idx == floor && idx > 0 && ivs[idx - 1].1 > start {
            idx = ivs.partition_point(|&(_, e)| e <= start);
        }
        loop {
            let next_busy_start = ivs.get(idx).map_or(u64::MAX, |iv| iv.0);
            let end = start.saturating_add(occupancy.0);
            if end <= next_busy_start {
                // Coalesce with whichever neighbours this interval
                // abuts — the busy-set is unchanged, but runs of
                // back-to-back service collapse into single intervals
                // instead of fragmenting the timeline.
                let abuts_prev = idx > 0 && ivs[idx - 1].1 == start;
                let abuts_next = idx < ivs.len() && end == next_busy_start;
                match (abuts_prev, abuts_next) {
                    (true, true) => {
                        ivs[idx - 1].1 = ivs[idx].1;
                        ivs.remove(idx);
                    }
                    (true, false) => ivs[idx - 1].1 = end,
                    (false, true) => ivs[idx].0 = start,
                    (false, false) => {
                        if ivs.len() == MAX_INTERVALS {
                            // The new interval would be the oldest
                            // retained one: forget it at once.
                            if idx == 0 {
                                break;
                            }
                            ivs.pop_front();
                            idx -= 1;
                        }
                        ivs.insert(idx, (start, end));
                    }
                }
                break;
            }
            start = ivs[idx].1;
            idx += 1;
        }
        Cycle(start)
    }

    /// The end of the latest busy interval (the resource is certainly
    /// free after this point).
    pub fn next_free(&self) -> Cycle {
        Cycle(self.intervals.back().map_or(0, |&(_, e)| e))
    }

    /// Total cycles this resource has been occupied.
    pub fn busy_cycles(&self) -> Duration {
        self.busy
    }

    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The configured default occupancy per request.
    pub fn occupancy(&self) -> Duration {
        self.occupancy
    }

    /// Resets the timeline and statistics, keeping the occupancy.
    pub fn reset(&mut self) {
        self.intervals.clear();
        self.busy = Duration::ZERO;
        self.requests = 0;
    }
}

/// A set of independently-occupied banks addressed by an interleaving
/// function — the FAM NVM's 32 banks in the paper (Table II).
///
/// Each bank is its own [`Resource`]; consecutive cache blocks map to
/// consecutive banks so streaming traffic spreads across the device.
///
/// # Examples
///
/// ```
/// use fam_sim::{BankedResource, Cycle};
///
/// let mut nvm = BankedResource::new(4, 100);
/// // Two requests to different banks proceed in parallel...
/// assert_eq!(nvm.acquire(Cycle(0), 0), Cycle(0));
/// assert_eq!(nvm.acquire(Cycle(0), 1), Cycle(0));
/// // ...but a second request to bank 0 queues.
/// assert_eq!(nvm.acquire(Cycle(0), 4), Cycle(100));
/// ```
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<Resource>,
    /// `banks - 1` when the bank count is a power of two, else 0 —
    /// interleaving is on every modelled device access, and an AND
    /// beats the hardware divide of `% banks`.
    bank_mask: u64,
}

impl BankedResource {
    /// Creates `banks` banks, each busy `occupancy` cycles per request.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize, occupancy: u64) -> BankedResource {
        assert!(banks > 0, "need at least one bank");
        BankedResource {
            banks: vec![Resource::new(occupancy); banks],
            bank_mask: if banks.is_power_of_two() {
                banks as u64 - 1
            } else {
                0
            },
        }
    }

    /// Claims the bank selected by `interleave_key % banks` for a
    /// request arriving at `now`; returns the service start time.
    pub fn acquire(&mut self, now: Cycle, interleave_key: u64) -> Cycle {
        let idx = self.bank_index(interleave_key);
        self.banks[idx].acquire(now)
    }

    /// As [`BankedResource::acquire`] with an explicit occupancy.
    pub fn acquire_for(&mut self, now: Cycle, interleave_key: u64, occupancy: Duration) -> Cycle {
        let idx = self.bank_index(interleave_key);
        self.banks[idx].acquire_for(now, occupancy)
    }

    #[inline]
    fn bank_index(&self, interleave_key: u64) -> usize {
        if self.bank_mask != 0 {
            (interleave_key & self.bank_mask) as usize
        } else {
            (interleave_key % self.banks.len() as u64) as usize
        }
    }

    /// Total requests across all banks.
    pub fn requests(&self) -> u64 {
        self.banks.iter().map(Resource::requests).sum()
    }

    /// Total busy cycles across all banks.
    pub fn busy_cycles(&self) -> Duration {
        self.banks.iter().map(Resource::busy_cycles).sum()
    }

    /// Resets every bank's timeline and statistics.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_requests_queue() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        assert_eq!(r.acquire(Cycle(0)), Cycle(10));
        assert_eq!(r.acquire(Cycle(5)), Cycle(20));
        assert_eq!(r.requests(), 3);
        assert_eq!(r.busy_cycles(), Duration(30));
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new(10);
        r.acquire(Cycle(0));
        assert_eq!(r.acquire(Cycle(1000)), Cycle(1000));
    }

    #[test]
    fn earlier_arrival_backfills_before_future_reservation() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire(Cycle(5000)), Cycle(5000));
        // A request arriving earlier is not blocked by the future one.
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        // A gap-sized request fits between the two.
        assert_eq!(r.acquire(Cycle(2000)), Cycle(2000));
        // But a request overlapping the future interval queues behind it.
        assert_eq!(r.acquire(Cycle(4995)), Cycle(5010));
    }

    #[test]
    fn backfill_respects_gap_size() {
        let mut r = Resource::new(10);
        r.acquire(Cycle(0)); // busy [0,10)
        r.acquire(Cycle(15)); // busy [15,25)
                              // A 10-cycle job arriving at 8 does not fit in the 5-cycle gap.
        assert_eq!(r.acquire(Cycle(8)), Cycle(25));
        // But one arriving at 25+ starts immediately after.
        assert_eq!(r.acquire(Cycle(40)), Cycle(40));
    }

    #[test]
    fn acquire_for_custom_occupancy() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire_for(Cycle(0), Duration(3)), Cycle(0));
        assert_eq!(r.next_free(), Cycle(3));
        assert_eq!(r.busy_cycles(), Duration(3));
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut r = Resource::new(0);
        assert_eq!(r.acquire(Cycle(7)), Cycle(7));
        assert_eq!(r.acquire(Cycle(7)), Cycle(7));
        assert_eq!(r.busy_cycles(), Duration::ZERO);
    }

    #[test]
    fn interval_pruning_bounds_memory() {
        let mut r = Resource::new(1);
        for i in 0..10_000u64 {
            // Disjoint intervals so nothing merges.
            r.acquire(Cycle(i * 10));
        }
        assert_eq!(r.requests(), 10_000);
        assert!(r.next_free() > Cycle(99_000));
    }

    /// `n` disjoint one-cycle intervals at `first`, `first + 10`, ….
    fn disjoint(n: u64, first: u64) -> Resource {
        let mut r = Resource::new(1);
        for i in 0..n {
            r.acquire(Cycle(first + i * 10));
        }
        r
    }

    #[test]
    fn push_past_capacity_forgets_the_oldest() {
        let mut r = disjoint(MAX_INTERVALS as u64 + 3, 0);
        // The intervals at 0, 10 and 20 were dropped: that time is free.
        assert_eq!(r.acquire(Cycle(20)), Cycle(20));
        // The oldest retained interval, at 30, still blocks.
        assert_eq!(r.acquire(Cycle(30)), Cycle(31));
    }

    #[test]
    fn insert_into_full_timeline_drops_oldest() {
        let mut r = disjoint(MAX_INTERVALS as u64, 0);
        assert_eq!(r.acquire(Cycle(44)), Cycle(44), "backfills a gap");
        assert_eq!(r.acquire(Cycle(0)), Cycle(0), "the oldest was dropped");
        assert_eq!(r.acquire(Cycle(44)), Cycle(45), "the backfill was kept");
    }

    #[test]
    fn insert_at_front_of_full_timeline_is_forgotten() {
        let mut r = disjoint(MAX_INTERVALS as u64, 10);
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        // It would have been the oldest retained interval: forgotten.
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        assert_eq!(r.acquire(Cycle(10)), Cycle(11), "nothing else dropped");
    }

    #[test]
    fn deep_backfill_finds_the_first_fitting_gap() {
        // Far more intervals than the short backward walk covers, so the
        // arrival is located by the search.
        let mut r = disjoint(200, 0);
        assert_eq!(r.acquire_for(Cycle(57), Duration(3)), Cycle(57));
        // [100, 101) is busy; the 9-cycle job fills [101, 110) exactly
        // and coalesces with both neighbours.
        assert_eq!(r.acquire_for(Cycle(100), Duration(9)), Cycle(101));
        assert_eq!(r.acquire(Cycle(100)), Cycle(111));
    }

    #[test]
    fn deep_backfill_searches_a_wrapped_timeline() {
        // Twice the retention: the deque has dropped its first half.
        let n = 2 * MAX_INTERVALS as u64;
        let mut r = disjoint(n, 0);
        let mid = (n - MAX_INTERVALS as u64 / 2) * 10;
        assert_eq!(r.acquire(Cycle(mid)), Cycle(mid + 1));
        assert_eq!(r.acquire(Cycle(mid + 5)), Cycle(mid + 5));
    }

    #[test]
    fn reset_clears_timeline() {
        let mut r = Resource::new(10);
        r.acquire(Cycle(0));
        r.reset();
        assert_eq!(r.next_free(), Cycle::ZERO);
        assert_eq!(r.requests(), 0);
        assert_eq!(r.occupancy(), Duration(10));
    }

    #[test]
    fn banks_are_independent() {
        let mut b = BankedResource::new(2, 50);
        assert_eq!(b.acquire(Cycle(0), 0), Cycle(0));
        assert_eq!(b.acquire(Cycle(0), 1), Cycle(0));
        assert_eq!(b.acquire(Cycle(0), 2), Cycle(50)); // bank 0 again
        assert_eq!(b.requests(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankedResource::new(0, 1);
    }
}
