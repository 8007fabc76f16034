//! Bounded windows of outstanding operations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// A bounded set of in-flight operations tracked by completion time.
///
/// Models both a core's outstanding-request budget (32 in Table II) and
/// the FAM's outstanding-request cap (128 in Table II): a new operation
/// may only be admitted once fewer than `capacity` operations are still
/// in flight, so [`Window::admit`] returns the (possibly delayed) cycle
/// at which the operation can actually enter the window.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, Window};
///
/// let mut w = Window::new(2);
/// assert_eq!(w.admit(Cycle(0)), Cycle(0));
/// w.record_completion(Cycle(100));
/// assert_eq!(w.admit(Cycle(0)), Cycle(0));
/// w.record_completion(Cycle(50));
/// // Window full: the third op must wait for the first completion.
/// assert_eq!(w.admit(Cycle(0)), Cycle(50));
/// ```
#[derive(Debug, Clone)]
pub struct Window {
    capacity: usize,
    completions: BinaryHeap<Reverse<Cycle>>,
    stalled: u64,
}

impl Window {
    /// Creates a window admitting at most `capacity` concurrent operations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Window {
        assert!(capacity > 0, "window capacity must be non-zero");
        Window {
            capacity,
            completions: BinaryHeap::new(),
            stalled: 0,
        }
    }

    /// Admits an operation wanting to start at `now`, returning the
    /// cycle at which it may actually start (later than `now` if the
    /// window is full). Call [`Window::record_completion`] afterwards
    /// with the operation's completion time.
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        // Drain operations that completed before `now`.
        while let Some(&Reverse(c)) = self.completions.peek() {
            if c <= now {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < self.capacity {
            return now;
        }
        // Full: wait for the earliest in-flight completion.
        self.stalled += 1;
        let Reverse(earliest) = self
            .completions
            .pop()
            .expect("window full implies non-empty");
        earliest.max(now)
    }

    /// Records that the most recently admitted operation completes at
    /// `completes_at`.
    pub fn record_completion(&mut self, completes_at: Cycle) {
        self.completions.push(Reverse(completes_at));
    }

    /// Predicts when an operation wanting to start at `now` would be
    /// admitted — `now` itself if a slot is free, otherwise the
    /// earliest in-flight completion. Lets a scheduler order work by
    /// true start time before committing to [`Window::admit`].
    ///
    /// The only mutation is forgetting operations that completed at or
    /// before `now`, which any later [`Window::admit`] at `now` or
    /// after would forget anyway; statistics are untouched. Callers
    /// must only use this when `now` never decreases between calls on
    /// the same window, which holds for a core's issue clock.
    pub fn would_start_mut(&mut self, now: Cycle) -> Cycle {
        while let Some(&Reverse(c)) = self.completions.peek() {
            if c <= now {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < self.capacity {
            now
        } else {
            let &Reverse(earliest) = self
                .completions
                .peek()
                .expect("window full implies non-empty");
            earliest.max(now)
        }
    }

    /// Operations that had to wait because the window was full.
    pub fn stalls(&self) -> u64 {
        self.stalled
    }

    /// Clears in-flight state and statistics, keeping the capacity.
    pub fn reset(&mut self) {
        self.completions.clear();
        self.stalled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_without_delay() {
        let mut w = Window::new(3);
        for _ in 0..3 {
            assert_eq!(w.admit(Cycle(0)), Cycle(0));
            w.record_completion(Cycle(1000));
        }
        assert_eq!(w.stalls(), 0);
    }

    #[test]
    fn full_window_delays_to_earliest_completion() {
        let mut w = Window::new(2);
        w.admit(Cycle(0));
        w.record_completion(Cycle(30));
        w.admit(Cycle(0));
        w.record_completion(Cycle(20));
        assert_eq!(w.admit(Cycle(0)), Cycle(20));
        assert_eq!(w.stalls(), 1);
    }

    #[test]
    fn completed_ops_free_slots() {
        let mut w = Window::new(1);
        w.admit(Cycle(0));
        w.record_completion(Cycle(10));
        // At cycle 50 the previous op has long completed.
        assert_eq!(w.admit(Cycle(50)), Cycle(50));
        assert_eq!(w.stalls(), 0);
    }

    #[test]
    fn delayed_admit_never_before_now() {
        let mut w = Window::new(1);
        w.admit(Cycle(0));
        w.record_completion(Cycle(10));
        // Window full until 10, but we only ask at 40.
        assert_eq!(w.admit(Cycle(40)), Cycle(40));
    }

    #[test]
    fn would_start_predicts_admit() {
        let mut w = Window::new(2);
        assert_eq!(w.would_start_mut(Cycle(5)), Cycle(5));
        w.admit(Cycle(0));
        w.record_completion(Cycle(30));
        w.admit(Cycle(0));
        w.record_completion(Cycle(20));
        // Full: prediction matches what admit would return.
        assert_eq!(w.would_start_mut(Cycle(0)), Cycle(20));
        assert_eq!(w.admit(Cycle(0)), Cycle(20));
        // Ops completing before `now` don't count as in flight.
        let mut w2 = Window::new(1);
        w2.admit(Cycle(0));
        w2.record_completion(Cycle(10));
        assert_eq!(w2.would_start_mut(Cycle(50)), Cycle(50));
    }

    #[test]
    fn reset_clears_state() {
        let mut w = Window::new(1);
        w.admit(Cycle(0));
        w.record_completion(Cycle(100));
        assert_eq!(w.admit(Cycle(0)), Cycle(100));
        w.record_completion(Cycle(200));
        w.reset();
        assert_eq!(w.stalls(), 0);
        assert_eq!(w.admit(Cycle(0)), Cycle(0), "nothing left in flight");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Window::new(0);
    }
}
