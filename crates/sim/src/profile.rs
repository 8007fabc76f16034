//! Scoped host-time profiler: where does the *simulator's* wall-clock
//! time go?
//!
//! The tracing module ([`crate::trace`]) attributes *simulated* cycles
//! to pipeline stages; this module attributes *host* nanoseconds to
//! simulator phases so perf work can be steered by data instead of
//! guesswork. It follows the same zero-overhead-when-off contract as
//! [`crate::FaultInjector`] and [`crate::Tracer`]:
//!
//! * disabled (the default), [`span`] is one relaxed atomic load and a
//!   branch — no allocation, no thread-local touch, no clock read;
//! * the profiler only ever reads the host clock
//!   ([`std::time::Instant`]), never the simulated clock, so enabling
//!   it cannot perturb simulated-cycle results *by construction* —
//!   a differential test in the integration suite pins this anyway.
//!
//! # Model
//!
//! A [`span`] opens an RAII scope for a fixed [`PhaseId`]; dropping it
//! records elapsed host time into a per-thread accumulator. Spans nest:
//! each phase accumulates *total* time (span open to close) and *self*
//! time (total minus time spent in child spans), and every distinct
//! call path (e.g. `sched-dispatch;tlb`) keeps its own self-time so
//! the report can be exported as a folded stack loadable by
//! `inferno-flamegraph` or [speedscope](https://speedscope.app).
//!
//! Per-thread accumulators flush into a process-global report when a
//! thread exits (covering the scoped workers of [`crate::scoped_map`]),
//! periodically while the span stack is
//! empty, and explicitly from [`take_report`]. The global state means
//! one profiled run at a time: callers should [`take_report`] (or
//! [`reset`]) between runs, and only after any worker threads joined.
//!
//! # Examples
//!
//! ```
//! use fam_sim::profile::{self, PhaseId};
//!
//! profile::set_enabled(true);
//! {
//!     let _outer = profile::span(PhaseId::SchedDispatch);
//!     let _inner = profile::span(PhaseId::Tlb);
//! }
//! profile::set_enabled(false);
//! let report = profile::take_report();
//! assert_eq!(report.phase(PhaseId::Tlb).calls, 1);
//! assert!(report.to_folded().contains("sched-dispatch;tlb"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed set of simulator phases host time is attributed to.
///
/// One variant per hot region of the engine and per component model;
/// the names (see [`PhaseId::name`]) are the frame labels in the
/// folded-stack export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseId {
    /// Workload batch generation (`RefBatch::refill`).
    BatchGen,
    /// Never entered: the simulator has no fast path. Kept so code that
    /// reads it (the `simbench` benchmark) still compiles; it always
    /// reports zero.
    FastpathClassify,
    /// Never entered, for the same reason as
    /// [`PhaseId::FastpathClassify`].
    FastpathRetire,
    /// Scheduler heap pop.
    SchedPop,
    /// Full per-reference dispatch through the scheduler (`sim_ref`).
    SchedDispatch,
    /// TLB hierarchy lookups.
    Tlb,
    /// Cache hierarchy (L1/L2/LLC) accesses.
    CacheHierarchy,
    /// System Translation Unit verify / system-table walks.
    Stu,
    /// Page-table walks (walker planning + replay).
    PageWalk,
    /// Fabric traversals.
    Fabric,
    /// NVM module accesses.
    Nvm,
    /// Broker quarantine + page evacuation after a permanent fault.
    Evacuation,
    /// System-wide translation shootdown walk.
    Shootdown,
    /// Streamed trace-replay chunk refill + decode (`TraceReader`).
    ReplayDecode,
}

impl PhaseId {
    /// Every phase, in declaration order (index order).
    pub const ALL: [PhaseId; PhaseId::COUNT] = [
        PhaseId::BatchGen,
        PhaseId::FastpathClassify,
        PhaseId::FastpathRetire,
        PhaseId::SchedPop,
        PhaseId::SchedDispatch,
        PhaseId::Tlb,
        PhaseId::CacheHierarchy,
        PhaseId::Stu,
        PhaseId::PageWalk,
        PhaseId::Fabric,
        PhaseId::Nvm,
        PhaseId::Evacuation,
        PhaseId::Shootdown,
        PhaseId::ReplayDecode,
    ];

    /// Number of phases.
    pub const COUNT: usize = 14;

    /// Dense index in `[0, COUNT)`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name used in reports and folded stacks.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::BatchGen => "batch-gen",
            PhaseId::FastpathClassify => "fastpath-classify",
            PhaseId::FastpathRetire => "fastpath-retire",
            PhaseId::SchedPop => "sched-pop",
            PhaseId::SchedDispatch => "sched-dispatch",
            PhaseId::Tlb => "tlb",
            PhaseId::CacheHierarchy => "cache-hierarchy",
            PhaseId::Stu => "stu",
            PhaseId::PageWalk => "page-walk",
            PhaseId::Fabric => "fabric",
            PhaseId::Nvm => "nvm",
            PhaseId::Evacuation => "evacuation",
            PhaseId::Shootdown => "shootdown",
            PhaseId::ReplayDecode => "replay-decode",
        }
    }
}

/// Accumulated host time for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans closed for this phase.
    pub calls: u64,
    /// Total host nanoseconds, span open to close (includes children).
    pub total_ns: u64,
    /// Host nanoseconds minus time spent in nested child spans.
    pub self_ns: u64,
}

impl PhaseStat {
    const ZERO: PhaseStat = PhaseStat {
        calls: 0,
        total_ns: 0,
        self_ns: 0,
    };

    fn merge(&mut self, other: &PhaseStat) {
        self.calls = self.calls.saturating_add(other.calls);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
    }
}

/// Self-time for one distinct call path (encoded as a string of 5-bit
/// phase codes, root in the most significant populated group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PathStat {
    calls: u64,
    self_ns: u64,
}

/// Bits per phase code in a path key: codes run 1..=COUNT (0 marks the
/// empty path), so 5 bits hold up to 31 phases.
const PATH_BITS: u64 = 5;
const PATH_MASK: u64 = (1 << PATH_BITS) - 1;

/// Paths deeper than this stop extending the key and attribute to the
/// 12-phase prefix; real span nesting in the engine is ≤ 4 deep.
const MAX_DEPTH: usize = 12;

/// Span drops between opportunistic flushes of an empty-stack thread
/// accumulator into the global report (bounds staleness of long-lived
/// pool threads without taking a lock per span).
const FLUSH_EVERY: u32 = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL: Mutex<ProfileReport> = Mutex::new(ProfileReport::new());

/// Is the profiler currently enabled?
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables the profiler process-wide.
///
/// Spans opened while enabled record on close even if the profiler is
/// disabled in between, so toggling mid-run cannot unbalance the span
/// stack.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An RAII guard for one timed phase scope; created by [`span`].
///
/// Dropping the guard records elapsed host time. When the profiler is
/// disabled the guard is inert and drop is a branch on a `None`.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in; binding it to `_` drops it immediately"]
pub struct Span {
    phase: PhaseId,
    start: Option<Instant>,
}

/// Opens a timed scope for `phase`.
///
/// This is the single hot-path entry point: when the profiler is off
/// it is one relaxed atomic load and a branch.
#[inline(always)]
pub fn span(phase: PhaseId) -> Span {
    if !is_enabled() {
        return Span { phase, start: None };
    }
    enter(phase)
}

#[cold]
#[inline(never)]
fn enter(phase: PhaseId) -> Span {
    let _ = TLS.try_with(|t| t.borrow_mut().enter(phase));
    Span {
        phase,
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            exit(self.phase, start);
        }
    }
}

/// The enabled half of [`Span`]'s drop, kept out of line so a
/// disabled span's drop site compiles to a discriminant test and a
/// never-taken call — not an inlined copy of the TLS machinery at
/// every instrumentation point.
#[cold]
#[inline(never)]
fn exit(phase: PhaseId, start: Instant) {
    let elapsed = start.elapsed().as_nanos() as u64;
    let _ = TLS.try_with(|t| t.borrow_mut().exit(phase, elapsed));
}

/// Flushes the calling thread's accumulator into the global report.
///
/// The scoped-map helpers in this crate call this at the end of every
/// worker closure — `std::thread::scope` unblocks when closures
/// return, *before* thread-local destructors run, so the destructor
/// flush alone would race [`take_report`]. Custom worker threads that
/// record spans should do the same before signalling completion.
pub fn flush_thread() {
    let _ = TLS.try_with(|t| t.borrow_mut().flush());
}

/// Takes the accumulated report, resetting the profiler to empty.
///
/// Flushes the calling thread's accumulator first; call this only
/// after any profiled worker threads have finished (the pool helpers
/// flush workers deterministically via [`flush_thread`]).
pub fn take_report() -> ProfileReport {
    flush_thread();
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *global)
}

/// Discards any accumulated profile data.
pub fn reset() {
    let _ = take_report();
}

struct Frame {
    phase: PhaseId,
    child_ns: u64,
    path: u64,
}

struct ThreadProfile {
    stack: Vec<Frame>,
    phases: [PhaseStat; PhaseId::COUNT],
    paths: BTreeMap<u64, PathStat>,
    drops_since_flush: u32,
}

thread_local! {
    static TLS: RefCell<ThreadProfile> = RefCell::new(ThreadProfile::new());
}

impl ThreadProfile {
    fn new() -> ThreadProfile {
        ThreadProfile {
            stack: Vec::with_capacity(MAX_DEPTH),
            phases: [PhaseStat::ZERO; PhaseId::COUNT],
            paths: BTreeMap::new(),
            drops_since_flush: 0,
        }
    }

    fn enter(&mut self, phase: PhaseId) {
        let parent = self.stack.last().map(|f| f.path).unwrap_or(0);
        let path = if self.stack.len() >= MAX_DEPTH {
            parent
        } else {
            (parent << PATH_BITS) | (phase.index() as u64 + 1)
        };
        self.stack.push(Frame {
            phase,
            child_ns: 0,
            path,
        });
    }

    fn exit(&mut self, phase: PhaseId, elapsed_ns: u64) {
        let frame = match self.stack.pop() {
            Some(f) => f,
            // A span opened before the profiler was enabled (inert) can
            // surround one opened after; never underflow the stack.
            None => return,
        };
        debug_assert_eq!(frame.phase, phase, "span drops must nest LIFO");
        let self_ns = elapsed_ns.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
        }
        let stat = &mut self.phases[phase.index()];
        stat.calls += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
        stat.self_ns = stat.self_ns.saturating_add(self_ns);
        let path = self.paths.entry(frame.path).or_default();
        path.calls += 1;
        path.self_ns = path.self_ns.saturating_add(self_ns);
        self.drops_since_flush += 1;
        if self.stack.is_empty() && self.drops_since_flush >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.drops_since_flush = 0;
        if self.phases.iter().all(|s| s.calls == 0) {
            return;
        }
        let shard = ProfileReport {
            phases: std::mem::replace(&mut self.phases, [PhaseStat::ZERO; PhaseId::COUNT]),
            paths: std::mem::take(&mut self.paths),
        };
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        global.merge(&shard);
    }
}

impl Drop for ThreadProfile {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A merged host-time profile: per-phase totals plus per-call-path
/// self-times.
///
/// Attached to the run report as a diagnostic excluded from equality
/// (host time is nondeterministic by nature) and exportable as a
/// folded stack ([`ProfileReport::to_folded`]) or a plain-text table
/// ([`ProfileReport::top_table`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    phases: [PhaseStat; PhaseId::COUNT],
    paths: BTreeMap<u64, PathStat>,
}

impl ProfileReport {
    /// Creates an empty report.
    pub const fn new() -> ProfileReport {
        ProfileReport {
            phases: [PhaseStat::ZERO; PhaseId::COUNT],
            paths: BTreeMap::new(),
        }
    }

    /// True if no span was ever recorded into this report.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|s| s.calls == 0)
    }

    /// Accumulated stats for one phase.
    pub fn phase(&self, phase: PhaseId) -> PhaseStat {
        self.phases[phase.index()]
    }

    /// Total attributed host nanoseconds (sum of per-phase self time;
    /// self times partition wall time, so nested spans are not double
    /// counted).
    pub fn total_self_ns(&self) -> u64 {
        self.phases
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.self_ns))
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        for (&path, stat) in &other.paths {
            let entry = self.paths.entry(path).or_default();
            entry.calls = entry.calls.saturating_add(stat.calls);
            entry.self_ns = entry.self_ns.saturating_add(stat.self_ns);
        }
    }

    fn decode_path(mut key: u64) -> Vec<PhaseId> {
        let mut rev = Vec::new();
        while key != 0 {
            let code = (key & PATH_MASK) as usize;
            if (1..=PhaseId::COUNT).contains(&code) {
                rev.push(PhaseId::ALL[code - 1]);
            }
            key >>= PATH_BITS;
        }
        rev.reverse();
        rev
    }

    /// Renders the report in folded-stack format — one line per call
    /// path, `root;child;leaf <self_ns>` — directly loadable by
    /// `inferno-flamegraph` or <https://speedscope.app>.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (&key, stat) in &self.paths {
            let names: Vec<&str> = Self::decode_path(key).iter().map(|p| p.name()).collect();
            if names.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{} {}", names.join(";"), stat.self_ns);
        }
        out
    }

    /// Renders a plain-text table of the top `n` phases by self time.
    pub fn top_table(&self, n: usize) -> String {
        let mut rows: Vec<(PhaseId, PhaseStat)> = PhaseId::ALL
            .iter()
            .map(|&p| (p, self.phase(p)))
            .filter(|(_, s)| s.calls > 0)
            .collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        let total = self.total_self_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>12} {:>7}",
            "phase", "calls", "total_ms", "self_ms", "self%"
        );
        for (phase, stat) in rows {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>12.3} {:>12.3} {:>6.1}%",
                phase.name(),
                stat.calls,
                stat.total_ns as f64 / 1e6,
                stat.self_ns as f64 / 1e6,
                stat.self_ns as f64 * 100.0 / total as f64,
            );
        }
        out
    }
}

impl Default for ProfileReport {
    fn default() -> ProfileReport {
        ProfileReport::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global; serialize tests that enable it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        {
            let _s = span(PhaseId::Tlb);
            let _t = span(PhaseId::Nvm);
        }
        let report = take_report();
        assert!(report.is_empty());
        assert_eq!(report.to_folded(), "");
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        {
            let _outer = span(PhaseId::SchedDispatch);
            for _ in 0..3 {
                let _inner = span(PhaseId::Tlb);
            }
        }
        set_enabled(false);
        let report = take_report();
        assert!(!report.is_empty());
        let outer = report.phase(PhaseId::SchedDispatch);
        let inner = report.phase(PhaseId::Tlb);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.total_ns, inner.self_ns, "leaf has no children");
        assert!(
            outer.self_ns <= outer.total_ns,
            "self excludes child time: self={} total={}",
            outer.self_ns,
            outer.total_ns
        );
        assert!(outer.total_ns >= inner.total_ns);
        let folded = report.to_folded();
        assert!(folded.contains("sched-dispatch "), "root line: {folded}");
        assert!(
            folded.contains("sched-dispatch;tlb "),
            "path line: {folded}"
        );
        let table = report.top_table(10);
        assert!(table.contains("sched-dispatch"));
        assert!(table.contains("tlb"));
    }

    #[test]
    fn worker_threads_flush_before_completion() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        // Raw threads flush explicitly, as the pool helpers do: scope()
        // unblocks on closure return, before TLS destructors run.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    {
                        let _s = span(PhaseId::Fabric);
                    }
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.phase(PhaseId::Fabric).calls, 2);
    }

    #[test]
    fn scoped_map_workers_flush_automatically() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let squares = crate::scoped_map(2, 3, |i| {
            let _s = span(PhaseId::Nvm);
            (i as u64 + 1) * (i as u64 + 1)
        });
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.phase(PhaseId::Nvm).calls, 3);
        assert_eq!(squares, vec![1, 4, 9]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProfileReport::new();
        let mut shard = ProfileReport::new();
        shard.phases[PhaseId::Fabric.index()] = PhaseStat {
            calls: 2,
            total_ns: 10,
            self_ns: 10,
        };
        shard.paths.insert(
            PhaseId::Fabric.index() as u64 + 1,
            PathStat {
                calls: 2,
                self_ns: 10,
            },
        );
        a.merge(&shard);
        a.merge(&shard);
        assert_eq!(a.phase(PhaseId::Fabric).calls, 4);
        assert_eq!(a.total_self_ns(), 20);
        assert!(a.to_folded().starts_with("fabric 20"));
    }

    #[test]
    fn phase_roster_is_dense_and_named() {
        for (i, &p) in PhaseId::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
            assert!(p.name().is_ascii());
        }
    }
}
