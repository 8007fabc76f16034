//! Request-lifecycle tracing and per-stage latency telemetry.
//!
//! Every memory reference the system simulates passes through a fixed
//! pipeline — node TLB, node page-table walk, the in-DRAM translation
//! cache, the fabric, the STU, the NVM device — and every figure in
//! the paper is ultimately a claim about where those cycles go. This
//! module makes the decomposition observable without re-deriving it by
//! hand: timing layers emit typed [`TraceEvent`]s (a request id, a
//! pipeline [`Stage`], a hardware [`Track`], start/end cycles) into a
//! [`Tracer`], which retains them in a bounded ring buffer with
//! explicit drop accounting and folds every event into one per-stage
//! [`LatencyBreakdown`] of [`Histogram`]s.
//!
//! Two sinks read the tracer out:
//!
//! * [`write_chrome_trace`] — the Chrome trace-event JSON format, one
//!   track per node / STU / fabric link / NVM module, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`WindowSeries`] — a windowed time series (instructions, AT and
//!   total FAM traffic, retry/recovery counters per N-cycle interval)
//!   for plotting phase behaviour over a run.
//!
//! # Request identity
//!
//! The tracer owns the in-flight request. The driver hands each
//! reference's id to [`Tracer::begin`] once, and every event site
//! records with [`Tracer::span`]`(stage, track, start, end)`, which
//! stamps the current id onto the event. No request id crosses a
//! component interface (STU, retry state, wire packet): a component
//! stays independent of the observability layer.
//!
//! # The zero-overhead-off contract
//!
//! Like [`FaultInjector`](crate::FaultInjector), a disabled tracer is
//! a zero-cost no-op: every event site in the timing code is one
//! inlined [`Tracer::span`] call whose single `enabled` branch is the
//! whole cost, a disabled tracer allocates no ring storage and
//! consumes nothing, and a fixed-seed run with tracing off is
//! bit-identical to the same run with the trace layer compiled in —
//! the integration tests pin this down the same way
//! `tests/tests/scheduler.rs` pins scheduler equivalence. Tracing is
//! pure observation: enabling it never changes a report's timing or
//! traffic fields, only the [`LatencyBreakdown`] it carries.

use std::fmt;
use std::io::{self, Write};

use crate::json::Json;
use crate::stats::Histogram;
use crate::Cycle;

/// Identity of one simulated memory reference: every event of one
/// reference's lifetime carries it, so the events can be correlated.
/// It lives in the [`Tracer`] ([`Tracer::begin`]), not in the
/// components the reference passes through.
///
/// Id `0` is reserved: [`RequestId::UNTRACED`] marks requests issued
/// while tracing is off (the disabled tracer hands it out without
/// consuming a counter, so runs with tracing off stay bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The id carried by requests issued while tracing is disabled.
    pub const UNTRACED: RequestId = RequestId(0);

    /// Whether this id belongs to a traced request.
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req {}", self.0)
    }
}

/// A pipeline stage of the FAM reference lifecycle — the axes of the
/// per-stage latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Node TLB lookup (hit or miss latency).
    TlbLookup,
    /// Node page-table walk (the PTW-cache-planned entry reads).
    PtWalk,
    /// Page-fault service (node first touch or system-level demand
    /// map), plus injected STU stalls.
    Fault,
    /// In-DRAM FAM translation-cache probe (DeACT ① of Fig. 6).
    TranslationCache,
    /// STU cache lookup (I-FAM coupled entry, DeACT ACM check).
    StuLookup,
    /// System page-table walk at the STU's FAM-PTW.
    StuWalk,
    /// ACM metadata-block (and sharing-bitmap) fetch from FAM.
    AcmFetch,
    /// Fabric traversal, node → FAM.
    FabricSend,
    /// Fabric traversal, FAM → node.
    FabricRecv,
    /// NVM device service.
    NvmAccess,
    /// Recovery wait after a detected fault (timeout expiry or NACK
    /// round trip).
    Retry,
    /// Exponential-backoff wait before a reissue.
    Backoff,
}

impl Stage {
    /// Every stage, in pipeline order — the column order of every
    /// breakdown table and CSV export.
    pub const ALL: [Stage; 12] = [
        Stage::TlbLookup,
        Stage::PtWalk,
        Stage::Fault,
        Stage::TranslationCache,
        Stage::StuLookup,
        Stage::StuWalk,
        Stage::AcmFetch,
        Stage::FabricSend,
        Stage::FabricRecv,
        Stage::NvmAccess,
        Stage::Retry,
        Stage::Backoff,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Dense index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (CSV column suffixes, trace-event
    /// names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::TlbLookup => "tlb_lookup",
            Stage::PtWalk => "pt_walk",
            Stage::Fault => "fault",
            Stage::TranslationCache => "translation_cache",
            Stage::StuLookup => "stu_lookup",
            Stage::StuWalk => "stu_walk",
            Stage::AcmFetch => "acm_fetch",
            Stage::FabricSend => "fabric_send",
            Stage::FabricRecv => "fabric_recv",
            Stage::NvmAccess => "nvm_access",
            Stage::Retry => "retry",
            Stage::Backoff => "backoff",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hardware unit an event occurred on — one Perfetto track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A compute node (TLB, node PTW, translation cache, faults).
    Node(u16),
    /// A node's System Translation Unit.
    Stu(u16),
    /// A node's fabric link (sends, receives, retries, backoffs).
    Fabric(u16),
    /// A FAM NVM module.
    Nvm(u16),
}

impl Track {
    /// Human-readable track label (the Perfetto thread name).
    pub fn label(self) -> String {
        match self {
            Track::Node(n) => format!("node{n}"),
            Track::Stu(n) => format!("stu{n}"),
            Track::Fabric(n) => format!("fabric{n}"),
            Track::Nvm(m) => format!("nvm{m}"),
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One traced span: request `req` occupied `track` doing `stage` from
/// `start` to `end` (inclusive of queueing, as the timing model sees
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request this event belongs to.
    pub req: RequestId,
    /// The pipeline stage.
    pub stage: Stage,
    /// The hardware unit.
    pub track: Track,
    /// Start cycle.
    pub start: Cycle,
    /// End cycle (`end >= start`).
    pub end: Cycle,
}

impl TraceEvent {
    /// The span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.0 - self.start.0
    }
}

/// Tracing configuration, carried inside the system configuration the
/// same way [`FaultConfig`](crate::FaultConfig) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off (the default) makes the tracer a zero-cost
    /// no-op: one branch per event site, nothing recorded, reports
    /// bit-identical to a run without the trace layer.
    pub enabled: bool,
    /// Ring-buffer capacity in events. Once full, the oldest event is
    /// overwritten and counted in [`Tracer::dropped`]. `0` keeps the
    /// latency breakdown and time series but retains no individual
    /// events (breakdown-only mode, no drop accounting to do).
    pub ring_capacity: usize,
    /// Time-series window length in cycles; `0` disables the series.
    pub window_cycles: u64,
}

impl TraceConfig {
    /// Default ring capacity of [`TraceConfig::full`]: 64 Ki events.
    pub const DEFAULT_RING: usize = 1 << 16;

    /// Default window of [`TraceConfig::full`]: 1 M cycles (0.5 ms at
    /// the paper's 2 GHz).
    pub const DEFAULT_WINDOW: u64 = 1 << 20;

    /// Tracing off — the configuration default.
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ring_capacity: 0,
            window_cycles: 0,
        }
    }

    /// Full tracing: event ring, breakdown and time series.
    pub fn full() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ring_capacity: Self::DEFAULT_RING,
            window_cycles: Self::DEFAULT_WINDOW,
        }
    }

    /// Latency breakdown only: no event retention, no time series —
    /// the cheapest enabled mode, used by batch sweeps that only want
    /// the per-stage histograms in their reports.
    pub fn breakdown_only() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ring_capacity: 0,
            window_cycles: 0,
        }
    }

    /// Sets the ring capacity.
    #[must_use]
    pub fn with_ring_capacity(mut self, events: usize) -> TraceConfig {
        self.ring_capacity = events;
        self
    }

    /// Sets the time-series window length.
    #[must_use]
    pub fn with_window_cycles(mut self, cycles: u64) -> TraceConfig {
        self.window_cycles = cycles;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::disabled()
    }
}

/// Per-stage latency histograms — the run-level decomposition of where
/// a reference's cycles went.
///
/// The tracer records every span into one breakdown; [`merge`]
/// (bucket-wise, like [`Histogram::merge`]) folds breakdowns of
/// separate runs together.
///
/// [`merge`]: LatencyBreakdown::merge
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyBreakdown {
    stages: [Histogram; Stage::COUNT],
}

impl LatencyBreakdown {
    /// An empty breakdown.
    pub fn new() -> LatencyBreakdown {
        LatencyBreakdown {
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one span's length against its stage.
    pub fn record(&mut self, stage: Stage, cycles: u64) {
        self.stages[stage.index()].record(cycles);
    }

    /// The histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Merges another breakdown into this one, stage by stage.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
    }

    /// Total spans recorded across all stages.
    pub fn total_samples(&self) -> u64 {
        self.stages.iter().map(Histogram::count).sum()
    }

    /// Whether nothing has been recorded (the tracing-off state).
    pub fn is_empty(&self) -> bool {
        self.total_samples() == 0
    }
}

impl Default for LatencyBreakdown {
    fn default() -> LatencyBreakdown {
        LatencyBreakdown::new()
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stage in Stage::ALL {
            let h = self.stage(stage);
            if h.count() > 0 {
                writeln!(f, "{:>18}  {h}", stage.name())?;
            }
        }
        Ok(())
    }
}

/// Counters accumulated over one time-series window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Instructions retired by references completing in the window.
    pub instructions: u64,
    /// Address-translation FAM requests issued in the window.
    pub fam_at: u64,
    /// All FAM requests issued in the window.
    pub fam_total: u64,
    /// Retries performed in the window.
    pub retries: u64,
    /// Faulted requests that recovered in the window.
    pub recovered: u64,
}

impl WindowSample {
    /// AT requests as a percentage of the window's FAM requests.
    pub fn at_percent(&self) -> f64 {
        if self.fam_total == 0 {
            0.0
        } else {
            self.fam_at as f64 * 100.0 / self.fam_total as f64
        }
    }

    /// IPC over a window of `window_cycles`.
    pub fn ipc(&self, window_cycles: u64) -> f64 {
        self.instructions as f64 / window_cycles.max(1) as f64
    }

    fn accumulate(&mut self, other: WindowSample) {
        self.instructions += other.instructions;
        self.fam_at += other.fam_at;
        self.fam_total += other.fam_total;
        self.retries += other.retries;
        self.recovered += other.recovered;
    }
}

/// Window cap: a series never grows past this many windows; later
/// completions clip into the last window (and are counted) rather
/// than growing without bound on pathological window sizes.
const MAX_WINDOWS: usize = 1 << 16;

/// The windowed time series: one [`WindowSample`] per `window_cycles`
/// interval of simulated time, bucketed by completion cycle.
#[derive(Debug, Clone, Default)]
pub struct WindowSeries {
    window_cycles: u64,
    samples: Vec<WindowSample>,
    clipped: u64,
}

impl WindowSeries {
    fn new(window_cycles: u64) -> WindowSeries {
        WindowSeries {
            window_cycles,
            samples: Vec::new(),
            clipped: 0,
        }
    }

    fn record(&mut self, at: Cycle, sample: WindowSample) {
        let mut idx = (at.0 / self.window_cycles) as usize;
        if idx >= MAX_WINDOWS {
            idx = MAX_WINDOWS - 1;
            self.clipped += 1;
        }
        if idx >= self.samples.len() {
            self.samples.resize(idx + 1, WindowSample::default());
        }
        self.samples[idx].accumulate(sample);
    }

    /// The window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// The samples, one per window from cycle 0 (empty windows are
    /// present and all-zero).
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// References that completed past the series' window cap (2^16
    /// windows) and were folded into the last window.
    pub fn clipped(&self) -> u64 {
        self.clipped
    }
}

/// The telemetry hub: the in-flight request id, a bounded event ring
/// with drop accounting, the run's latency breakdown, and the windowed
/// time series.
///
/// # Examples
///
/// ```
/// use fam_sim::trace::{Stage, TraceConfig, Tracer, Track};
/// use fam_sim::Cycle;
///
/// let mut t = Tracer::new(TraceConfig::full());
/// let req = t.next_request();
/// t.begin(req);
/// t.span(Stage::NvmAccess, Track::Nvm(0), Cycle(100), Cycle(220));
/// assert_eq!(t.recorded(), 1);
/// assert_eq!(t.events().next().unwrap().req, req);
/// assert_eq!(t.breakdown().stage(Stage::NvmAccess).max(), 120);
///
/// // Disabled: one branch, nothing consumed.
/// let mut off = Tracer::disabled();
/// assert!(!off.next_request().is_traced());
/// off.span(Stage::NvmAccess, Track::Nvm(0), Cycle(100), Cycle(220));
/// assert_eq!(off.recorded(), 0);
/// ```
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    ring: Vec<TraceEvent>,
    head: usize,
    recorded: u64,
    dropped: u64,
    next_req: u64,
    current: RequestId,
    breakdown: LatencyBreakdown,
    series: WindowSeries,
}

impl Tracer {
    /// Creates a tracer. A disabled configuration allocates no ring.
    pub fn new(config: TraceConfig) -> Tracer {
        let enabled = config.enabled;
        Tracer {
            ring: Vec::with_capacity(if enabled { config.ring_capacity } else { 0 }),
            head: 0,
            recorded: 0,
            dropped: 0,
            next_req: 0,
            current: RequestId::UNTRACED,
            breakdown: LatencyBreakdown::new(),
            series: WindowSeries::new(if enabled { config.window_cycles } else { 0 }),
            config,
        }
    }

    /// A disabled tracer (the default for every system).
    pub fn disabled() -> Tracer {
        Tracer::new(TraceConfig::disabled())
    }

    /// Whether the time series is being collected.
    #[inline]
    pub fn wants_windows(&self) -> bool {
        self.config.enabled && self.config.window_cycles > 0
    }

    /// The configuration in force.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Hands out the next request id. Disabled tracers return
    /// [`RequestId::UNTRACED`] without consuming anything, so request
    /// numbering — like RNG state — is untouched by a disabled layer.
    pub fn next_request(&mut self) -> RequestId {
        if !self.config.enabled {
            return RequestId::UNTRACED;
        }
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Request ids handed out so far.
    pub fn requests_issued(&self) -> u64 {
        self.next_req
    }

    /// Makes `req` the in-flight request: every [`Tracer::span`] until
    /// the next `begin` is attributed to it.
    #[inline]
    pub fn begin(&mut self, req: RequestId) {
        self.current = req;
    }

    /// Records that the in-flight request occupied `track` doing
    /// `stage` from `start` to `end`. This is every event site's one
    /// call: on a disabled tracer it is a single branch and nothing
    /// else.
    #[inline]
    pub fn span(&mut self, stage: Stage, track: Track, start: Cycle, end: Cycle) {
        if self.config.enabled {
            self.record(TraceEvent {
                req: self.current,
                stage,
                track,
                start,
                end,
            });
        }
    }

    /// Records one event: folds it into the breakdown and pushes it
    /// onto the ring (overwriting the oldest event, with drop
    /// accounting, once the ring is full). Recording on a disabled
    /// tracer is a no-op.
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.config.enabled {
            return;
        }
        debug_assert!(ev.end >= ev.start, "trace span must not run backwards");
        self.recorded += 1;
        self.breakdown.record(ev.stage, ev.cycles());
        // Ring push with overwrite-oldest drop accounting.
        if self.config.ring_capacity == 0 {
            return;
        }
        if self.ring.len() < self.config.ring_capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.config.ring_capacity;
            self.dropped += 1;
        }
    }

    /// Adds one completed reference's counters to the time series.
    pub fn sample(&mut self, at: Cycle, sample: WindowSample) {
        if self.wants_windows() {
            self.series.record(at, sample);
        }
    }

    /// Events offered to the ring over the run.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten after the ring filled. `retained + dropped
    /// == recorded` whenever the ring has capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held in the ring.
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// The run-level breakdown of every recorded span.
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// The windowed time series.
    pub fn series(&self) -> &WindowSeries {
        &self.series
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

/// Escapes nothing: every string this writer emits (stage names, track
/// labels) is plain ASCII by construction, matching the workspace's
/// other hand-rolled JSON writers.
fn push_event(out: &mut String, first: &mut bool, ph: char, tid: usize, name: &str, rest: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&format!(
        "    {{\"ph\": \"{ph}\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{name}\"{rest}}}"
    ));
}

/// Writes the tracer's retained events as Chrome trace-event JSON
/// (the `traceEvents` array form), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Each [`Track`] becomes one named thread (`"M"` metadata events);
/// each [`TraceEvent`] becomes one `"X"` complete event whose `ts` /
/// `dur` are microseconds derived from cycles at `frequency_mhz`, with
/// the request id in `args.req`. Drop accounting and the request count
/// ride along in `otherData`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_chrome_trace<W: Write>(
    mut w: W,
    tracer: &Tracer,
    frequency_mhz: u64,
) -> io::Result<()> {
    let mhz = frequency_mhz.max(1) as f64;
    // Stable track → tid assignment, in Track's derived order.
    let mut tracks: Vec<Track> = tracer.events().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |t: Track| tracks.binary_search(&t).expect("track collected above") + 1;

    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n");
    out.push_str(&format!(
        "  \"otherData\": {{\"schema\": \"deact-trace-v1\", \"recorded\": {}, \
         \"dropped\": {}, \"requests\": {}, \"frequency_mhz\": {frequency_mhz}}},\n",
        tracer.recorded(),
        tracer.dropped(),
        tracer.requests_issued()
    ));
    out.push_str("  \"traceEvents\": [\n");
    let mut first = true;
    push_event(
        &mut out,
        &mut first,
        'M',
        0,
        "process_name",
        ", \"args\": {\"name\": \"deact-sim\"}",
    );
    for &track in &tracks {
        push_event(
            &mut out,
            &mut first,
            'M',
            tid_of(track),
            "thread_name",
            &format!(", \"args\": {{\"name\": \"{}\"}}", track.label()),
        );
    }
    for ev in tracer.events() {
        let ts = ev.start.0 as f64 / mhz;
        let dur = ev.cycles() as f64 / mhz;
        push_event(
            &mut out,
            &mut first,
            'X',
            tid_of(ev.track),
            ev.stage.name(),
            &format!(
                ", \"cat\": \"{}\", \"ts\": {ts:.4}, \"dur\": {dur:.4}, \
                 \"args\": {{\"req\": {}, \"cycles\": {}}}",
                ev.track.label(),
                ev.req.0,
                ev.cycles()
            ),
        );
    }
    out.push_str("\n  ]\n}\n");
    w.write_all(out.as_bytes())
}

/// Validates that `text` is well-formed JSON whose top-level object
/// has a `traceEvents` array, returning the number of events in that
/// array — the workspace is dependency-free, so CI and the tests
/// validate the exporter with the workspace's own [`Json`] reader
/// instead of a JSON crate.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax problem,
/// of a non-object top level, or of a missing `traceEvents` array.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("top level must be an object".into());
    }
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .map(<[Json]>::len)
        .ok_or_else(|| "no traceEvents array at the top level".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(req: u64, stage: Stage, track: Track, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            req: RequestId(req),
            stage,
            track,
            start: Cycle(start),
            end: Cycle(end),
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.config().enabled);
        assert!(!t.wants_windows());
        assert_eq!(t.next_request(), RequestId::UNTRACED);
        assert_eq!(t.next_request(), RequestId::UNTRACED, "no counter consumed");
        t.record(ev(1, Stage::TlbLookup, Track::Node(0), 0, 5));
        t.begin(RequestId(7));
        t.span(Stage::PtWalk, Track::Node(0), Cycle(5), Cycle(9));
        t.sample(Cycle(10), WindowSample::default());
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.retained(), 0);
        assert!(t.breakdown().is_empty());
        assert!(t.series().samples().is_empty());
    }

    #[test]
    fn request_ids_are_sequential_and_tagged() {
        let mut t = Tracer::new(TraceConfig::full());
        let a = t.next_request();
        let b = t.next_request();
        assert_eq!(a, RequestId(1));
        assert_eq!(b, RequestId(2));
        assert!(a.is_traced());
        assert_eq!(t.requests_issued(), 2);
        // Spans carry the in-flight request set by `begin`.
        t.begin(b);
        t.span(Stage::TlbLookup, Track::Node(0), Cycle(0), Cycle(2));
        t.begin(a);
        t.span(Stage::PtWalk, Track::Node(0), Cycle(2), Cycle(9));
        let reqs: Vec<RequestId> = t.events().map(|e| e.req).collect();
        assert_eq!(reqs, vec![b, a]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_accounts() {
        let cfg = TraceConfig::full().with_ring_capacity(3);
        let mut t = Tracer::new(cfg);
        for i in 0..5u64 {
            t.record(ev(
                i + 1,
                Stage::NvmAccess,
                Track::Nvm(0),
                i * 10,
                i * 10 + 1,
            ));
        }
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.retained(), 3);
        let kept: Vec<u64> = t.events().map(|e| e.req.0).collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest events are overwritten first");
        // Breakdown still sees every event, dropped or not.
        assert_eq!(t.breakdown().stage(Stage::NvmAccess).count(), 5);
    }

    #[test]
    fn breakdown_only_mode_retains_nothing() {
        let mut t = Tracer::new(TraceConfig::breakdown_only());
        t.record(ev(1, Stage::FabricSend, Track::Fabric(1), 0, 100));
        assert_eq!(t.retained(), 0);
        assert_eq!(t.dropped(), 0, "no ring means no overflow to account");
        assert_eq!(t.recorded(), 1);
        assert_eq!(t.breakdown().stage(Stage::FabricSend).count(), 1);
    }

    #[test]
    fn breakdowns_aggregate_per_node_and_device() {
        let mut t = Tracer::new(TraceConfig::breakdown_only());
        t.record(ev(1, Stage::TlbLookup, Track::Node(0), 0, 2));
        t.record(ev(1, Stage::StuWalk, Track::Stu(0), 2, 12));
        t.record(ev(2, Stage::TlbLookup, Track::Node(1), 0, 4));
        t.record(ev(1, Stage::NvmAccess, Track::Nvm(0), 12, 42));
        let run = t.breakdown();
        assert_eq!(run.total_samples(), 4);
        assert_eq!(run.stage(Stage::TlbLookup).count(), 2);
        assert_eq!(run.stage(Stage::TlbLookup).max(), 4);
        assert_eq!(run.stage(Stage::NvmAccess).sum(), 30);
    }

    #[test]
    fn window_series_buckets_by_completion() {
        let cfg = TraceConfig::full().with_window_cycles(100);
        let mut t = Tracer::new(cfg);
        let s = |i: u64| WindowSample {
            instructions: i,
            fam_at: 1,
            fam_total: 2,
            ..WindowSample::default()
        };
        t.sample(Cycle(10), s(5));
        t.sample(Cycle(90), s(7));
        t.sample(Cycle(250), s(1));
        let windows = t.series().samples();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].instructions, 12);
        assert_eq!(windows[1].instructions, 0, "empty window present");
        assert_eq!(windows[2].instructions, 1);
        assert!((windows[0].at_percent() - 50.0).abs() < 1e-12);
        assert!((windows[0].ipc(100) - 0.12).abs() < 1e-12);
        assert_eq!(t.series().clipped(), 0);
    }

    #[test]
    fn stage_roster_is_dense_and_named() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Stage::COUNT, 12);
    }

    #[test]
    fn chrome_trace_is_valid_and_counts_events() {
        let mut t = Tracer::new(TraceConfig::full());
        t.record(ev(1, Stage::FabricSend, Track::Fabric(0), 0, 1000));
        t.record(ev(1, Stage::NvmAccess, Track::Nvm(0), 1000, 1120));
        t.record(ev(1, Stage::FabricRecv, Track::Fabric(0), 1120, 2120));
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t, 2000).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // 1 process_name + 2 thread_name metadata + 3 "X" events.
        assert_eq!(validate_chrome_json(&text).unwrap(), 6);
        assert!(text.contains("\"name\": \"fabric0\""));
        assert!(text.contains("\"name\": \"nvm0\""));
        // 1000 cycles at 2 GHz = 0.5 us.
        assert!(text.contains("\"ts\": 0.0000, \"dur\": 0.5000"));
    }

    #[test]
    fn validator_accepts_general_json_and_rejects_garbage() {
        assert_eq!(
            validate_chrome_json(
                "{\"traceEvents\": [], \"x\": [1, -2.5e3, true, null, \"s\\\"t\"]}"
            )
            .unwrap(),
            0
        );
        assert!(validate_chrome_json("{\"traceEvents\": [}").is_err());
        assert!(validate_chrome_json("{}").is_err(), "traceEvents required");
        assert!(validate_chrome_json("[1, 2]").is_err(), "must be an object");
        assert!(validate_chrome_json("{\"a\": 1} junk").is_err());
        assert!(validate_chrome_json("{\"a\": \"unterminated").is_err());
    }

    #[test]
    fn event_span_arithmetic() {
        let e = ev(9, Stage::Backoff, Track::Fabric(3), 40, 100);
        assert_eq!(e.cycles(), 60);
        assert_eq!(e.track.to_string(), "fabric3");
        assert_eq!(e.req.to_string(), "req 9");
    }
}
