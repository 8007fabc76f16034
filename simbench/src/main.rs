//! End-to-end and per-layer benchmark of the DeACT simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <translate|stream|scale-out> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each round builds, runs and audits every simulation of the chosen
//! workload through the public entry points `System::new` →
//! `System::try_run` → `System::metrics`/`System::audit`, single
//! threaded on the default engine. Rounds repeat, in blocks over the
//! seed's sub-seeds, for about `--seconds` of host time, and every
//! timing is the median over rounds.
//!
//! `--trace 0` reports the end-to-end metrics with tracing and the
//! profiler off. `--trace 1` alternates untraced rounds with traced
//! ones (host profiler plus the breakdown-only tracer) and reports the
//! per-layer table. The last line of standard output is one JSON
//! object; the lines before it are for people.

mod layers;
mod spec;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use deact::{RunReport, System, TraceConfig};
use fam_sim::profile;
use fam_sim::Registry;
use fam_workloads::{RefBatch, Workload};

use spec::Spec;

/// Inputs drawn from one `--seed`: round `r` simulates sub-seed
/// `SUB_SEEDS × seed + r % SUB_SEEDS`, and rounds run in whole blocks of
/// `SUB_SEEDS`, so every figure weighs each input alike. Averaging over
/// several inputs damps how much one seed's address streams move host
/// time.
const SUB_SEEDS: usize = 4;

/// The seed round `round` passes to the simulator.
fn sub_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((round % SUB_SEEDS) as u64)
}

const USAGE: &str =
    "usage: deact-simbench --workload <translate|stream|scale-out> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    Spec::by_name(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one simulation run produced, with the benchmark's own spans
/// around each public call.
pub struct Run {
    /// `benchmark/scheme`.
    pub label: String,
    /// Host seconds inside `System::new`.
    pub setup_s: f64,
    /// Host seconds inside `System::try_run`.
    pub run_s: f64,
    /// Host seconds inside `System::metrics` plus `System::audit`.
    pub audit_s: f64,
    /// References the run was asked to retire.
    pub refs: u64,
    /// The run's results, or why it failed.
    pub outcome: Result<Done, String>,
}

/// A run that returned `Ok` and passed the audit.
pub struct Done {
    pub report: RunReport,
    pub metrics: Registry,
    /// STU lookups (accesses vetted), summed over every STU.
    pub stu_lookups: u64,
}

fn run_one(spec: &Spec, bench: &str, scheme: deact::Scheme, seed: u64, traced: bool) -> Run {
    let workload = Workload::by_name(bench).expect("every workload names Table III benchmarks");
    let mut config = spec.config(scheme, seed);
    if traced {
        config = config.with_trace(TraceConfig::breakdown_only());
    }
    let t = Instant::now();
    let mut sys = System::new(config, &workload);
    let setup_s = t.elapsed().as_secs_f64();

    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let t = Instant::now();
    let result = sys.try_run();
    let run_s = t.elapsed().as_secs_f64();
    profile::set_enabled(false);

    let t = Instant::now();
    let metrics = sys.metrics();
    let audit = sys.audit();
    let audit_s = t.elapsed().as_secs_f64();

    let outcome = match result {
        Err(e) => Err(format!("run error: {e}")),
        Ok(_) if !audit.passed() => Err(audit
            .failures()
            .map(|c| format!("audit check {} failed: {}", c.name, c.detail))
            .collect::<Vec<_>>()
            .join("; ")),
        Ok(report) => Ok(Done {
            report,
            metrics,
            stu_lookups: sys
                .stus()
                .iter()
                .map(|s| s.stats().verifications.value())
                .sum(),
        }),
    };
    Run {
        label: format!("{bench}/{scheme}"),
        setup_s,
        run_s,
        audit_s,
        refs: spec.refs_per_run(),
        outcome,
    }
}

fn run_round(spec: &Spec, seed: u64, traced: bool) -> Vec<Run> {
    spec.runs
        .iter()
        .map(|&(bench, scheme)| run_one(spec, bench, scheme, seed, traced))
        .collect()
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the `Debug` text of every `PartialEq`-visible report
/// field. `f64` fields print their shortest round-trip form, so any
/// change to a compared field changes the digest.
pub fn digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.fast_path_coverage = 0.0;
    r.parallel_phase_coverage = 0.0;
    r.profile = fam_sim::ProfileReport::new();
    fnv1a(format!("{r:?}").bytes())
}

/// Host seconds to draw every core's references of one round through
/// `RefBatch::refill`/`pop`, the way the engine stages them, outside
/// the engine. Returns the time and the references drawn.
fn drain_generators(spec: &Spec, seed: u64) -> (f64, u64) {
    let mut elapsed = Duration::ZERO;
    let mut drawn = 0u64;
    for &(bench, scheme) in spec.runs {
        let workload = Workload::by_name(bench).expect("every workload names Table III benchmarks");
        let mut streams = System::synthetic_streams(&spec.config(scheme, seed), &workload);
        let t = Instant::now();
        let mut check = 0u64;
        for stream in streams.iter_mut().flatten() {
            let mut batch = RefBatch::new();
            for _ in 0..spec.refs_per_core {
                let r = match batch.pop() {
                    Some(r) => r,
                    None => {
                        batch.refill(stream, RefBatch::DEFAULT_LEN);
                        batch.pop().expect("a refill yields references")
                    }
                };
                check = check.wrapping_add(r.vaddr.0 ^ u64::from(r.gap_instrs));
                drawn += 1;
            }
        }
        std::hint::black_box(check);
        elapsed += t.elapsed();
    }
    (elapsed.as_secs_f64(), drawn)
}

/// The median of `values` (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Correctness bookkeeping over every run of the invocation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Digest of each run slot in the first round of each sub-seed
    /// (`None` for a failed run), for the later rounds to match.
    digests: Vec<Vec<Option<u64>>>,
    /// Problems that make the output incorrect without failing a run.
    problems: Vec<String>,
}

impl Checks {
    /// Counts the round's runs and checks each report against the
    /// first round's of the same sub-seed (so bit-identical).
    fn untraced_round(&mut self, index: usize, round: &[Run]) {
        let digests: Vec<Option<u64>> = round
            .iter()
            .map(|r| r.outcome.as_ref().ok().map(|d| digest(&d.report)))
            .collect();
        for run in round {
            self.attempted += 1;
            if let Err(why) = &run.outcome {
                self.failed += 1;
                self.problem(format!("{}: {why}", run.label));
            }
        }
        if index < SUB_SEEDS {
            self.digests.push(digests);
            return;
        }
        let firsts = self.digests[index % SUB_SEEDS].clone();
        for (i, run) in round.iter().enumerate() {
            if let (Some(now), Some(first)) = (digests[i], firsts[i]) {
                if now != first {
                    self.problem(format!("{}: report differs between rounds", run.label));
                }
            }
        }
    }

    /// Counts a traced round's runs and checks that tracing and the
    /// profiler changed nothing but the latency breakdown.
    fn traced_round(&mut self, traced: &[Run], untraced: &[Run]) {
        for (t, u) in traced.iter().zip(untraced) {
            self.attempted += 1;
            match (&t.outcome, &u.outcome) {
                (Err(why), _) => {
                    self.failed += 1;
                    self.problem(format!("{} traced: {why}", t.label));
                }
                (Ok(t_done), Ok(u_done)) => {
                    let mut r = t_done.report.clone();
                    if r.latency.is_empty() {
                        self.problem(format!("{}: traced run has no latency breakdown", t.label));
                    }
                    r.latency = u_done.report.latency.clone();
                    if r != u_done.report {
                        self.problem(format!("{}: tracing changed the report", t.label));
                    }
                }
                (Ok(_), Err(_)) => {}
            }
        }
    }

    /// Records a problem once, however many rounds repeat it.
    fn problem(&mut self, what: String) {
        if !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }

    /// One digest over every run of every sub-seed: equal for two
    /// builds exactly when all their reports compare equal.
    fn workload_digest(&self) -> u64 {
        fnv1a(
            self.digests
                .iter()
                .flatten()
                .flat_map(|d| d.unwrap_or(0).to_le_bytes()),
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Prints the per-run results of one untraced round.
fn print_runs(spec: &Spec, seed: u64, round: &[Run]) {
    for run in round {
        if let Ok(done) = &run.outcome {
            let r = &done.report;
            println!(
                "run {:<14} seed={seed} refs={} sim_cycles={} sim_ipc={:.6} digest={:016x}",
                run.label,
                run.refs,
                r.cycles,
                r.ipc,
                digest(r)
            );
        }
    }
    if spec.name == "scale-out" {
        print_fig12(seed, round);
    }
}

/// `scale-out`'s DeACT-N performance normalised to E-FAM beside the
/// digitized Fig. 12 value. A diagnostic only: the paper measured a
/// different setup, and this model is not validated against hardware.
fn print_fig12(seed: u64, round: &[Run]) {
    let ipc = |label: &str| {
        round
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.outcome.as_ref().ok())
            .map(|d| d.report.ipc)
    };
    for bench in ["bc", "cc"] {
        let (Some(n), Some(e)) = (
            ipc(&format!("{bench}/DeACT-N")),
            ipc(&format!("{bench}/E-FAM")),
        ) else {
            continue;
        };
        let paper = fam_bench::paper::row(bench).map_or(f64::NAN, |p| p.fig12_n);
        println!(
            "fig12 {bench} seed={seed} DeACT-N/E-FAM simulated={:.3} paper={paper:.2} (diagnostic, not validated)",
            n / e
        );
    }
}

fn json_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; a metric that cannot be
            // computed reads `null`.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Whether to run another round: always inside a block of `SUB_SEEDS`
/// rounds, and at a block boundary only if another block, at the mean
/// block time so far, would end no later than half a block past the
/// `budget` in seconds. Runs then last about `budget` on average.
fn keep_going(rounds: usize, started: Instant, budget: u64) -> bool {
    if rounds == 0 || !rounds.is_multiple_of(SUB_SEEDS) {
        return true;
    }
    let spent = started.elapsed().as_secs_f64();
    let block = spent / rounds as f64 * SUB_SEEDS as f64;
    spent + block / 2.0 <= budget as f64
}

fn untraced(args: &Args) -> Result<String, String> {
    let spec = &args.spec;
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    // Refs retired and host seconds inside `try_run`, over every
    // successful run. The host's speed drifts in phases of tens of
    // seconds, and a ratio of totals weighs every phase by its length.
    let (mut refs, mut run_s) = (0u64, 0.0f64);
    let started = Instant::now();
    while keep_going(setup_s.len(), started, args.seconds) {
        let index = setup_s.len();
        let seed = sub_seed(args.seed, index);
        let round = run_round(spec, seed, false);
        checks.untraced_round(index, &round);
        if index < SUB_SEEDS {
            print_runs(spec, seed, &round);
        }
        for r in round.iter().filter(|r| r.outcome.is_ok()) {
            refs += r.refs;
            run_s += r.run_s;
        }
        setup_s.push(round.iter().map(|r| r.setup_s).sum());
        println!(
            "round {} setup_s={:.6} run_s=[{}]",
            index + 1,
            setup_s[index],
            round
                .iter()
                .map(|r| format!("{:.3}", r.run_s))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!("digest {} {:016x}", spec.name, checks.workload_digest());
    let pass_frac = (checks.attempted - checks.failed) as f64 / checks.attempted as f64;
    println!(
        "rounds={} fail_frac={:.4} ({} of {} runs failed)",
        setup_s.len(),
        1.0 - pass_frac,
        checks.failed,
        checks.attempted
    );
    for p in &checks.problems {
        println!("problem: {p}");
    }
    let metrics = [
        (
            "refs_per_s",
            "refs/s",
            refs as f64 / run_s.max(f64::MIN_POSITIVE),
        ),
        ("setup_s", "s", median(&setup_s)),
        ("peak_rss_mb", "MB", peak_rss_mb()?),
        ("pass_frac", "ratio", pass_frac),
    ];
    for (name, unit, value) in &metrics {
        println!("{name:<14} {value:>14.6} {unit}");
    }
    Ok(json_line(&checks, &metrics))
}

fn traced(args: &Args) -> Result<String, String> {
    let spec = &args.spec;
    let mut checks = Checks::default();
    let mut tables: Vec<Vec<layers::Row>> = Vec::new();
    let mut untraced_run_s = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while keep_going(rounds, started, args.seconds) {
        let seed = sub_seed(args.seed, rounds);
        let plain = run_round(spec, seed, false);
        checks.untraced_round(rounds, &plain);
        if rounds < SUB_SEEDS {
            print_runs(spec, seed, &plain);
        }
        rounds += 1;
        untraced_run_s.push(plain.iter().map(|r| r.run_s).sum::<f64>());
        let round = run_round(spec, seed, true);
        checks.traced_round(&round, &plain);
        let (drain_s, drawn) = drain_generators(spec, seed);
        let refs: u64 = round.iter().map(|r| r.refs).sum();
        if drawn != refs {
            checks.problem(format!("drained {drawn} references, simulated {refs}"));
        }
        if round.iter().all(|r| r.outcome.is_ok()) {
            tables.push(layers::table(&round, drain_s));
        }
    }
    println!("digest {} {:016x}", spec.name, checks.workload_digest());
    for p in &checks.problems {
        println!("problem: {p}");
    }
    if tables.is_empty() {
        return Ok(json_line(&checks, &[]));
    }
    let mut metrics: Vec<layers::Row> = tables[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = tables.iter().map(|t| t[i].2).collect();
            (name, unit, median(&values))
        })
        .collect();
    let run_s = metrics
        .iter()
        .find(|m| m.0 == "deact.run_s")
        .map_or(f64::NAN, |m| m.2);
    metrics.push(("profile.overhead", "ratio", run_s / median(&untraced_run_s)));
    println!("traced rounds={}", tables.len());
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    Ok(json_line(&checks, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
