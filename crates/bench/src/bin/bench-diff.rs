//! `bench-diff` — compares two microbench JSON artifacts and fails on
//! performance regressions.
//!
//! ```text
//! bench-diff <baseline.json> <current.json>
//!            [--report <out.md>] [--tolerance X]
//!            [--throughput-floor X]
//! ```
//!
//! Exit status: 0 when every entry and gate is within tolerance, 1 on
//! any regression (or a missing entry), 2 on usage/IO errors. The
//! markdown comparison always prints to stdout; `--report` also writes
//! it to a file for a CI artifact. Tolerances and the noise-floor
//! rules are documented on [`fam_bench::diff`].
//!
//! CI runs this against the committed `BENCH_baseline.json` after
//! every release build:
//!
//! ```sh
//! cargo run --release -p fam-bench --bin microbench -- --out BENCH_fresh.json
//! cargo run --release -p fam-bench --bin bench-diff -- \
//!     BENCH_baseline.json BENCH_fresh.json --report bench-diff.md
//! ```

use std::process::ExitCode;

use fam_bench::diff::{diff, DiffConfig};
use fam_sim::json::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff <baseline.json> <current.json> \
         [--report <out.md>] [--tolerance X] [--throughput-floor X]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    Json::parse(&text).map_err(|e| {
        eprintln!("bench-diff: {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut report_path = None;
    let mut cfg = DiffConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => match it.next() {
                Some(p) => report_path = Some(p.clone()),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(x) if x > 1.0 => cfg.tolerance = x,
                _ => return usage(),
            },
            "--throughput-floor" => match it.next().and_then(|v| v.parse().ok()) {
                Some(x) if (0.0..=1.0).contains(&x) => cfg.throughput_floor = x,
                _ => return usage(),
            },
            _ if arg.starts_with("--") => return usage(),
            _ => paths.push(arg.clone()),
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return usage();
    };
    let base = match load(base_path) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let new = match load(new_path) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let report = diff(&base, &new, &cfg);
    let md = report.to_markdown();
    print!("{md}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("bench-diff: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-diff: regression detected ({new_path} vs {base_path})");
        ExitCode::FAILURE
    }
}
