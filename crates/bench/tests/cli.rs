//! Figure-binary environment handling: a `DEACT_REFS` the simulator
//! cannot run exits 1 with a one-line error instead of panicking in the
//! matrix workers (which used to hang the harness once every worker
//! had died).

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Long enough for a cold start on a loaded host, far shorter than a
/// hung harness.
const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn zero_refs_exits_1_with_one_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig03"))
        .env("DEACT_REFS", "0")
        .env("DEACT_JOBS", "4")
        .env_remove("RUST_BACKTRACE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fig03 runs");
    let started = Instant::now();
    while child.try_wait().expect("fig03 can be polled").is_none() {
        if started.elapsed() > DEADLINE {
            child.kill().expect("a hung fig03 can be killed");
            child.wait().expect("killed fig03 is reaped");
            panic!("fig03 with DEACT_REFS=0 still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("fig03 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("fam-bench: "), "{stderr}");
    assert!(stderr.contains("DEACT_REFS"), "{stderr}");
}
