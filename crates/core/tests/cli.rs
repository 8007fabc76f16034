//! `deact-sim` argument handling: values the simulator cannot run exit
//! 1 with a one-line error, never a panic, and retired flags are
//! rejected with the usage text.

use std::process::{Command, Output};

fn deact_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deact-sim"))
        .args(args)
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("deact-sim runs")
}

#[test]
fn zero_counts_exit_1_with_one_line() {
    for (flag, value) in [
        ("--refs", "0"),
        ("--nodes", "0"),
        ("--fam-modules", "0"),
        ("--stu-entries", "0"),
        ("--stu-entries", "3"),
    ] {
        let out = deact_sim(&["run", "sssp", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("deact-sim: "),
            "{flag} {value}: {stderr}"
        );
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: nothing ran");
    }
}

#[test]
fn degenerate_counts_are_rejected_by_every_subcommand() {
    for sub in ["trace", "profile", "audit", "record"] {
        let out = deact_sim(&[sub, "sssp", "--refs", "0"]);
        assert_eq!(out.status.code(), Some(1), "{sub}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).lines().count(),
            1,
            "{sub}"
        );
    }
    let out = deact_sim(&["compare", "sssp", "--nodes", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&out.stderr).lines().count(), 1);
}

#[test]
fn out_of_range_kill_node_is_one_line() {
    let out = deact_sim(&["run", "sssp", "--refs", "10", "--kill-node", "3@5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--kill-node"), "{stderr}");
}

#[test]
fn malformed_and_unknown_flags_print_usage() {
    for args in [
        &["run", "sssp", "--refs", "many"][..],
        &["run", "sssp", "--sim-threads", "2"],
        &["record", "sssp", "--sim-threads", "2"],
        &["run", "sssp", "--refs"],
    ] {
        let out = deact_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:") || stderr.contains("positive integer"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_small_run_still_succeeds() {
    let out = deact_sim(&["run", "sssp", "--refs", "50", "--nodes", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nodes x cores    2 x 4"), "{stdout}");
}
