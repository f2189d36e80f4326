//! End-to-end checks of the `mcsim` binary: bad input is a usage error
//! (exit 1, message on stderr), never a panic, and `matrix` reproduces
//! the paper's Example 1 cycle counts.

use std::process::{Command, Output};

fn mcsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsim"))
        .args(args)
        .output()
        .expect("mcsim runs")
}

/// Asserts a usage error: exit code 1, `expected` on stderr, no panic.
fn assert_usage_error(args: &[&str], expected: &str) {
    let out = mcsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    assert_usage_error(
        &["run", "--workload", "bogus"],
        "unknown workload `bogus` (try figure5, example1",
    );
    assert_usage_error(
        &["matrix", "--workload", "ticket-lock:0"],
        "bad workload parameter `0` in `ticket-lock:0`",
    );
}

#[test]
fn out_of_range_miss_and_rob_are_usage_errors() {
    for miss in ["0", "2", "3"] {
        assert_usage_error(
            &["run", "--workload", "example1", "--miss", miss],
            "--miss must be even and >= 4",
        );
    }
    assert_usage_error(
        &["run", "--workload", "example1", "--rob", "1"],
        "--rob must be >= 2",
    );
}

#[test]
fn matrix_reproduces_example1_cycle_counts() {
    let out = mcsim(&["matrix", "--workload", "example1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let sc: Vec<&str> = stdout
        .lines()
        .find(|l| l.starts_with("SC "))
        .unwrap_or_else(|| panic!("no SC row:\n{stdout}"))
        .split_whitespace()
        .collect();
    // Columns: model, base, spec, prefetch, pf+spec, speedup.
    assert_eq!(sc[1], "301", "SC base:\n{stdout}");
    assert_eq!(sc[4], "103", "SC pf+spec:\n{stdout}");
}
