//! The `rhhh` binary as a shell runs it: exit codes and stdout, for the
//! cases that only show outside the process.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn rhhh(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rhhh"));
    cmd.args(args);
    cmd
}

/// A reader that stops after the first line (`rhhh … | head -1`) ends the
/// run with exit 0 and no panic, whatever the run writes after it.
#[test]
fn closing_stdout_after_one_line_exits_zero() {
    for args in [
        &["speed", "--packets", "20000"][..],
        &["analyze", "--packets", "20000", "--shards", "2"],
    ] {
        let mut child = rhhh(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rhhh");
        // The reader is a temporary: dropping it after one line closes the
        // pipe's read end.
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("read the first line");
        assert!(first.starts_with('#'), "{args:?}: {first}");
        let Output { status, stderr, .. } = child.wait_with_output().expect("wait for rhhh");
        let stderr = String::from_utf8_lossy(&stderr);
        assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A window shorter than ψ runs, and says its answer is unconverged,
/// in a debug build as in a release build.
#[test]
fn window_shorter_than_psi_runs_and_is_reported_unconverged() {
    let out = rhhh(&["analyze", "--packets", "30000", "--window", "20000"])
        .output()
        .expect("run rhhh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("# UNCONVERGED")),
        "{stdout}"
    );
}

/// An ε too small to size the counters is a flag error (exit 2) naming
/// the smallest accepted value, not a panic or an aborted allocation.
#[test]
fn epsilon_below_the_counter_floor_exits_two() {
    for eps in ["1e-9", "1e-300"] {
        for args in [
            &["analyze", "--packets", "20000", "--epsilon", eps][..],
            &[
                "analyze",
                "--packets",
                "20000",
                "--algorithm",
                "mst",
                "--epsilon",
                eps,
            ],
            &["speed", "--packets", "20000", "--epsilon", eps],
        ] {
            let out = rhhh(args).output().expect("run rhhh");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains("the smallest accepted value is 1/131071 ≈ 7.6295e-6"),
                "{args:?}: {stderr}"
            );
        }
    }
}
