//! Every command-line tool reports a closed standard output as an error
//! exit with a one-line message instead of panicking: each binary is
//! spawned with its stdout on a pipe whose read end is already closed,
//! so the first write fails with a broken pipe.

use std::io::pipe;
use std::process::{Command, Stdio};

/// Runs `bin args…` with a closed stdout and checks it failed cleanly.
fn assert_closed_stdout_is_an_error(bin: &str, args: &[&str]) {
    let (reader, writer) = pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{bin} panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
    assert!(stderr.contains("cannot write output"), "{bin}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{bin}: {stderr}");
}

fn script(name: &str) -> String {
    format!("{}/examples/scripts/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn mrom_top_reports_a_closed_stdout() {
    assert_closed_stdout_is_an_error(env!("CARGO_BIN_EXE_mrom-top"), &["--snapshot"]);
}

#[test]
fn mrom_lint_reports_a_closed_stdout() {
    let path = script("sum_args.mrs");
    assert_closed_stdout_is_an_error(env!("CARGO_BIN_EXE_mrom-lint"), &[&path]);
}

#[test]
fn mromc_reports_a_closed_stdout() {
    let path = script("sum_args.mrs");
    assert_closed_stdout_is_an_error(env!("CARGO_BIN_EXE_mromc"), &["check", &path]);
}
