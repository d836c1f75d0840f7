//! `mrom-fleet` reports a closed standard output as an error exit with a
//! one-line message instead of panicking (for example when piped into
//! `head`).

use std::io::pipe;
use std::process::{Command, Stdio};

#[test]
fn mrom_fleet_reports_a_closed_stdout() {
    let (reader, writer) = pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_mrom-fleet"))
        .args("run --sites 4 --objects 4 --invocations 10".split(' '))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn mrom-fleet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write output"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
}
