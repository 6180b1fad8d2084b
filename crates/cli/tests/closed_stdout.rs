//! A driver whose standard output is closed before it writes (the reader,
//! say `head -1`, has gone) ends quietly: exit 0 and nothing on stderr,
//! not a "failed printing to stdout" panic with exit 101.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A scratch directory of this test file's own.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("flexprot-closed-stdout-tests");
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` with `args`, its stdout a pipe whose read end is already
/// closed, and requires a clean exit and an empty stderr.
fn assert_quiet_on_closed_stdout(exe: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn driver");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
    assert!(
        stderr.is_empty(),
        "{exe} {args:?} wrote to stderr: {stderr}"
    );
}

#[test]
fn report_drivers_end_quietly_on_a_closed_stdout() {
    let dir = scratch();
    let image = dir.join("rle.fpx");
    let image = image.to_str().unwrap();
    let workload = flexprot_workloads::by_name("rle").expect("kernel");
    fs::write(image, workload.image().to_bytes()).unwrap();

    assert_quiet_on_closed_stdout(env!("CARGO_BIN_EXE_fpobjdump"), &[image]);
    assert_quiet_on_closed_stdout(env!("CARGO_BIN_EXE_fplint"), &[image]);
    assert_quiet_on_closed_stdout(
        env!("CARGO_BIN_EXE_fpmatrix"),
        &["--programs", "collatz", "--jobs", "1"],
    );
}
