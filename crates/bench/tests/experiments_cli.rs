//! The `experiments` binary refuses bad arguments and unwritable output
//! paths with exit code 2 before running any experiment.

use std::path::PathBuf;
use std::process::Command;

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed tables");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn unknown_only_id_is_a_usage_error_naming_the_known_ids() {
    let err = refused(&["--only", "T99", "--no-csv"]);
    assert!(err.contains("unknown experiment `T99`"), "{err}");
    assert!(err.contains("T1, T2, F1"), "{err}");
}

#[test]
fn zero_jobs_is_a_usage_error() {
    let err = refused(&["--jobs", "0", "--no-csv"]);
    assert!(err.contains("--jobs must be at least 1"), "{err}");
}

/// A scratch directory of this test file's own.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("flexprot-experiments-cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn metrics_into_a_directory_cannot_be_written() {
    let dir = scratch();
    let dir = dir.to_str().unwrap();
    let err = refused(&["--quick", "--no-csv", "--metrics", dir]);
    assert!(err.starts_with(&format!("cannot write {dir}: ")), "{err}");
}

#[test]
fn timings_into_a_directory_cannot_be_written() {
    let dir = scratch();
    let dir = dir.to_str().unwrap();
    let err = refused(&["--quick", "--no-csv", "--timings", dir]);
    assert!(err.starts_with(&format!("cannot write {dir}: ")), "{err}");
}

#[test]
fn csv_into_a_regular_file_cannot_be_written() {
    let file = scratch().join("not-a-directory.csv");
    std::fs::write(&file, "").unwrap();
    let file = file.to_str().unwrap();
    let err = refused(&["--quick", "--csv", file]);
    assert!(err.starts_with(&format!("cannot write {file}: ")), "{err}");
}
