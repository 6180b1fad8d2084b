//! The `experiments` binary refuses bad arguments with exit code 2 before
//! running any experiment.

use std::process::Command;

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--no-csv")
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed tables");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn unknown_only_id_is_a_usage_error_naming_the_known_ids() {
    let err = refused(&["--only", "T99"]);
    assert!(err.contains("unknown experiment `T99`"), "{err}");
    assert!(err.contains("T1, T2, F1"), "{err}");
}

#[test]
fn zero_jobs_is_a_usage_error() {
    let err = refused(&["--jobs", "0"]);
    assert!(err.contains("--jobs must be at least 1"), "{err}");
}
