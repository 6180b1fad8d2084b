//! Driver logic for the command-line toolchain.
//!
//! Each binary (`fpcc`, `fpasm`, `fpobjdump`, `fpprotect`, `fprun`,
//! `fplint`, `fpsweep`, `fpmatrix`) is a thin wrapper around a driver
//! function here,
//! so the full argument-parsing and I/O logic is unit-testable without
//! spawning processes.
//!
//! A complete protected build-and-run pipeline:
//!
//! ```text
//! fpasm program.s -o program.fpx
//! fpprotect program.fpx -o program.prot.fpx --secmon program.fpm \
//!           --density 0.5 --encrypt function
//! fplint program.prot.fpx --secmon program.fpm   # static self-check
//! fprun program.prot.fpx --secmon program.fpm --stats
//! fpobjdump program.prot.fpx          # ciphertext: mostly .word noise
//! ```
//!
//! `fpmatrix` runs the same static self-check over every cell of the
//! golden protection matrix in one pass and writes the surface, guard
//! network, refusal and translation-validation tables that CI pins:
//!
//! ```text
//! fpmatrix --jobs 4 --csv matrix/   # surface, guardnet, refusals, equiv .csv
//! ```
//!
//! The batch drivers (`fpsweep`, `fpmatrix` and the evaluation's
//! `experiments` binary in `flexprot-bench`) share one option block,
//! [`BatchOpts`], parsed by [`args::parse`]: `--jobs N`, `--csv <dir>`
//! (one `<id>.csv` per result [`Table`](flexprot_exec::Table)) and
//! `--metrics <out.json>`; `fprun` over several images takes its
//! `--jobs` and `--metrics`. Both outputs are created before any work.
//!
//! Every binary writes its report through [`print_report`], so a reader
//! that stops early (`fpobjdump program.fpx | head -1`) ends the driver
//! quietly instead of with a panic.

pub mod args;
pub mod drivers;

use std::io::{ErrorKind, Write};

pub use drivers::{
    fpasm, fpcc, fplint, fpmatrix, fpobjdump, fpprotect, fprun, fpsweep, BatchOpts, CliError,
    LintSummary, Output, RunSummary,
};

/// Writes `driver`'s report to standard output and flushes it.
///
/// A closed standard output (`BrokenPipe`: the reader, say `head -1`,
/// has taken all it wants and gone) ends the report quietly, and the
/// driver goes on to exit with its own code. Any other write error
/// prints `<driver>: cannot write standard output: <error>` and exits 2.
pub fn print_report(driver: &str, report: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(report.as_bytes()).and_then(|()| out.flush()) {
        Err(err) if err.kind() != ErrorKind::BrokenPipe => {
            eprintln!("{driver}: cannot write standard output: {err}");
            std::process::exit(2);
        }
        _ => {}
    }
}
