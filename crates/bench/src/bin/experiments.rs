//! Regenerates every table and figure of the evaluation.
//!
//! ```text
//! cargo run --release -p flexprot-bench --bin experiments [-- OPTIONS]
//!
//! Options:
//!   --quick           reduced workloads/trials (CI smoke run)
//!   --only <ID>       print and write a single table (T1..T6, T9, T10, T12, T13, F1..F6)
//!   --jobs <N>        worker threads, at least 1 (default: FLEXPROT_JOBS or CPU count)
//!   --csv <DIR>       write one CSV per table into DIR (default: results)
//!   --no-csv          skip CSV output
//!   --metrics <PATH>  write the engine's aggregate metrics JSON to PATH
//!   --timings <PATH>  write per-runner wall time (CSV: table,seconds) to PATH
//! ```
//!
//! The experiments come from the [`flexprot_bench::EXPERIMENTS`] registry;
//! an `--only` id outside it, like `--jobs 0`, is a usage error (exit 2).
//! Tables projected from one campaign share a runner (T3 and T9 read one
//! attack campaign, T12 and T13 one cross-check campaign), so `--only T9`
//! runs the whole T3 campaign but prints and writes only T9, and
//! `--timings` records a shared runner once under its joined ids
//! (`T3+T9`).
//!
//! Tables go to stdout; timing and engine summaries go to stderr, so
//! stdout is diff-clean across `--jobs` values (the engine guarantees
//! identical tables and metrics whatever the worker count). `--timings`
//! deliberately takes its own path rather than landing in the `--csv`
//! directory: wall times are machine-dependent and must never leak into
//! the deterministic table output that CI diffs.
//!
//! The CSV directory is created and the `--metrics` and `--timings`
//! files are opened before the first experiment runs, so an unwritable
//! output path costs no run. Any write failure, then or later, is
//! reported as `cannot write <path>: …` with exit code 2.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;

use flexprot_bench::{Params, EXPERIMENTS};
use flexprot_exec::Engine;

/// Reports a usage error and exits with code 2.
fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Reports an output that cannot be written and exits with code 2.
fn cannot_write(path: impl Display, error: io::Error) -> ! {
    usage(&format!("cannot write {path}: {error}"))
}

/// Creates the file at `path`, if one was asked for.
fn open_output(path: Option<String>) -> Option<(String, File)> {
    path.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => cannot_write(path, e),
    })
}

/// Writes `text` to an output opened by [`open_output`].
fn write_output(output: Option<(String, File)>, text: impl FnOnce() -> String) {
    if let Some((path, mut file)) = output {
        if let Err(e) = file.write_all(text().as_bytes()) {
            cannot_write(path, e);
        }
        eprintln!("wrote {path}");
    }
}

/// Parses the value following `option`; a missing or malformed value is a
/// usage error.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, option: &str, what: &str) -> T {
    match args.next().map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage(&format!("{option} requires {what}")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut csv_dir: Option<String> = Some("results".to_owned());
    let mut jobs: Option<usize> = None;
    let mut metrics_path: Option<String> = None;
    let mut timings_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => only = Some(value(&mut args, &arg, "an experiment id")),
            "--jobs" => jobs = Some(value(&mut args, &arg, "a worker count")),
            "--csv" => csv_dir = Some(value(&mut args, &arg, "a directory")),
            "--no-csv" => csv_dir = None,
            "--metrics" => metrics_path = Some(value(&mut args, &arg, "a path")),
            "--timings" => timings_path = Some(value(&mut args, &arg, "a path")),
            other => usage(&format!("unknown option `{other}`")),
        }
    }
    if jobs == Some(0) {
        usage("--jobs must be at least 1 (omit it for the default)");
    }
    let known = || EXPERIMENTS.iter().flat_map(|(ids, _)| ids.iter().copied());
    if let Some(filter) = &only {
        if !known().any(|id| id.eq_ignore_ascii_case(filter)) {
            let ids: Vec<&str> = known().collect();
            usage(&format!(
                "--only: unknown experiment `{filter}` (known: {})",
                ids.join(", ")
            ));
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            cannot_write(dir, e);
        }
    }
    let timings_file = open_output(timings_path);
    let metrics_file = open_output(metrics_path);

    let params = Params { quick };
    let engine = match jobs {
        Some(n) => Engine::new(n),
        None => Engine::with_default_jobs(),
    };
    let wanted = |id: &str| {
        only.as_ref()
            .is_none_or(|filter| filter.eq_ignore_ascii_case(id))
    };

    let wall = std::time::Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for (ids, runner) in EXPERIMENTS {
        if !ids.iter().any(|id| wanted(id)) {
            continue;
        }
        let start = std::time::Instant::now();
        let tables = runner.run(&params, &engine);
        let secs = start.elapsed().as_secs_f64();
        let label = ids.join("+");
        for table in tables.iter().filter(|table| wanted(table.id)) {
            println!("{table}");
            if let Some(dir) = csv_dir.as_deref().map(Path::new) {
                match table.save_csv(dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => cannot_write(table.csv_path(dir).display(), e),
                }
            }
        }
        eprintln!("({label} finished in {secs:.1}s)");
        timings.push((label, secs));
    }

    let stats = engine.cache().stats();
    eprintln!(
        "engine: {} workers, {} jobs, cache {} hits / {} misses, {:.1}s total",
        engine.workers(),
        engine.metrics().counter("exec_jobs_completed"),
        stats.hits,
        stats.misses,
        wall.elapsed().as_secs_f64()
    );
    write_output(timings_file, || {
        let mut out = String::from("table,seconds\n");
        for (id, secs) in &timings {
            out.push_str(&format!("{id},{secs:.3}\n"));
        }
        out.push_str(&format!("total,{:.3}\n", wall.elapsed().as_secs_f64()));
        out
    });
    write_output(metrics_file, || engine.metrics().to_json() + "\n");
}
