//! Regenerates every table and figure of the evaluation.
//!
//! ```text
//! cargo run --release -p flexprot-bench --bin experiments [-- OPTIONS]
//!
//! Options:
//!   --quick           reduced workloads/trials (CI smoke run)
//!   --only <ID>       print and write a single table (T1..T6, T9, T10, T12, T13, F1..F6)
//!   --jobs <N>        worker threads, at least 1 (default: FLEXPROT_JOBS or CPU count)
//!   --csv <DIR>       write one CSV per table into DIR (`--csv results`
//!                     regenerates the committed tables)
//!   --metrics <PATH>  write the engine's aggregate metrics JSON to PATH
//!   --timings <PATH>  write per-runner wall time (CSV: table,seconds) to PATH
//! ```
//!
//! `--jobs`, `--csv` and `--metrics` are the batch option block the CLI
//! drivers share ([`flexprot_cli::BatchOpts`]), parsed by the same
//! [`flexprot_cli::args::parse`]; without `--csv` no file is written.
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

use flexprot_bench::{Params, EXPERIMENTS};
use flexprot_cli::args::parse;
use flexprot_cli::{BatchOpts, CliError, Output};
use flexprot_exec::Engine;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = run(&args) {
        eprintln!("{err}");
        std::process::exit(2);
    }
}

fn run(raw_args: &[String]) -> Result<(), CliError> {
    let mut valued = vec!["only", "timings"];
    valued.extend(BatchOpts::VALUED);
    let args = parse(raw_args, &valued, &["quick"])?;
    if let Some(arg) = args.positional.first() {
        return Err(CliError(format!("unexpected argument `{arg}`")));
    }
    let only = args.value("only");
    let known = || EXPERIMENTS.iter().flat_map(|(ids, _)| ids.iter().copied());
    if let Some(filter) = only {
        if !known().any(|id| id.eq_ignore_ascii_case(filter)) {
            let ids: Vec<&str> = known().collect();
            return Err(CliError(format!(
                "--only: unknown experiment `{filter}` (known: {})",
                ids.join(", ")
            )));
        }
    }
    let batch = BatchOpts::from_args(&args)?;
    let timings_file = args.value("timings").map(Output::create).transpose()?;

    let params = Params {
        quick: args.has("quick"),
    };
    let engine = Engine::new(batch.workers);
    let wanted = |id: &str| only.is_none_or(|filter| filter.eq_ignore_ascii_case(id));

    let wall = std::time::Instant::now();
    let mut timings = String::from("table,seconds\n");
    for (ids, runner) in EXPERIMENTS {
        if !ids.iter().any(|id| wanted(id)) {
            continue;
        }
        let start = std::time::Instant::now();
        let tables = runner(&params, &engine);
        let secs = start.elapsed().as_secs_f64();
        let label = ids.join("+");
        for table in tables.iter().filter(|table| wanted(table.id)) {
            println!("{table}");
            if let Some(path) = batch.save_csv(table)? {
                eprintln!("wrote {}", path.display());
            }
        }
        eprintln!("({label} finished in {secs:.1}s)");
        timings.push_str(&format!("{label},{secs:.3}\n"));
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
    if let Some(file) = timings_file {
        timings.push_str(&format!("total,{:.3}\n", wall.elapsed().as_secs_f64()));
        file.write(&timings)?;
    }
    batch.write_metrics(&engine)
}
