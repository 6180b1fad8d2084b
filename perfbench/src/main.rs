//! Layered benchmark of the flexprot pipeline.
//!
//! ```text
//! flexprot-perfbench --workload <loops|footprint|checked> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports what a user of the toolchain waits for
//! (see `endtoend`) plus the set-up time; with `--trace 1` it reports the
//! layers under them instead (see `layers`). Every output is checked
//! against the kernels' reference results. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod endtoend;
mod fixture;
mod layers;
mod report;

use std::process::ExitCode;
use std::time::Duration;

use report::Tally;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = fixture::spec(&args.workload) else {
        let names: Vec<&str> = fixture::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (expected one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };

    let cells = match fixture::setup(spec, args.seed) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let run = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::measure(args.seed, &cells, run, &mut tally)
    } else {
        endtoend::measure(spec, args.seed, &cells, run, &mut tally)
    };
    println!("{}", report::json_line(&tally, &metrics));
    ExitCode::SUCCESS
}
