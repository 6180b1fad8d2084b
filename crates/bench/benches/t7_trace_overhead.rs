//! T7 bench: cost of the observability layer.
//!
//! Compares the protected-run simulation wall clock with the event sink
//! detached (the shipping configuration — must be indistinguishable from
//! the pre-trace simulator, <2% regression) and attached (full metric
//! aggregation, then JSONL trace capture), so the price of `--metrics` is
//! measured, not guessed.
//!
//! Not part of the `experiments` tables: wall time is machine-dependent
//! and must stay out of the deterministic CSV output that CI diffs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flexprot_bench::{ENC_KEY, GUARD_KEY};
use flexprot_core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot_sim::{Outcome, SimConfig};
use flexprot_trace::Recorder;

const SAMPLES: usize = 11;

/// Median wall time of `run` over [`SAMPLES`] calls, after one warm-up.
fn median<R>(mut run: impl FnMut() -> R) -> Duration {
    black_box(run());
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(run());
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[SAMPLES / 2]
}

fn main() {
    let workload = flexprot_workloads::by_name("rle").expect("kernel");
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig {
            key: GUARD_KEY,
            ..GuardConfig::with_density(1.0)
        })
        .with_encryption(EncryptConfig::whole_program(ENC_KEY));
    let protected = protect(&workload.image(), &config, None).expect("protect");

    let detached = median(|| {
        let r = protected.run(SimConfig::default());
        assert_eq!(r.outcome, Outcome::Exit(0));
        r.stats.cycles
    });
    let attached = median(|| {
        let (sink, recorder) = Recorder::new().shared();
        let r = protected.run_traced(SimConfig::default(), &sink);
        assert_eq!(r.outcome, Outcome::Exit(0));
        let committed = recorder
            .borrow()
            .metrics()
            .counter("instructions_committed");
        (r.stats.cycles, committed)
    });
    let jsonl = median(|| {
        let (sink, recorder) = Recorder::with_trace().shared();
        let r = protected.run_traced(SimConfig::default(), &sink);
        assert_eq!(r.outcome, Outcome::Exit(0));
        let lines = recorder.borrow().trace_lines().len();
        (r.stats.cycles, lines)
    });

    println!("{:<16} {:>12} {:>9}", "sink", "median", "vs off");
    for (name, time) in [
        ("detached", detached),
        ("attached", attached),
        ("attached_jsonl", jsonl),
    ] {
        println!(
            "{name:<16} {:>9.1} µs {:>8.2}x",
            time.as_secs_f64() * 1e6,
            time.as_secs_f64() / detached.as_secs_f64(),
        );
    }
}
