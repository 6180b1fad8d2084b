//! T7 bench: cost of the observability layer.
//!
//! Compares the protected-run simulation wall clock in three modes: with
//! no sink attached (the shipping configuration), the same run followed
//! by `Machine::metrics` (the price of `--metrics`, built from the
//! counters the run keeps anyway), and a run with a JSONL trace capture
//! attached (the price of `--trace`). So the cost of observability is
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
    let metrics = median(|| {
        let mut machine = protected.machine(SimConfig::default());
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        let committed = machine.metrics().counter("instructions_committed");
        (r.stats.cycles, committed)
    });
    let jsonl = median(|| {
        let (sink, recorder) = Recorder::with_trace().shared();
        let mut machine = protected.machine(SimConfig::default());
        machine.monitor_mut().attach_sink(sink.clone());
        machine.attach_sink(sink);
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        let lines = recorder.borrow().trace_lines().len();
        (r.stats.cycles, lines)
    });

    println!("{:<16} {:>12} {:>9}", "mode", "median", "vs off");
    for (name, time) in [
        ("detached", detached),
        ("metrics", metrics),
        ("jsonl_capture", jsonl),
    ] {
        println!(
            "{name:<16} {:>9.1} µs {:>8.2}x",
            time.as_secs_f64() * 1e6,
            time.as_secs_f64() / detached.as_secs_f64(),
        );
    }
}
