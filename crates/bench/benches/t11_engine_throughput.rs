//! T11 bench: simulator throughput, predecoded engine vs the reference
//! interpreter.
//!
//! Runs the six protection-matrix programs ([`flexprot_exec::matrix`]:
//! three MiniC kernels, three assembly workloads) to completion under
//! full-density guards plus whole-program encryption on both simulator
//! cores and reports instructions per second and the speedup. The two
//! engines execute the identical committed-instruction stream (pinned by
//! the differential suites), so the wall-clock ratio is exactly the
//! throughput ratio.
//!
//! Not part of the `experiments` tables: wall time is machine-dependent
//! and must stay out of the deterministic CSV output that CI diffs.

use std::time::{Duration, Instant};

use flexprot_core::{
    protect, EncryptConfig, GuardConfig, Protected, ProtectionConfig, DEFAULT_ENC_KEY,
    DEFAULT_GUARD_KEY,
};
use flexprot_sim::{EngineKind, Outcome, SimConfig};

const SAMPLES: usize = 7;

/// Median wall time of a full run under `engine`, and the instruction
/// count (identical across engines by construction).
fn measure(protected: &Protected, engine: EngineKind) -> (Duration, u64) {
    let sim = SimConfig::default().with_engine(engine);
    let warm = protected.run(sim.clone());
    assert_eq!(warm.outcome, Outcome::Exit(0), "bench program must exit");
    let instructions = warm.stats.instructions;
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let r = protected.run(sim.clone());
            let elapsed = start.elapsed();
            assert_eq!(r.stats.instructions, instructions);
            elapsed
        })
        .collect();
    samples.sort_unstable();
    (samples[SAMPLES / 2], instructions)
}

fn main() {
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig {
            key: DEFAULT_GUARD_KEY,
            ..GuardConfig::with_density(1.0)
        })
        .with_encryption(EncryptConfig::whole_program(DEFAULT_ENC_KEY));
    println!(
        "{:<10} {:>12} {:>16} {:>16} {:>9}",
        "program", "insts", "reference i/s", "predecoded i/s", "speedup"
    );
    for (name, image) in flexprot_exec::matrix::programs() {
        let protected = protect(&image, &config, None).expect("protect");
        let (ref_time, insts) = measure(&protected, EngineKind::Reference);
        let (fast_time, _) = measure(&protected, EngineKind::Predecoded);
        let ips = |d: Duration| insts as f64 / d.as_secs_f64();
        let speedup = ref_time.as_secs_f64() / fast_time.as_secs_f64();
        println!(
            "{name:<10} {insts:>12} {:>16.0} {:>16.0} {speedup:>8.2}x",
            ips(ref_time),
            ips(fast_time),
        );
    }
}
