//! T8 bench: static-analyzer cost per image size.
//!
//! Measures the full `flexprot-verify` pass (flow recovery, the five
//! structural checks, and the dataflow stack — CFG, dominators, liveness,
//! coverage, surface map) over protected workloads of increasing text
//! size, so regressions in the worklist framework show up as wall-clock.

use flexprot_bench::micro::{black_box, Bench};
use flexprot_core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot_verify::LintPolicy;

fn bench(c: &mut Bench) {
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig {
            key: 0x0BAD_C0DE_CAFE_F00D,
            ..GuardConfig::with_density(1.0)
        })
        .with_encryption(EncryptConfig::whole_program(0x5EED_5EED_5EED_5EED));
    // Small, medium and large kernels, so the scaling of the analyses is
    // visible across one run of the bench.
    for name in ["rle", "fir", "callgrid"] {
        let image = flexprot_workloads::by_name(name).expect("kernel").image();
        let protected = protect(&image, &config, None).expect("protect");
        let words = protected.image.text.len();
        c.bench_function(&format!("t8/verify_{name}_{words}w"), |b| {
            b.iter(|| {
                flexprot_verify::analyze(
                    black_box(&protected.image),
                    black_box(&protected.secmon),
                    &LintPolicy::default(),
                )
            })
        });
        c.bench_function(&format!("t8/surface_{name}_{words}w"), |b| {
            b.iter(|| {
                flexprot_verify::analyze(
                    black_box(&protected.image),
                    black_box(&protected.secmon),
                    &LintPolicy::default(),
                )
                .surface
            })
        });
    }
}

fn main() {
    bench(&mut Bench::new());
}
