//! The benchmark workloads and the set-up that turns a seed into inputs.
//!
//! A workload is a fixed set of kernels under one protection recipe. The
//! seed never changes how much work a workload does: it picks the guard
//! key, the guard salt seed and the cipher master key (the placement is
//! uniform, so guard sites do not move), and it seeds the attack
//! campaigns. Kernels carry their own inputs and a reference output.

use flexprot_attack::Attack;
use flexprot_core::{
    protect, EncryptConfig, Granularity, GuardConfig, Protected, ProtectionConfig,
};
use flexprot_isa::Image;
use flexprot_sim::{CacheConfig, Machine, Outcome, SimConfig};

/// One protection recipe over a fixed kernel set.
pub struct Spec {
    pub name: &'static str,
    pub kernels: &'static [&'static str],
    pub guard_density: f64,
    pub granularity: Granularity,
    pub icache: CacheConfig,
    /// Adds the key-flow and translation-validation post-conditions.
    pub post_checks: bool,
}

/// The attack families of every campaign. Each applies to any text (a
/// branch flip falls back to a bit flip), so no trial is skipped.
pub const ATTACKS: &[Attack] = &[
    Attack::BitFlip,
    Attack::InstrSub,
    Attack::NopOut,
    Attack::BranchFlip,
];

/// Trials per campaign, as in the full-fidelity attack campaigns of the
/// experiments (`flexprot_bench::Params::trials`): one campaign per kernel and family in a
/// round.
pub const TRIALS: u32 = 20;

const ICACHE: CacheConfig = CacheConfig {
    size_bytes: 4096,
    line_bytes: 32,
    ways: 2,
};

pub const SPECS: &[Spec] = &[
    // Small loop nests that fit the 4 KiB I-cache: after warm-up the fill
    // path is idle and the monitor's per-commit window hash dominates.
    Spec {
        name: "loops",
        kernels: &["fir", "hash", "bitcount", "strsearch"],
        guard_density: 1.0,
        granularity: Granularity::Program,
        icache: ICACHE,
        post_checks: false,
    },
    // Code larger than a 512-byte direct-mapped I-cache, per-block keys
    // and sparse guards: decode-cache refills and fill-path decryption
    // dominate the simulator.
    Spec {
        name: "footprint",
        kernels: &["callgrid", "dijkstra", "rle"],
        guard_density: 0.25,
        granularity: Granularity::Block,
        icache: CacheConfig {
            size_bytes: 512,
            line_bytes: 32,
            ways: 1,
        },
        post_checks: false,
    },
    // Both post-conditions on (key-flow taint and translation
    // validation), per-function keys: the verifier dominates protect.
    // Every kernel runs 16k-40k instructions: one kernel that runs ten
    // times longer than the rest (sieve runs 254k) would set the cost of
    // nearly every attack round and leave few rounds in a run.
    Spec {
        name: "checked",
        kernels: &["rle", "qsort", "matmul", "adpcm"],
        guard_density: 0.5,
        granularity: Granularity::Function,
        icache: ICACHE,
        post_checks: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64 over `(seed, a, b)`: independent streams from one seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kernel under the workload's recipe, protected and checked.
pub struct Cell {
    pub kernel: &'static str,
    pub image: Image,
    pub expected: String,
    pub config: ProtectionConfig,
    pub protected: Protected,
    /// The simulated machine every run uses.
    pub sim: SimConfig,
    /// Committed instructions of one protected run.
    pub instructions: u64,
    /// `sim` with the fuel the attack sweep gives a trial: four times the
    /// unprotected run's instructions plus 10 000, since an attacked binary
    /// can loop.
    pub attack_sim: SimConfig,
}

impl Cell {
    pub fn guard_config(&self) -> &GuardConfig {
        self.config.guards.as_ref().expect("every recipe guards")
    }

    pub fn encrypt_config(&self) -> &EncryptConfig {
        self.config
            .encryption
            .as_ref()
            .expect("every recipe encrypts")
    }
}

/// Builds every cell of `spec` for `seed`: assembles or compiles each
/// kernel, checks its unprotected run against the reference output,
/// protects it and checks the protected run too.
pub fn setup(spec: &Spec, seed: u64) -> Result<Vec<Cell>, String> {
    spec.kernels
        .iter()
        .enumerate()
        .map(|(k, &kernel)| {
            let workload = flexprot_workloads::by_name(kernel)
                .ok_or_else(|| format!("unknown kernel {kernel}"))?;
            let image = workload.image();
            let expected = workload.expected_output();
            let sim = SimConfig {
                icache: spec.icache,
                ..SimConfig::default()
            };
            let base = Machine::new(&image, sim.clone()).run();
            if base.outcome != Outcome::Exit(0) || base.output != expected {
                return Err(format!(
                    "{kernel}: unprotected run disagrees with reference"
                ));
            }
            let guards = GuardConfig {
                key: mix(seed, k as u64, 1),
                seed: mix(seed, k as u64, 2),
                ..GuardConfig::with_density(spec.guard_density)
            };
            let encryption = EncryptConfig {
                granularity: spec.granularity,
                ..EncryptConfig::whole_program(mix(seed, k as u64, 3))
            };
            let mut config = ProtectionConfig::new()
                .with_guards(guards)
                .with_encryption(encryption);
            if spec.post_checks {
                config = config.with_key_flow_check().with_translation_validation();
            }
            let protected = protect(&image, &config, None)
                .map_err(|e| format!("{kernel}: protect failed: {e}"))?;
            let run = protected.run(sim.clone());
            if run.outcome != Outcome::Exit(0) || run.output != expected {
                return Err(format!("{kernel}: protected run disagrees with reference"));
            }
            let attack_sim = SimConfig {
                max_instructions: base.stats.instructions * 4 + 10_000,
                ..sim.clone()
            };
            Ok(Cell {
                kernel,
                image,
                expected,
                config,
                protected,
                sim,
                instructions: run.stats.instructions,
                attack_sim,
            })
        })
        .collect()
}
