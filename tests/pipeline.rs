//! Cross-crate integration: every workload, under every protection
//! configuration, must produce its reference output — and pay for it.

use flexprot::core::{
    protect, EncryptConfig, Granularity, GuardConfig, Placement, ProtectionConfig, Selection,
};
use flexprot::sim::{Machine, Outcome, SimConfig};

fn configs() -> Vec<(&'static str, ProtectionConfig)> {
    vec![
        ("none", ProtectionConfig::new()),
        (
            "guards-0.25",
            ProtectionConfig::new().with_guards(GuardConfig::with_density(0.25)),
        ),
        (
            "guards-1.0",
            ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        ),
        (
            "enc-program",
            ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xE4C)),
        ),
        (
            "enc-block",
            ProtectionConfig::new().with_encryption(EncryptConfig {
                granularity: Granularity::Block,
                ..EncryptConfig::whole_program(0xB10C)
            }),
        ),
        (
            "combined",
            ProtectionConfig::new()
                .with_guards(GuardConfig {
                    placement: Placement::Random,
                    ..GuardConfig::with_density(0.5)
                })
                .with_encryption(EncryptConfig {
                    granularity: Granularity::Function,
                    ..EncryptConfig::whole_program(0xF7)
                }),
        ),
    ]
}

#[test]
fn every_workload_survives_every_configuration() {
    for workload in flexprot::workloads::all() {
        let image = workload.image();
        let expected = workload.expected_output();
        let base = Machine::new(&image, SimConfig::default()).run();
        assert_eq!(base.outcome, Outcome::Exit(0), "{} baseline", workload.name);
        assert_eq!(base.output, expected, "{} baseline output", workload.name);
        for (config_name, config) in configs() {
            let protected = protect(&image, &config, None)
                .unwrap_or_else(|e| panic!("{}/{config_name}: {e}", workload.name));
            let run = protected.run(SimConfig::default());
            assert_eq!(
                run.outcome,
                Outcome::Exit(0),
                "{}/{config_name}: {:?}",
                workload.name,
                run.outcome
            );
            assert_eq!(
                run.output, expected,
                "{}/{config_name}: output corrupted",
                workload.name
            );
            assert!(
                run.stats.cycles >= base.stats.cycles,
                "{}/{config_name}: protection cannot be faster than baseline",
                workload.name
            );
        }
    }
}

#[test]
fn guard_checks_fire_on_every_workload() {
    for workload in flexprot::workloads::all() {
        let image = workload.image();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).expect("protect");
        let mut machine = protected.machine(SimConfig::default());
        let run = machine.run();
        assert_eq!(run.outcome, Outcome::Exit(0), "{}", workload.name);
        assert!(
            machine.monitor().checks_passed() > 0,
            "{}: no guard check ever executed",
            workload.name
        );
        assert!(
            machine.monitor().tamper_log().is_empty(),
            "{}: false positive {:?}",
            workload.name,
            machine.monitor().tamper_log()
        );
    }
}

#[test]
fn spacing_bounds_never_false_positive() {
    // enforce_spacing yields a finite bound on these kernels; the
    // untampered run must never trip it.
    for workload in flexprot::workloads::all() {
        let image = workload.image();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(0.4));
        let protected = protect(&image, &config, None).expect("protect");
        if protected.secmon.spacing_bound.is_none() {
            continue;
        }
        let run = protected.run(SimConfig::default());
        assert_eq!(
            run.outcome,
            Outcome::Exit(0),
            "{}: spacing bound false positive: {:?}",
            workload.name,
            run.outcome
        );
    }
}

#[test]
fn profile_guided_protection_matches_oracle() {
    use flexprot::core::{optimize, Cfg, OptimizerConfig, Profile};
    let workload = flexprot::workloads::by_name("matmul").expect("kernel");
    let image = workload.image();
    let profile = Profile::collect_clean(&image, &SimConfig::default());
    let cfg = Cfg::recover(&image).expect("cfg");
    let plan = optimize(
        &cfg,
        &profile,
        &OptimizerConfig {
            budget_fraction: 0.15,
            ..OptimizerConfig::default()
        },
    );
    let config = ProtectionConfig::from_plan(
        &plan,
        GuardConfig {
            enforce_spacing: false,
            selection: Selection::Density(0.0),
            placement: Placement::ColdestFirst,
            key: 0xC0DE,
            seed: 1,
        },
        EncryptConfig::whole_program(0x5EED),
    );
    let protected = protect(&image, &config, Some(&profile)).expect("protect");
    let run = protected.run(SimConfig::default());
    assert_eq!(run.outcome, Outcome::Exit(0));
    assert_eq!(run.output, workload.expected_output());
}

#[test]
fn shipped_encrypted_binary_is_unreadable() {
    // Static analysis of the shipped binary must not reveal the original
    // instruction stream: most ciphertext words differ, and a large share
    // do not even decode.
    let workload = flexprot::workloads::by_name("hash").expect("kernel");
    let image = workload.image();
    let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0x5EED));
    let protected = protect(&image, &config, None).expect("protect");
    let changed = image
        .text
        .iter()
        .zip(&protected.image.text)
        .filter(|(a, b)| a != b)
        .count();
    assert!(changed as f64 >= image.text.len() as f64 * 0.95);
    let undecodable = protected
        .image
        .decode_text()
        .filter(|(_, d)| d.is_err())
        .count();
    assert!(
        undecodable as f64 >= protected.image.text.len() as f64 * 0.3,
        "ciphertext decodes too cleanly: {undecodable}/{}",
        protected.image.text.len()
    );
}
