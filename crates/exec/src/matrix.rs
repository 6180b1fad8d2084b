//! The golden protection matrix: the programs and protection cells the
//! `fpmatrix` sweep, the acceptance tests and the CI baselines are pinned
//! to.
//!
//! Six programs — the reference MiniC kernels ([`flexprot_cc::kernels`])
//! plus the `rle`, `bitcount` and `fir` assembly workloads — crossed with
//! seven cells: no protection, guards at densities 0.25 and 1.0,
//! encryption keyed per program, function and block, and guards plus
//! encryption. The cell names are the `cell` column of the four tables
//! `fpmatrix` writes, pinned as the committed `results/*_baseline.csv`
//! files, so renaming one moves every baseline.

use flexprot_core::{EncryptConfig, Granularity, GuardConfig, ProtectionConfig, DEFAULT_ENC_KEY};
use flexprot_isa::Image;

/// The matrix programs in row order: the MiniC kernels, then the
/// assembly workloads.
pub fn programs() -> Vec<(String, Image)> {
    let mut programs: Vec<(String, Image)> = flexprot_cc::kernels::all()
        .into_iter()
        .map(|(name, source)| {
            let image = flexprot_cc::compile_to_image(source)
                .unwrap_or_else(|e| panic!("reference kernel {name} must compile: {e}"));
            (name.to_owned(), image)
        })
        .collect();
    for name in ["rle", "bitcount", "fir"] {
        let workload = flexprot_workloads::by_name(name)
            .unwrap_or_else(|| panic!("workload `{name}` missing from the catalogue"));
        programs.push((name.to_owned(), workload.image()));
    }
    programs
}

/// The protection cells in column order, keyed by their CSV name.
pub fn cells() -> Vec<(&'static str, ProtectionConfig)> {
    let guards = GuardConfig::with_density;
    let enc = |granularity: Granularity| EncryptConfig {
        granularity,
        ..EncryptConfig::whole_program(DEFAULT_ENC_KEY)
    };
    vec![
        ("none", ProtectionConfig::new()),
        (
            "guards-0.25",
            ProtectionConfig::new().with_guards(guards(0.25)),
        ),
        (
            "guards-1.0",
            ProtectionConfig::new().with_guards(guards(1.0)),
        ),
        (
            "enc-program",
            ProtectionConfig::new().with_encryption(enc(Granularity::Program)),
        ),
        (
            "enc-function",
            ProtectionConfig::new().with_encryption(enc(Granularity::Function)),
        ),
        (
            "enc-block",
            ProtectionConfig::new().with_encryption(enc(Granularity::Block)),
        ),
        (
            "guards-enc",
            ProtectionConfig::new()
                .with_guards(guards(1.0))
                .with_encryption(enc(Granularity::Function)),
        ),
    ]
}
