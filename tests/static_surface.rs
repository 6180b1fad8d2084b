//! Acceptance tests for the static tamper-surface analysis.
//!
//! Two claims are checked, the first over the golden protection matrix
//! ([`flexprot_exec::matrix`]):
//!
//! 1. the coverage analysis *proves* full reachable coverage for every
//!    fully-protected cell, and *refutes* it with a concrete witness word
//!    for every under-protected one;
//! 2. the static oracle built from the surface map predicts dynamic
//!    detection with precision and recall ≥ 0.9 on the default attack
//!    sweep.

use flexprot::attack::{campaign_sim, evaluate, Attack, AttackSummary};
use flexprot::core::{
    protect, EncryptConfig, GuardConfig, ProtectionConfig, DEFAULT_ENC_KEY, DEFAULT_GUARD_KEY,
};
use flexprot::isa::Image;
use flexprot::sim::{Machine, SimConfig};
use flexprot::verify::{analyze, LintPolicy, SurfaceMap};
use flexprot_exec::matrix;

fn guards(density: f64) -> GuardConfig {
    GuardConfig {
        key: DEFAULT_GUARD_KEY,
        ..GuardConfig::with_density(density)
    }
}

/// Internal consistency: the entry list is exactly the set of words that
/// no sound window and no cipher region covers.
fn assert_consistent(label: &str, image: &Image, map: &SurfaceMap) {
    assert_eq!(map.text_words, image.text.len(), "{label}");
    assert_eq!(map.covered.len(), map.text_words, "{label}");
    let mut expected = Vec::new();
    for i in 0..map.text_words {
        if !map.covered[i] && !map.encrypted[i] {
            expected.push(image.text_base + 4 * i as u32);
        }
    }
    let mut listed: Vec<u32> = map.entries.iter().map(|e| e.addr).collect();
    listed.sort_unstable();
    assert_eq!(listed, expected, "{label}: entries vs bitmaps");
    for e in &map.entries {
        let i = ((e.addr - image.text_base) / 4) as usize;
        assert_eq!(e.reachable, map.reachable[i], "{label}: {:#010x}", e.addr);
    }
}

/// What the analysis must conclude for each matrix cell: a proof of full
/// reachable coverage (`Some(true)`) or a refutation with a witness
/// (`Some(false)`). Function/block keying covers what the front end mapped
/// into regions; whether that is everything depends on the program, so
/// only the verdict's witness obligation is checked (`None`).
fn expected_full_coverage(cell: &str) -> Option<bool> {
    match cell {
        "none" | "guards-0.25" => Some(false),
        "guards-1.0" | "enc-program" | "guards-enc" => Some(true),
        "enc-function" | "enc-block" => None,
        other => panic!("no coverage expectation for matrix cell `{other}`"),
    }
}

#[test]
fn coverage_is_proved_or_refuted_for_every_matrix_cell() {
    let cells = matrix::cells();
    for (name, image) in matrix::programs() {
        for (cell, config) in &cells {
            let label = format!("{name}/{cell}");
            let protected = protect(&image, config, None)
                .unwrap_or_else(|e| panic!("{label}: protect failed: {e}"));
            let map = analyze(&protected.image, &protected.secmon, &LintPolicy::default()).surface;
            assert_consistent(&label, &protected.image, &map);
            let proved = map.full_reachable_coverage();
            if let Some(expected) = expected_full_coverage(cell) {
                assert_eq!(proved, expected, "{label}: verdict");
            }
            if !proved {
                // The refutation must carry a concrete witness: a
                // reachable word no protection mechanism covers.
                let witness = map
                    .entries
                    .iter()
                    .find(|e| e.reachable)
                    .unwrap_or_else(|| panic!("{label}: refuted without witness"));
                let i = ((witness.addr - protected.image.text_base) / 4) as usize;
                assert!(
                    !map.covered[i] && !map.encrypted[i] && map.reachable[i],
                    "{label}: witness {:#010x} is not a gap",
                    witness.addr
                );
            }
        }
    }
}

#[test]
fn static_oracle_meets_precision_and_recall_targets() {
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let configs = vec![
        ("guards", ProtectionConfig::new().with_guards(guards(1.0))),
        (
            "enc",
            ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(DEFAULT_ENC_KEY)),
        ),
        (
            "guards+enc",
            ProtectionConfig::new()
                .with_guards(guards(1.0))
                .with_encryption(EncryptConfig::whole_program(DEFAULT_ENC_KEY)),
        ),
    ];
    let baseline = Machine::new(&image, SimConfig::default()).run();
    let sim = campaign_sim(baseline.stats.instructions, &SimConfig::default());
    let mut agg = AttackSummary::default();
    for (name, config) in configs {
        let protected = protect(&image, &config, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        for attack in Attack::all() {
            let summary = evaluate(&protected, &expected, attack, 10, 0xA77A_C4E5, &sim);
            agg.merge(&summary);
        }
    }
    assert!(agg.oracle_trials() > 0);
    assert!(
        agg.oracle_precision() >= 0.9,
        "precision {:.3} over {} trials (tp {} fp {} fn {} tn {})",
        agg.oracle_precision(),
        agg.oracle_trials(),
        agg.oracle_true_pos,
        agg.oracle_false_pos,
        agg.oracle_false_neg,
        agg.oracle_true_neg,
    );
    assert!(
        agg.oracle_recall() >= 0.9,
        "recall {:.3} over {} trials (tp {} fp {} fn {} tn {})",
        agg.oracle_recall(),
        agg.oracle_trials(),
        agg.oracle_true_pos,
        agg.oracle_false_pos,
        agg.oracle_false_neg,
        agg.oracle_true_neg,
    );
}
