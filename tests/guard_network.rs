//! Acceptance tests for the guard-network analysis and the
//! abstract-interpretation checksum proofs.
//!
//! Three claims, the first over the golden protection matrix
//! ([`flexprot_exec::matrix`]):
//!
//! 1. every guard window of every cell gets a *verdict* — proven, or
//!    unproven with a stated reason — and an untampered build never
//!    yields a mismatch (zero FP703 false positives);
//! 2. a deliberately corrupted guard constant (re-encoded so the word
//!    still *looks* like a guard) is caught purely statically, with a
//!    witness pointing at the corrupted word;
//! 3. the min-cut-aware targeted attacker beats the random single-word
//!    baseline on a weakly connected configuration.

use flexprot::attack::{evaluate_random_nop, evaluate_targeted, StaticOracle};
use flexprot::core::{protect, GuardConfig, ProtectionConfig, DEFAULT_GUARD_KEY};
use flexprot::secmon::guard::{decode_guard_symbol, encode_guard_inst, is_guard_form};
use flexprot::sim::SimConfig;
use flexprot::verify::{analyze, verify, LintPolicy, Verdict};
use flexprot_exec::matrix;

fn guards(density: f64) -> GuardConfig {
    GuardConfig {
        key: DEFAULT_GUARD_KEY,
        ..GuardConfig::with_density(density)
    }
}

#[test]
fn every_matrix_cell_gets_a_proof_or_a_reasoned_refusal() {
    let cells = matrix::cells();
    for (name, image) in matrix::programs() {
        for (cell, config) in &cells {
            let label = format!("{name}/{cell}");
            let protected = protect(&image, config, None)
                .unwrap_or_else(|e| panic!("{label}: protect failed: {e}"));
            let v = analyze(&protected.image, &protected.secmon, &LintPolicy::default());

            // One verdict per guard window, aligned with the network.
            assert_eq!(v.proofs.len(), v.coverage.windows.len(), "{label}");
            assert_eq!(v.guardnet.nodes.len(), v.coverage.windows.len(), "{label}");
            assert_eq!(v.proofs.len(), protected.secmon.sites.len(), "{label}");
            for proof in &v.proofs {
                match &proof.verdict {
                    Verdict::Proven { .. } => {}
                    Verdict::Unproven { reason } => {
                        assert!(
                            !reason.code().is_empty(),
                            "{label}: refusal without a reason code"
                        );
                    }
                    Verdict::Mismatch { witness_addr, .. } => panic!(
                        "{label}: untampered build claims a mismatch at {witness_addr:#010x}"
                    ),
                }
            }
            // Zero FP703 false positives on pipeline output.
            assert_eq!(
                v.report.with_id("FP703").count(),
                0,
                "{label}:\n{}",
                v.report.render_human()
            );

            // The emitter keeps hash windows disjoint, so its guard
            // digraph is edgeless and (with >= 2 guards) disconnected —
            // the analysis must report that, not paper over it.
            assert_eq!(v.guardnet.edges, 0, "{label}");
            if v.guardnet.sound_count() >= 2 {
                assert_eq!(v.guardnet.min_cut, Some(Vec::new()), "{label}");
                assert!(!v.guardnet.is_connected(), "{label}");
                assert_eq!(
                    v.report.with_id("FP704").count(),
                    1,
                    "{label}: one disconnection note expected:\n{}",
                    v.report.render_human()
                );
            }
        }
    }
}

#[test]
fn corrupted_guard_constant_is_caught_statically_with_a_witness() {
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let config = ProtectionConfig::new().with_guards(guards(1.0));
    let p = protect(&workload.image(), &config, None).expect("protect");

    // Re-encode the second symbol word of the first guard with a
    // different symbol: the word still decodes as a well-formed guard
    // instruction, so the structural lint (FP101) stays silent and only
    // the signature checks can object.
    let &site = p.secmon.sites.keys().next().expect("a guard site");
    let idx = p.image.text_index_of(site).unwrap() + 1;
    let old = p.image.text[idx];
    assert!(is_guard_form(old));
    let mut image = p.image.clone();
    image.text[idx] = encode_guard_inst(decode_guard_symbol(old) ^ 0x01, 0).encode();
    assert!(is_guard_form(image.text[idx]));
    assert_ne!(image.text[idx], old);

    let report = verify(&image, &p.secmon);
    assert_eq!(
        report.with_id("FP101").count(),
        0,
        "the corruption preserves guard form:\n{}",
        report.render_human()
    );
    assert!(
        report.with_id("FP102").count() > 0,
        "the concrete signature check must fire:\n{}",
        report.render_human()
    );
    assert!(
        report.with_id("FP703").count() > 0,
        "the abstract proof must independently refute the constant:\n{}",
        report.render_human()
    );

    // The proof's witness points at the corrupted word itself.
    let v = analyze(&image, &p.secmon, &LintPolicy::default());
    let witness_addr = v
        .proofs
        .iter()
        .find_map(|proof| match proof.verdict {
            Verdict::Mismatch { witness_addr, .. } => Some(witness_addr),
            _ => None,
        })
        .expect("a mismatch verdict");
    assert_eq!(
        witness_addr,
        image.addr_of_index(idx),
        "witness must name the corrupted word"
    );
}

#[test]
fn min_cut_targeting_beats_random_words_on_a_weak_network() {
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let expected = workload.expected_output();
    // Quarter density: the who-checks-whom network is weakly connected
    // (here: edgeless), so the planner's cheap words are real surface.
    let config = ProtectionConfig::new().with_guards(guards(0.25));
    let p = protect(&workload.image(), &config, None).expect("protect");
    let sim = SimConfig {
        max_instructions: 2_000_000,
        ..SimConfig::default()
    };
    let oracle = StaticOracle::new(&p.image, &p.secmon);
    let targeted = evaluate_targeted(&p, &oracle, &expected, 30, &sim);
    let random = evaluate_random_nop(&p, &oracle, &expected, 30, 0xA77A_C4E5, &sim);
    assert!(targeted.applied > 0 && random.applied > 0);
    assert!(
        targeted.attacker_success_rate() > random.attacker_success_rate(),
        "graph-aware targeting must beat blind NOPs:\n\
         targeted {targeted:?}\nrandom {random:?}"
    );
}
