//! The static tamper-surface oracle.
//!
//! Built once per protected image from the verifier's coverage analysis,
//! the oracle predicts — *without running anything* — whether the
//! protection stack will catch a given mutation.  A mutated word is
//! predicted caught when any of three static facts holds:
//!
//! 1. a sound guard window covers it: the rolling MAC over the window no
//!    longer matches its embedded signature;
//! 2. a cipher region covers it: the edit lands in ciphertext, so the
//!    decrypted plaintext garbles unpredictably;
//! 3. it is reachable plaintext and the new word does not decode: the
//!    core faults on an illegal instruction — deployed systems treat the
//!    fault as a tamper signal, the same convention the harness uses for
//!    [`crate::TrialOutcome::Faulted`].
//!
//! The harness scores these predictions against dynamic ground truth
//! (precision/recall over effective trials), which is how the whole
//! dataflow engine is validated against simulation.

//! Since v2 the oracle also *prices* each text word for the attacker:
//! [`StaticOracle::word_cost`] combines the per-word guard coverage with
//! the guard network's defeat closure — editing a covered word silently
//! means defeating every window over it plus, transitively, every guard
//! that checks those guards. [`StaticOracle::target_plan`] ranks the
//! reachable words cheapest-first, which is exactly the plan a
//! graph-aware attacker would follow (and what
//! [`crate::harness::evaluate_targeted`] executes).

use flexprot_isa::{Image, Inst};
use flexprot_secmon::SecMonConfig;
use flexprot_verify::{Coverage, GuardNet, LintPolicy, SurfaceMap};

/// Per-image static detection predictor and attack planner.
#[derive(Debug, Clone)]
pub struct StaticOracle {
    map: SurfaceMap,
    coverage: Coverage,
    net: GuardNet,
}

impl StaticOracle {
    /// Analyses `image` under `config` once; `predicts` and `word_cost`
    /// are then pure table lookups per trial.
    pub fn new(image: &Image, config: &SecMonConfig) -> StaticOracle {
        let v = flexprot_verify::analyze(image, config, &LintPolicy::default());
        StaticOracle {
            map: v.surface,
            coverage: v.coverage,
            net: v.guardnet,
        }
    }

    /// The underlying surface map.
    pub fn map(&self) -> &SurfaceMap {
        &self.map
    }

    /// The who-checks-whom guard network of the analysed image.
    pub fn net(&self) -> &GuardNet {
        &self.net
    }

    /// The number of guards an attacker must defeat to edit word `index`
    /// without the hash windows noticing: `0` for uncovered plaintext
    /// (the tamper surface), `u32::MAX` for ciphertext (no key, no
    /// forgery), otherwise the size of the covering windows' defeat
    /// closure under "checked by" in the guard network.
    pub fn word_cost(&self, index: usize) -> u32 {
        if self.map.encrypted[index] {
            return u32::MAX;
        }
        let covering = &self.coverage.covered_by[index];
        if covering.is_empty() {
            return 0;
        }
        let seeds: Vec<usize> = covering.iter().map(|&w| w as usize).collect();
        self.net.defeat_closure(&seeds).len() as u32
    }

    /// Reachable text-word indices ranked cheapest-first by
    /// [`word_cost`](Self::word_cost), ties broken by address order —
    /// the order a graph-aware attacker should try edits in. Min-cut
    /// guards and uncovered words surface at the front; densely
    /// cross-checked regions sink to the back.
    pub fn target_plan(&self) -> Vec<usize> {
        let mut plan: Vec<usize> = (0..self.map.reachable.len())
            .filter(|&i| self.map.reachable[i])
            .collect();
        plan.sort_by_key(|&i| (self.word_cost(i), i));
        plan
    }

    /// Whether the stack is predicted to catch the difference between
    /// `original` and `mutated`.  Structural edits (length, base or entry
    /// changes) are always predicted caught; in-place attacks never make
    /// them.
    pub fn predicts(&self, original: &Image, mutated: &Image) -> bool {
        if original.text.len() != mutated.text.len()
            || original.text_base != mutated.text_base
            || original.entry != mutated.entry
        {
            return true;
        }
        for (i, (&before, &after)) in original.text.iter().zip(&mutated.text).enumerate() {
            if before == after {
                continue;
            }
            if self.map.covered[i] || self.map.encrypted[i] {
                return true;
            }
            if self.map.reachable[i] && Inst::decode(after).is_err() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::{protect, GuardConfig, ProtectionConfig, DEFAULT_GUARD_KEY};

    fn guarded_image() -> (Image, flexprot_core::Protected) {
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 5
        li   $t1, 0
loop:   add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bne  $t0, $zero, loop
        add  $a0, $t1, $zero
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
        );
        let config = ProtectionConfig::new().with_guards(GuardConfig {
            key: DEFAULT_GUARD_KEY,
            ..GuardConfig::with_density(1.0)
        });
        let protected = protect(&image, &config, None).expect("protect");
        (image, protected)
    }

    #[test]
    fn covered_word_edits_are_predicted_caught() {
        let (_, protected) = guarded_image();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        assert!(oracle.map().full_reachable_coverage(), "density 1.0");
        let mut mutated = protected.image.clone();
        mutated.text[0] ^= 1 << 3;
        assert!(oracle.predicts(&protected.image, &mutated));
    }

    #[test]
    fn identical_images_are_predicted_benign() {
        let (_, protected) = guarded_image();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        assert!(!oracle.predicts(&protected.image, &protected.image.clone()));
    }

    #[test]
    fn unprotected_gap_edit_is_predicted_missed_unless_undecodable() {
        let image =
            flexprot_asm::assemble_or_panic("main: li $t0, 1\n li $t0, 2\n li $v0, 10\n syscall\n");
        let oracle = StaticOracle::new(&image, &flexprot_secmon::SecMonConfig::transparent());
        // A decodable substitution in an unprotected image slips through.
        let mut substituted = image.clone();
        substituted.text[0] = image.text[1];
        assert!(!oracle.predicts(&image, &substituted));
        // An undecodable word on a reachable path is predicted to fault.
        let mut garbage = image.clone();
        garbage.text[0] = 0xFFFF_FFFF;
        assert!(Inst::decode(0xFFFF_FFFF).is_err());
        assert!(oracle.predicts(&image, &garbage));
    }

    #[test]
    fn word_costs_price_coverage_and_ciphertext() {
        use flexprot_core::EncryptConfig;
        let image =
            flexprot_asm::assemble_or_panic("main: li $t0, 1\n li $t0, 2\n li $v0, 10\n syscall\n");
        // Unprotected: every word costs nothing.
        let free = StaticOracle::new(&image, &flexprot_secmon::SecMonConfig::transparent());
        assert!((0..image.text.len()).all(|i| free.word_cost(i) == 0));

        // Fully guarded: every reachable word sits in at least one window,
        // so every cost is >= 1 (the emitter's windows are disjoint, so
        // the defeat closure is exactly the covering window).
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let p = protect(&image, &config, None).unwrap();
        let oracle = StaticOracle::new(&p.image, &p.secmon);
        let plan = oracle.target_plan();
        assert!(!plan.is_empty());
        assert!(plan.iter().all(|&i| oracle.word_cost(i) >= 1));
        // The plan is sorted by cost.
        for pair in plan.windows(2) {
            assert!(oracle.word_cost(pair[0]) <= oracle.word_cost(pair[1]));
        }

        // Encrypted: ciphertext words are priced unforgeable.
        let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xFACE));
        let p = protect(&image, &config, None).unwrap();
        let oracle = StaticOracle::new(&p.image, &p.secmon);
        assert!((0..p.image.text.len()).all(|i| oracle.word_cost(i) == u32::MAX));
    }

    #[test]
    fn sparse_guards_leave_zero_cost_words_at_the_front_of_the_plan() {
        let (_, protected) = guarded_image();
        let dense = StaticOracle::new(&protected.image, &protected.secmon);
        assert!(
            dense.target_plan().iter().all(|&i| dense.word_cost(i) > 0),
            "density 1.0 leaves no free word"
        );
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 5
        li   $t1, 0
loop:   add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bne  $t0, $zero, loop
        add  $a0, $t1, $zero
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
        );
        let config = ProtectionConfig::new().with_guards(GuardConfig {
            key: DEFAULT_GUARD_KEY,
            ..GuardConfig::with_density(0.25)
        });
        let sparse_p = protect(&image, &config, None).expect("protect");
        let sparse = StaticOracle::new(&sparse_p.image, &sparse_p.secmon);
        let plan = sparse.target_plan();
        assert!(
            sparse.word_cost(plan[0]) == 0,
            "a quarter-density image must expose free words first"
        );
    }
}
