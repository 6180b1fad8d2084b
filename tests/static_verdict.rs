//! The attack harness's static verdict is exact.
//!
//! [`static_detects`] answers "does the verifier flag this mutant" with
//! [`flexprot::verify::Shipped::flags`], which stops at the first
//! structural check that reports an error instead of running the whole
//! analysis. These tests hold it to the full analysis,
//! `!verify(..).is_clean()`, on every mutant the T3, T10 and T12
//! campaigns draw (their seeds, and the trial counts of
//! `experiments --quick`) over the golden protection matrix
//! ([`flexprot_exec::matrix`]), and on every single-bit flip at four bit
//! positions of two matrix cells.

use std::collections::HashSet;

use flexprot::attack::crosscheck::random_word_edit;
use flexprot::attack::harness::{random_attacks, random_nops, targeted_nops};
use flexprot::attack::{static_detects, Attack, StaticOracle};
use flexprot::core::{protect, Protected};
use flexprot::isa::{Image, Rng64};
use flexprot::verify::verify;
use flexprot_exec::matrix;

/// T3's trials per (config, workload, attack) cell under `--quick`.
const TRIALS: u32 = 6;
/// The seed of T3's attack sweep and of T10's random NOP baseline.
const ATTACK_SEED: u64 = 0xA77A_C4E5;
/// The seed of T12's cross-check campaign.
const CROSS_CHECK_SEED: u64 = 0xC405_5EED;

/// Scores the distinct mutants of one build both ways.
struct Exactness<'a> {
    label: String,
    protected: &'a Protected,
    seen: HashSet<Vec<(usize, u32)>>,
    flagged: usize,
}

impl<'a> Exactness<'a> {
    fn new(label: String, protected: &'a Protected) -> Exactness<'a> {
        Exactness {
            label,
            protected,
            seen: HashSet::new(),
            flagged: 0,
        }
    }

    /// Asserts the short-circuited verdict on `mutated` equals the full
    /// analysis's, once per distinct mutant.
    fn check(&mut self, mutated: &Image) {
        let pristine = &self.protected.image;
        let patch: Vec<(usize, u32)> = (0..pristine.text.len())
            .filter(|&i| mutated.text[i] != pristine.text[i])
            .map(|i| (i, mutated.text[i]))
            .collect();
        if !self.seen.insert(patch.clone()) {
            return;
        }
        let config = &self.protected.secmon;
        let flagged = static_detects(mutated, config);
        let full = !verify(mutated, config).is_clean();
        assert_eq!(flagged, full, "{}: patch {patch:x?}", self.label);
        self.flagged += usize::from(flagged);
    }

    /// Draws `trials` mutants from a campaign mutation source and checks
    /// every applied one.
    fn campaign(&mut self, trials: u32, mut mutate: impl FnMut(u32, &mut Image) -> bool) {
        for t in 0..trials {
            let mut image = self.protected.image.clone();
            if mutate(t, &mut image) {
                self.check(&image);
            }
        }
    }
}

#[test]
fn flags_equals_the_full_analysis_on_every_campaign_mutant_over_the_matrix() {
    let (mut mutants, mut flagged) = (0, 0);
    for (name, image) in matrix::programs() {
        for (cell, config) in matrix::cells() {
            let protected = protect(&image, &config, None).unwrap();
            let mut exact = Exactness::new(format!("{name}/{cell}"), &protected);
            // T3: every attack family from the sweep's seed.
            for attack in Attack::all() {
                exact.campaign(TRIALS, random_attacks(attack, ATTACK_SEED));
            }
            // T10: the targeted plan and its random NOP baseline.
            let oracle = StaticOracle::new(&protected.image, &protected.secmon);
            exact.campaign(5 * TRIALS, targeted_nops(&protected, &oracle));
            exact.campaign(5 * TRIALS, random_nops(ATTACK_SEED));
            // T12: the cross-check's single-word edits.
            let mut rng = Rng64::new(CROSS_CHECK_SEED);
            exact.campaign(4 * TRIALS, |_, image| {
                random_word_edit(image, &mut rng);
                true
            });
            mutants += exact.seen.len();
            flagged += exact.flagged;
        }
    }
    // The sweep must see both verdicts in bulk, or it shows nothing.
    assert!(mutants > 3000, "{mutants} mutants");
    assert!(
        flagged > mutants / 2 && flagged < mutants,
        "{flagged}/{mutants}"
    );
}

#[test]
fn flags_equals_the_full_analysis_on_every_bit_flip_of_two_cells() {
    const BITS: [u32; 4] = [0, 11, 21, 31];
    let programs = matrix::programs();
    let cells = matrix::cells();
    for (name, cell) in [("fir", "guards-1.0"), ("sieve", "enc-block")] {
        let (_, image) = programs.iter().find(|(n, _)| n == name).unwrap();
        let (_, config) = cells.iter().find(|(c, _)| *c == cell).unwrap();
        let protected = protect(image, config, None).unwrap();
        let mut exact = Exactness::new(format!("{name}/{cell}"), &protected);
        let words = protected.image.text.len() as u32;
        exact.campaign(4 * words, |t, image| {
            image.text[(t / 4) as usize] ^= 1 << BITS[(t % 4) as usize];
            true
        });
        assert_eq!(exact.seen.len() as u32, 4 * words);
        assert!(exact.flagged > 0, "{name}/{cell}: nothing flagged");
    }
}
