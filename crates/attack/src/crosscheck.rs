//! Validator-vs-oracle cross-check.
//!
//! The translation validator ([`flexprot_verify::equiv`]) and the static
//! tamper oracle ([`crate::StaticOracle`]) answer *different* questions
//! about the same mutated binary: the validator asks "does this image
//! still compute the baseline program?", the oracle asks "will the
//! protection hardware notice the edit?". On a sound protection stack the
//! two must mesh: every word the validator proves **inequivalent** must
//! either be an oracle-predicted detection or land on the *known* tamper
//! surface (uncovered, unencrypted plaintext — the gap the surface map
//! already reports). An inequivalent edit the oracle misses *off* the
//! surface would mean one of the two analyses is wrong, which is exactly
//! the N-version disagreement this module exists to surface.
//!
//! The opposite direction is expected to diverge and is only tallied: a
//! guard word rewritten into a *different* guard-form word is
//! semantically transparent (the validator proves equivalence) yet the
//! window MAC no longer matches (the oracle predicts detection) — the
//! hardware kills a program that would have computed the right answer.
//! Experiment T12 scores both directions across the protection matrix.

use flexprot_core::Protected;
use flexprot_isa::{Image, Rng64};
use flexprot_verify::equiv::{self, EquivVerdict};
use flexprot_verify::RefusalReason;

use crate::oracle::StaticOracle;

/// How one mutated image was classified by both analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Validator inequivalent, oracle predicts detection: the stack
    /// catches a semantically damaging edit.
    CaughtDamage,
    /// Validator inequivalent, oracle misses, but every mutated word lies
    /// on the reported tamper surface: a *known* gap, already priced by
    /// the surface map.
    KnownGap,
    /// Validator inequivalent, oracle misses, and the edit is off the
    /// tamper surface: an unexplained disagreement — one analysis is
    /// wrong. Must be zero on a sound stack.
    Unexplained,
    /// Validator proves equivalence (or soundly refuses) while the oracle
    /// predicts detection: the hardware rejects a semantically harmless
    /// edit (e.g. resigning a guard word). A false positive of the
    /// *hardware*, not of either analysis.
    HarmlessCaught,
    /// Neither analysis flags the mutation (identical images, or an edit
    /// that is both semantically neutral and invisible to the monitor).
    Benign,
}

/// Tally of [`Agreement`] classes over a mutation campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossCheckSummary {
    /// Mutated images scored.
    pub trials: u32,
    /// Validator verdict was `Inequivalent`.
    pub inequivalent: u32,
    /// Validator verdict was `Refused`.
    pub refused: u32,
    /// Refusals carrying [`RefusalReason::StoreWritesMemory`]: the store
    /// provably writes data memory the baseline never touches.
    pub refused_store_writes: u32,
    /// Refusals carrying [`RefusalReason::StoreMayAliasText`]: the store
    /// may rewrite the text segment, so self-modification cannot be
    /// excluded.
    pub refused_may_alias: u32,
    /// Refusals carrying [`RefusalReason::BranchUndecided`].
    pub refused_branch: u32,
    /// Oracle predicted detection.
    pub predicted: u32,
    /// [`Agreement::CaughtDamage`] count.
    pub caught_damage: u32,
    /// [`Agreement::KnownGap`] count.
    pub known_gaps: u32,
    /// [`Agreement::Unexplained`] count — must be zero.
    pub unexplained: u32,
    /// [`Agreement::HarmlessCaught`] count.
    pub harmless_caught: u32,
    /// [`Agreement::Benign`] count.
    pub benign: u32,
}

impl CrossCheckSummary {
    /// Folds another summary into this one (for merging matrix cells).
    pub fn merge(&mut self, other: &CrossCheckSummary) {
        self.trials += other.trials;
        self.inequivalent += other.inequivalent;
        self.refused += other.refused;
        self.refused_store_writes += other.refused_store_writes;
        self.refused_may_alias += other.refused_may_alias;
        self.refused_branch += other.refused_branch;
        self.predicted += other.predicted;
        self.caught_damage += other.caught_damage;
        self.known_gaps += other.known_gaps;
        self.unexplained += other.unexplained;
        self.harmless_caught += other.harmless_caught;
        self.benign += other.benign;
    }
}

/// Classifies one mutated image from both analyses' answers.
///
/// `protected` is the shipped build the attacker started from, `mutated`
/// the attacker's edit of `protected.image`, `verdict` the validator's
/// verdict on `mutated` against the unprotected baseline and `predicted`
/// the oracle's prediction for it. The oracle must have been built from
/// `protected.image` + `protected.secmon`; it also supplies the surface
/// map that separates known gaps from unexplained misses.
pub fn classify(
    protected: &Protected,
    oracle: &StaticOracle,
    mutated: &Image,
    verdict: &EquivVerdict,
    predicted: bool,
) -> Agreement {
    match verdict {
        EquivVerdict::Inequivalent { .. } => {
            if predicted {
                Agreement::CaughtDamage
            } else if mutation_on_surface(protected, oracle, mutated) {
                Agreement::KnownGap
            } else {
                Agreement::Unexplained
            }
        }
        EquivVerdict::Proven | EquivVerdict::Refused { .. } => {
            if predicted {
                Agreement::HarmlessCaught
            } else {
                Agreement::Benign
            }
        }
    }
}

/// Whether every changed word of `mutated` lies on the reported tamper
/// surface (or outside reachable text): uncovered, unencrypted words the
/// surface map already flags as the attacker's free real estate. A
/// structural edit (length/base/entry change) is never a known gap.
fn mutation_on_surface(protected: &Protected, oracle: &StaticOracle, mutated: &Image) -> bool {
    if protected.image.text.len() != mutated.text.len()
        || protected.image.text_base != mutated.text_base
        || protected.image.entry != mutated.entry
    {
        return false;
    }
    let map = oracle.map();
    protected
        .image
        .text
        .iter()
        .zip(&mutated.text)
        .enumerate()
        .filter(|(_, (&before, &after))| before != after)
        .all(|(i, _)| !map.covered[i] && !map.encrypted[i])
}

/// The mutation of one [`cross_check`] trial: one random text word of
/// `image` gets a random bit flipped or is replaced by a random word, half
/// the time each — the classic single-bit hardware attack and whole-word
/// substitution.
pub fn random_word_edit(image: &mut Image, rng: &mut Rng64) {
    let index = rng.index(image.text.len());
    if rng.next_u64() & 1 == 0 {
        image.text[index] ^= 1 << rng.below(32);
    } else {
        image.text[index] = rng.next_u32();
    }
}

/// Runs a single-word random mutation campaign: each trial makes one
/// [`random_word_edit`] of the protected image, validates and predicts it
/// once, classifies the result via [`classify`], and tallies the
/// agreement classes. Deterministic for a given seed.
pub fn cross_check(
    base: &Image,
    protected: &Protected,
    trials: u32,
    rng: &mut Rng64,
) -> CrossCheckSummary {
    let oracle = StaticOracle::new(&protected.image, &protected.secmon);
    let mut summary = CrossCheckSummary::default();
    for _ in 0..trials {
        let mut mutated = protected.image.clone();
        random_word_edit(&mut mutated, rng);
        summary.trials += 1;
        let verdict = equiv::validate(base, &mutated, &protected.secmon).verdict;
        let predicted = oracle.predicts(&protected.image, &mutated);
        match &verdict {
            EquivVerdict::Inequivalent { .. } => summary.inequivalent += 1,
            EquivVerdict::Refused { reason } => {
                summary.refused += 1;
                match reason {
                    RefusalReason::StoreWritesMemory => summary.refused_store_writes += 1,
                    RefusalReason::StoreMayAliasText => summary.refused_may_alias += 1,
                    RefusalReason::BranchUndecided => summary.refused_branch += 1,
                }
            }
            EquivVerdict::Proven => {}
        }
        if predicted {
            summary.predicted += 1;
        }
        match classify(protected, &oracle, &mutated, &verdict, predicted) {
            Agreement::CaughtDamage => summary.caught_damage += 1,
            Agreement::KnownGap => summary.known_gaps += 1,
            Agreement::Unexplained => summary.unexplained += 1,
            Agreement::HarmlessCaught => summary.harmless_caught += 1,
            Agreement::Benign => summary.benign += 1,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::{protect, EncryptConfig, GuardConfig, ProtectionConfig, DEFAULT_GUARD_KEY};

    fn baseline() -> Image {
        flexprot_asm::assemble_or_panic(
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
        )
    }

    #[test]
    fn fully_protected_campaign_has_no_unexplained_disagreements() {
        let base = baseline();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig {
                key: DEFAULT_GUARD_KEY,
                ..GuardConfig::with_density(1.0)
            })
            .with_encryption(EncryptConfig::whole_program(0x5EED));
        let protected = protect(&base, &config, None).unwrap();
        let mut rng = Rng64::new(7);
        let summary = cross_check(&base, &protected, 64, &mut rng);
        assert_eq!(summary.trials, 64);
        assert_eq!(summary.unexplained, 0, "{summary:?}");
        // Every refusal carries exactly one typed reason.
        assert_eq!(
            summary.refused,
            summary.refused_store_writes + summary.refused_may_alias + summary.refused_branch,
            "{summary:?}"
        );
        // Full coverage leaves the attacker no known gap either.
        assert_eq!(summary.known_gaps, 0, "{summary:?}");
        assert!(summary.inequivalent > 0, "{summary:?}");
    }

    #[test]
    fn unprotected_campaign_files_damage_as_known_gaps() {
        let base = baseline();
        let protected = protect(&base, &ProtectionConfig::new(), None).unwrap();
        let mut rng = Rng64::new(11);
        let summary = cross_check(&base, &protected, 64, &mut rng);
        assert_eq!(summary.unexplained, 0, "{summary:?}");
        // With no protection at all, semantically damaging decodable
        // edits are exactly the surface map's known gaps (undecodable
        // edits still fault, which the oracle predicts).
        assert!(summary.known_gaps > 0, "{summary:?}");
    }

    #[test]
    fn resigned_guard_word_is_harmless_but_caught() {
        use flexprot_secmon::encode_guard_inst;
        let base = baseline();
        let config = ProtectionConfig::new().with_guards(GuardConfig {
            key: DEFAULT_GUARD_KEY,
            ..GuardConfig::with_density(1.0)
        });
        let protected = protect(&base, &config, None).unwrap();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        let (&site, _) = protected.secmon.sites.iter().next().unwrap();
        let idx = protected.image.text_index_of(site).unwrap();
        let mut mutated = protected.image.clone();
        // A forged guard word with the wrong symbols: still guard-form
        // (semantically inert, the validator proves equivalence) but the
        // window MAC breaks (the oracle predicts detection).
        let forged = encode_guard_inst(0x15, 3).encode();
        assert_ne!(mutated.text[idx], forged);
        mutated.text[idx] = forged;
        let verdict = equiv::validate(&base, &mutated, &protected.secmon).verdict;
        let predicted = oracle.predicts(&protected.image, &mutated);
        assert_eq!(
            classify(&protected, &oracle, &mutated, &verdict, predicted),
            Agreement::HarmlessCaught
        );
    }
}
