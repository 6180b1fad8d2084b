//! Static overhead estimation.
//!
//! The codesign loop needs to predict the runtime cost of a protection plan
//! *without* re-simulating every candidate: the estimator combines the
//! baseline profile with two first-order cost terms —
//!
//! * **guards**: each entry into a guarded block executes
//!   [`SIG_SYMBOLS`] extra single-cycle instructions;
//! * **encryption**: each I-cache miss whose line falls in an encrypted
//!   range pays the decrypt unit's fill penalty.
//!
//! Experiment F5 quantifies how well these estimates track simulation.

use std::collections::BTreeSet;

use flexprot_secmon::decrypt::DecryptModel;
use flexprot_secmon::guard::SIG_SYMBOLS;

use crate::cfg::Cfg;
use crate::profile::Profile;

/// The estimator's breakdown of predicted cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadEstimate {
    /// Cycles of the unprotected baseline run.
    pub baseline_cycles: u64,
    /// Predicted extra cycles from executing guard instructions.
    pub guard_extra: u64,
    /// Predicted extra cycles from fetch-path decryption.
    pub decrypt_extra: u64,
}

impl OverheadEstimate {
    /// Predicted relative overhead, e.g. `0.07` for +7%.
    pub fn overhead_fraction(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            (self.guard_extra + self.decrypt_extra) as f64 / self.baseline_cycles as f64
        }
    }
}

/// Predicted extra cycles from guarding `selected` blocks.
pub fn guard_extra_cycles(cfg: &Cfg, selected: &BTreeSet<usize>, profile: &Profile) -> u64 {
    selected
        .iter()
        .map(|&bi| profile.block_entries(&cfg.blocks[bi]) * u64::from(SIG_SYMBOLS))
        .sum()
}

/// Predicted extra cycles from encrypting the address ranges `ranges`
/// (`[start, end)` pairs in baseline addresses).
pub fn decrypt_extra_cycles(
    profile: &Profile,
    ranges: &[(u32, u32)],
    model: DecryptModel,
    line_words: u32,
) -> u64 {
    ranges
        .iter()
        .map(|&(start, end)| profile.miss_fills_in(start, end) * model.fill_penalty(line_words))
        .sum()
}

/// Combines both cost terms into a full estimate.
pub fn estimate(
    cfg: &Cfg,
    selected: &BTreeSet<usize>,
    enc_ranges: &[(u32, u32)],
    model: DecryptModel,
    line_words: u32,
    profile: &Profile,
) -> OverheadEstimate {
    OverheadEstimate {
        baseline_cycles: profile.cycles,
        guard_extra: guard_extra_cycles(cfg, selected, profile),
        decrypt_extra: decrypt_extra_cycles(profile, enc_ranges, model, line_words),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_isa::Image;
    use flexprot_sim::SimConfig;

    fn sample() -> (Image, Cfg, Profile) {
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 100
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        li   $v0, 10
        syscall
"#,
        );
        let cfg = Cfg::recover(&image).unwrap();
        let profile = Profile::collect_clean(&image, &SimConfig::default());
        (image, cfg, profile)
    }

    #[test]
    fn guard_cost_scales_with_entries() {
        let (_, cfg, profile) = sample();
        // Block 1 is the loop body (100 entries); block 0 runs once.
        let mut hot = BTreeSet::new();
        hot.insert(1usize);
        let mut cold = BTreeSet::new();
        cold.insert(0usize);
        let hot_cost = guard_extra_cycles(&cfg, &hot, &profile);
        let cold_cost = guard_extra_cycles(&cfg, &cold, &profile);
        assert_eq!(hot_cost, 100 * u64::from(SIG_SYMBOLS));
        assert_eq!(cold_cost, u64::from(SIG_SYMBOLS));
    }

    #[test]
    fn decrypt_cost_counts_only_covered_misses() {
        let (image, _, profile) = sample();
        let model = DecryptModel {
            cycles_per_word: 2,
            startup: 4,
            pipelined: false,
        };
        let all = decrypt_extra_cycles(&profile, &[(image.text_base, image.text_end())], model, 8);
        let none = decrypt_extra_cycles(&profile, &[(0, 4)], model, 8);
        assert!(all > 0);
        assert_eq!(none, 0);
    }

    #[test]
    fn estimate_combines_and_reports_fraction() {
        let (image, cfg, profile) = sample();
        let mut selected = BTreeSet::new();
        selected.insert(1usize);
        let est = estimate(
            &cfg,
            &selected,
            &[(image.text_base, image.text_end())],
            DecryptModel::baseline(),
            8,
            &profile,
        );
        assert_eq!(est.baseline_cycles, profile.cycles);
        assert!(est.overhead_fraction() > 0.0);
    }

    #[test]
    fn empty_estimate_is_zero_overhead() {
        let est = OverheadEstimate::default();
        assert_eq!(est.overhead_fraction(), 0.0);
    }
}
