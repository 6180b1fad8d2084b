//! The detection-coverage evaluation harness.

use std::collections::BTreeMap;

use flexprot_core::Protected;
use flexprot_isa::{Image, Inst, Rng64};
use flexprot_secmon::{SecMon, SecMonConfig};
use flexprot_sim::{Fault, Machine, Outcome, RunResult, SimConfig, TamperCause};
use flexprot_trace::Metrics;

use crate::attacks::Attack;
use crate::oracle::StaticOracle;

/// Classification of one attacked run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The monitor raised a tamper event after this many committed
    /// instructions (the detection latency).
    Detected { latency_instrs: u64 },
    /// Execution faulted (illegal instruction, wild pc, …).
    Faulted,
    /// The program completed but its output or exit code changed: a
    /// successful, unnoticed tamper.
    WrongOutput,
    /// Output unchanged — the mutation was semantically inert.
    Benign,
    /// The fuel limit expired.
    Timeout,
    /// The attack found no applicable site in this binary.
    Inapplicable,
}

/// What *proved* a detection: the monitor trip or fault kind that stopped
/// the attacked run.
///
/// Guard-machinery causes come from the monitor's typed trip cause (the
/// [`TamperCause`] carried by [`Outcome::TamperDetected`]); fault causes
/// come from the CPU. On an encrypted binary an
/// [`DetectionCause::DecryptGarble`] means the attacker's plaintext patch
/// decrypted to an undecodable word — on a plaintext binary it means the
/// patch itself was undecodable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectionCause {
    /// A guard signature check failed (mismatch, malformed guard word or
    /// interrupted sequence).
    GuardFail,
    /// The spacing counter exceeded its bound — guard stripping.
    SpacingBound,
    /// An illegal-instruction fault: the fetched word decoded to garbage.
    DecryptGarble,
    /// Control flow left the text segment.
    WildControlFlow,
    /// Any other hard fault (unaligned access, break, bad syscall).
    OtherFault,
}

/// Aggregated results of many randomized trials of one attack family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackSummary {
    /// Trials whose mutation actually applied.
    pub applied: u32,
    /// Monitor detections.
    pub detected: u32,
    /// Execution faults.
    pub faulted: u32,
    /// Unnoticed semantic corruption — attacker success.
    pub wrong_output: u32,
    /// Semantically inert mutations.
    pub benign: u32,
    /// Fuel exhaustion.
    pub timeout: u32,
    /// Trials the static verifier flagged before any execution — the
    /// zero-latency detection baseline.
    pub static_detected: u32,
    /// Sum of detection latencies (instructions), for averaging.
    pub latency_sum: u64,
    /// Individual detection latencies (instructions), for percentiles.
    pub latencies: Vec<u64>,
    /// How each caught trial (detected or faulted) was proven, keyed by
    /// [`DetectionCause`].
    pub causes: BTreeMap<DetectionCause, u32>,
    /// Effective trials the tamper-surface oracle predicted caught and the
    /// stack caught (detected or faulted).
    pub oracle_true_pos: u32,
    /// Effective trials predicted caught that escaped (wrong output or
    /// timeout).
    pub oracle_false_pos: u32,
    /// Effective trials predicted missed that the stack caught anyway.
    pub oracle_false_neg: u32,
    /// Effective trials predicted missed that escaped.
    pub oracle_true_neg: u32,
}

impl AttackSummary {
    /// Fraction of *effective* tampers (those that were not benign) that
    /// the system caught, counting monitor detections and hard faults.
    ///
    /// Returns 1.0 when no tamper had any effect (nothing to catch).
    pub fn detection_rate(&self) -> f64 {
        let effective = self.detected + self.faulted + self.wrong_output + self.timeout;
        if effective == 0 {
            1.0
        } else {
            f64::from(self.detected + self.faulted) / f64::from(effective)
        }
    }

    /// Fraction of applied trials `fplint` flags without running a single
    /// instruction. Compare with [`AttackSummary::detection_rate`]: the
    /// static pass has zero latency but only sees what the contract signs.
    pub fn static_detection_rate(&self) -> f64 {
        if self.applied == 0 {
            0.0
        } else {
            f64::from(self.static_detected) / f64::from(self.applied)
        }
    }

    /// Fraction of applied trials where the attacker won outright.
    pub fn attacker_success_rate(&self) -> f64 {
        if self.applied == 0 {
            0.0
        } else {
            f64::from(self.wrong_output) / f64::from(self.applied)
        }
    }

    /// Precision of the static oracle over effective trials:
    /// `tp / (tp + fp)`. Returns 1.0 when the oracle predicted nothing
    /// caught (no positives to be wrong about).
    pub fn oracle_precision(&self) -> f64 {
        let positives = self.oracle_true_pos + self.oracle_false_pos;
        if positives == 0 {
            1.0
        } else {
            f64::from(self.oracle_true_pos) / f64::from(positives)
        }
    }

    /// Recall of the static oracle over effective trials:
    /// `tp / (tp + fn)`. Returns 1.0 when the stack caught nothing (no
    /// ground-truth positives to recover).
    pub fn oracle_recall(&self) -> f64 {
        let caught = self.oracle_true_pos + self.oracle_false_neg;
        if caught == 0 {
            1.0
        } else {
            f64::from(self.oracle_true_pos) / f64::from(caught)
        }
    }

    /// Effective trials the oracle was scored on.
    pub fn oracle_trials(&self) -> u32 {
        self.oracle_true_pos + self.oracle_false_pos + self.oracle_false_neg + self.oracle_true_neg
    }

    /// Mean detection latency in instructions; `None` without detections.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.latency_sum as f64 / f64::from(self.detected))
    }

    /// The `q`-quantile (0.0–1.0, nearest-rank) of detection latencies;
    /// `None` without detections.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Merges another summary into this one (for cross-workload
    /// aggregation).
    pub fn merge(&mut self, other: &AttackSummary) {
        self.applied += other.applied;
        self.detected += other.detected;
        self.faulted += other.faulted;
        self.wrong_output += other.wrong_output;
        self.benign += other.benign;
        self.timeout += other.timeout;
        self.static_detected += other.static_detected;
        self.latency_sum += other.latency_sum;
        self.latencies.extend_from_slice(&other.latencies);
        for (cause, count) in &other.causes {
            *self.causes.entry(*cause).or_insert(0) += count;
        }
        self.oracle_true_pos += other.oracle_true_pos;
        self.oracle_false_pos += other.oracle_false_pos;
        self.oracle_false_neg += other.oracle_false_neg;
        self.oracle_true_neg += other.oracle_true_neg;
    }

    /// Number of caught trials proven by `cause`.
    pub fn cause_count(&self, cause: DetectionCause) -> u32 {
        self.causes.get(&cause).copied().unwrap_or(0)
    }

    /// Exports the outcome tallies into a metrics registry under stable
    /// `attack_*` counter names, plus every detection latency as an
    /// `attack_detection_latency` histogram observation. Additive, so
    /// repeated exports from per-cell summaries aggregate cleanly.
    pub fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.add("attack_trials_applied", u64::from(self.applied));
        metrics.add("attack_detected", u64::from(self.detected));
        metrics.add("attack_faulted", u64::from(self.faulted));
        metrics.add("attack_wrong_output", u64::from(self.wrong_output));
        metrics.add("attack_benign", u64::from(self.benign));
        metrics.add("attack_timeout", u64::from(self.timeout));
        metrics.add("attack_static_detected", u64::from(self.static_detected));
        metrics.add("attack_oracle_true_pos", u64::from(self.oracle_true_pos));
        metrics.add("attack_oracle_false_pos", u64::from(self.oracle_false_pos));
        metrics.add("attack_oracle_false_neg", u64::from(self.oracle_false_neg));
        metrics.add("attack_oracle_true_neg", u64::from(self.oracle_true_neg));
        for (cause, count) in &self.causes {
            let name = match cause {
                DetectionCause::GuardFail => "attack_cause_guard_fail",
                DetectionCause::SpacingBound => "attack_cause_spacing_bound",
                DetectionCause::DecryptGarble => "attack_cause_decrypt_garble",
                DetectionCause::WildControlFlow => "attack_cause_wild_control_flow",
                DetectionCause::OtherFault => "attack_cause_other_fault",
            };
            metrics.add(name, u64::from(*count));
        }
        for &latency in &self.latencies {
            metrics.observe("attack_detection_latency", latency);
        }
    }

    fn record(&mut self, outcome: TrialOutcome, static_flagged: bool) {
        self.record_caused(outcome, static_flagged, None);
    }

    fn record_caused(
        &mut self,
        outcome: TrialOutcome,
        static_flagged: bool,
        cause: Option<DetectionCause>,
    ) {
        if outcome != TrialOutcome::Inapplicable {
            self.applied += 1;
            if static_flagged {
                self.static_detected += 1;
            }
        }
        if let Some(cause) = cause {
            *self.causes.entry(cause).or_insert(0) += 1;
        }
        match outcome {
            TrialOutcome::Detected { latency_instrs } => {
                self.detected += 1;
                self.latency_sum += latency_instrs;
                self.latencies.push(latency_instrs);
            }
            TrialOutcome::Faulted => self.faulted += 1,
            TrialOutcome::WrongOutput => self.wrong_output += 1,
            TrialOutcome::Benign => self.benign += 1,
            TrialOutcome::Timeout => self.timeout += 1,
            TrialOutcome::Inapplicable => {}
        }
    }

    /// Scores one oracle prediction against the trial's dynamic ground
    /// truth. Only *effective* trials count — benign mutations exercise
    /// nothing (the oracle may flag an edit in dead code that never runs)
    /// and inapplicable ones mutated nothing.
    fn record_prediction(&mut self, outcome: TrialOutcome, predicted: bool) {
        let caught = matches!(
            outcome,
            TrialOutcome::Detected { .. } | TrialOutcome::Faulted
        );
        let effective = !matches!(outcome, TrialOutcome::Benign | TrialOutcome::Inapplicable);
        if !effective {
            return;
        }
        match (predicted, caught) {
            (true, true) => self.oracle_true_pos += 1,
            (true, false) => self.oracle_false_pos += 1,
            (false, true) => self.oracle_false_neg += 1,
            (false, false) => self.oracle_true_neg += 1,
        }
    }
}

/// Whether the static verifier flags `image` against `config` — the
/// zero-execution detection baseline. A tampered image caught here never
/// needs to run at all; compare with the runtime latencies the dynamic
/// trials measure.
pub fn static_detects(image: &Image, config: &SecMonConfig) -> bool {
    !flexprot_verify::verify(image, config).is_clean()
}

/// Classifies a finished attacked run from its result alone.
fn classify_result(
    result: &RunResult,
    expected_output: &str,
) -> (TrialOutcome, Option<DetectionCause>) {
    let outcome = match result.outcome {
        Outcome::TamperDetected(_) => TrialOutcome::Detected {
            latency_instrs: result.stats.instructions,
        },
        Outcome::Fault(_) => TrialOutcome::Faulted,
        Outcome::OutOfFuel => TrialOutcome::Timeout,
        Outcome::Exit(0) if result.output == expected_output => TrialOutcome::Benign,
        Outcome::Exit(_) => TrialOutcome::WrongOutput,
    };
    let cause = match &result.outcome {
        // A tamper detection carries the monitor's own trip cause.
        Outcome::TamperDetected(event) => Some(match event.cause {
            TamperCause::SpacingBound { .. } => DetectionCause::SpacingBound,
            _ => DetectionCause::GuardFail,
        }),
        Outcome::Fault(Fault::IllegalInstruction { .. }) => Some(DetectionCause::DecryptGarble),
        Outcome::Fault(Fault::WildPc { .. }) => Some(DetectionCause::WildControlFlow),
        Outcome::Fault(_) => Some(DetectionCause::OtherFault),
        Outcome::Exit(_) | Outcome::OutOfFuel => None,
    };
    (outcome, cause)
}

/// The campaign simulator config for a program whose clean run commits
/// `baseline_instructions`: `sim` with fuel of four times the baseline
/// plus 10 000 instructions. Attacked binaries can loop, so the fuel must
/// be bounded; the slack lets a mutation that only slows the program
/// still finish. Every simulated campaign over a workload grid uses this
/// rule.
pub fn campaign_sim(baseline_instructions: u64, sim: &SimConfig) -> SimConfig {
    SimConfig {
        max_instructions: baseline_instructions * 4 + 10_000,
        ..sim.clone()
    }
}

/// Runs `trials` randomized instances of `attack` and aggregates them.
///
/// The fuel limit in `sim` should come from [`campaign_sim`]. The static
/// oracle is built once from the pristine image and serves every trial.
///
/// One simulator [`Machine`] is re-armed across trials (its page table
/// and cache arrays are reused), which matters when an engine batches
/// hundreds of attack cells; the classification is identical to running
/// each trial on a fresh machine.
pub fn evaluate(
    protected: &Protected,
    expected_output: &str,
    attack: Attack,
    trials: u32,
    seed: u64,
    sim: &SimConfig,
) -> AttackSummary {
    let mut rng = Rng64::new(seed);
    let oracle = StaticOracle::new(&protected.image, &protected.secmon);
    let mutate = |_, image: &mut Image| attack.apply(image, &mut rng);
    campaign(protected, &oracle, expected_output, trials, sim, mutate)
}

/// The graph-aware attacker: NOPs out single words following the
/// [`StaticOracle::target_plan`] ranking — cheapest defeat closures
/// (min-cut guards, uncovered surface words) first, cycling through the
/// plan when `trials` exceeds it. Deterministic: no randomness is
/// consumed. Compare against [`evaluate_random_nop`] with the same trial
/// count to measure what the network analysis buys the attacker.
///
/// `oracle` must have been built from `protected.image` and
/// `protected.secmon`.
pub fn evaluate_targeted(
    protected: &Protected,
    oracle: &StaticOracle,
    expected_output: &str,
    trials: u32,
    sim: &SimConfig,
) -> AttackSummary {
    let targets: Vec<usize> = oracle
        .target_plan()
        .into_iter()
        .filter(|&i| protected.image.text[i] != Inst::NOP.encode())
        .collect();
    let mutate = |trial: u32, image: &mut Image| {
        let plan_step = targets.get(trial as usize % targets.len().max(1));
        plan_step.is_some_and(|&index| nop_out(image, index))
    };
    campaign(protected, oracle, expected_output, trials, sim, mutate)
}

/// The baseline the targeted attacker is judged against: NOPs out one
/// *uniformly random* text word per trial — the same single-word edit
/// budget as [`evaluate_targeted`], without the plan. `oracle` is built
/// from the same build, as there.
pub fn evaluate_random_nop(
    protected: &Protected,
    oracle: &StaticOracle,
    expected_output: &str,
    trials: u32,
    seed: u64,
    sim: &SimConfig,
) -> AttackSummary {
    let mut rng = Rng64::new(seed);
    let mutate = |_, image: &mut Image| {
        let index = rng.index(image.text.len());
        nop_out(image, index)
    };
    campaign(protected, oracle, expected_output, trials, sim, mutate)
}

/// NOPs out word `index`; `false` (nothing to edit) when it already is one.
fn nop_out(image: &mut Image, index: usize) -> bool {
    let nop = Inst::NOP.encode();
    if image.text[index] == nop {
        return false;
    }
    image.text[index] = nop;
    true
}

/// The one trial loop of every simulated campaign.
///
/// Trial `t` clones the pristine build and hands its image to
/// `mutate(t, ..)`, which edits it in place or returns `false` when the
/// attack found no site (the trial is then recorded
/// [`TrialOutcome::Inapplicable`]). An applied mutation is scored by the
/// static baseline and the oracle prediction, then run untraced on one
/// lazily built, re-armed machine and classified from its result.
fn campaign(
    protected: &Protected,
    oracle: &StaticOracle,
    expected_output: &str,
    trials: u32,
    sim: &SimConfig,
    mut mutate: impl FnMut(u32, &mut Image) -> bool,
) -> AttackSummary {
    let mut summary = AttackSummary::default();
    let mut machine: Option<Machine<SecMon>> = None;
    for trial in 0..trials {
        let mut mutated = protected.clone();
        if !mutate(trial, &mut mutated.image) {
            summary.record(TrialOutcome::Inapplicable, false);
            continue;
        }
        let flagged = static_detects(&mutated.image, &mutated.secmon);
        let predicted = oracle.predicts(&protected.image, &mutated.image);
        match machine.as_mut() {
            Some(m) => mutated.rearm(m),
            None => machine = Some(mutated.machine(sim.clone())),
        }
        let m = machine.as_mut().expect("machine built on first trial");
        let result = m.run();
        let (outcome, cause) = classify_result(&result, expected_output);
        summary.record_caused(outcome, flagged, cause);
        summary.record_prediction(outcome, predicted);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
    use flexprot_sim::Machine;

    fn sample() -> (flexprot_isa::Image, String) {
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $s0, 0
        li   $t0, 20
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
        );
        let r = Machine::new(&image, SimConfig::default()).run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        (image, r.output)
    }

    fn fast_sim() -> SimConfig {
        SimConfig {
            max_instructions: 100_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn unprotected_binary_lets_attacks_through() {
        let (image, expected) = sample();
        let unprotected = protect(&image, &ProtectionConfig::new(), None).unwrap();
        let summary = evaluate(
            &unprotected,
            &expected,
            Attack::BranchFlip,
            40,
            7,
            &fast_sim(),
        );
        assert_eq!(summary.detected, 0, "no monitor, no detections");
        assert!(
            summary.wrong_output > 0,
            "branch flips must corrupt semantics sometimes: {summary:?}"
        );
    }

    #[test]
    fn guarded_binary_detects_bitflips() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(&protected, &expected, Attack::BitFlip, 40, 7, &fast_sim());
        assert!(
            summary.detected > 0,
            "full-density guards must detect some flips: {summary:?}"
        );
        assert!(summary.detection_rate() > 0.5, "{summary:?}");
        assert!(summary.mean_latency().is_some());
    }

    #[test]
    fn encrypted_binary_turns_patches_into_garbage() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xC0DE));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(
            &protected,
            &expected,
            Attack::CodeInject,
            30,
            11,
            &fast_sim(),
        );
        // The attacker's plaintext payload decrypts to junk: never a clean
        // wrong-output win.
        assert_eq!(
            summary.wrong_output, 0,
            "injection into ciphertext must not succeed cleanly: {summary:?}"
        );
    }

    #[test]
    fn code_inject_succeeds_on_unprotected_plaintext() {
        let (image, expected) = sample();
        let unprotected = protect(&image, &ProtectionConfig::new(), None).unwrap();
        let summary = evaluate(
            &unprotected,
            &expected,
            Attack::CodeInject,
            30,
            11,
            &fast_sim(),
        );
        assert!(
            summary.wrong_output > 0,
            "payload injection must work on unprotected code: {summary:?}"
        );
    }

    #[test]
    fn static_baseline_flags_every_effective_tamper() {
        // With full-density guards and relocation records, every mutation
        // that changes runtime behaviour perturbs a signed bit, so the
        // static verifier must flag it before a single instruction runs.
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let mut rng = Rng64::new(21);
        let (mut flagged, mut effective) = (0u32, 0u32);
        for attack in [Attack::BitFlip, Attack::BranchFlip, Attack::NopOut] {
            for _ in 0..12 {
                let mut mutated = protected.clone();
                if !attack.apply(&mut mutated.image, &mut rng) {
                    continue;
                }
                let statically = static_detects(&mutated.image, &mutated.secmon);
                let (outcome, _) = classify_result(&mutated.run(fast_sim()), &expected);
                if !matches!(outcome, TrialOutcome::Benign | TrialOutcome::Inapplicable) {
                    effective += 1;
                    assert!(
                        statically,
                        "{}: dynamic {outcome:?} but static verification missed it",
                        attack.name()
                    );
                }
                if statically {
                    flagged += 1;
                }
            }
        }
        assert!(effective > 0, "the attack mix must perturb something");
        assert!(flagged >= effective);
    }

    #[test]
    fn evaluate_reports_the_static_baseline() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(&protected, &expected, Attack::BitFlip, 40, 7, &fast_sim());
        assert!(summary.static_detected > 0, "{summary:?}");
        assert!(summary.static_detection_rate() > 0.5, "{summary:?}");
        assert!(
            summary.static_detected >= summary.detected + summary.faulted + summary.wrong_output,
            "static must dominate the dynamic outcomes: {summary:?}"
        );
    }

    #[test]
    fn oracle_scores_track_dynamic_ground_truth() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(&protected, &expected, Attack::BitFlip, 40, 7, &fast_sim());
        assert!(summary.oracle_trials() > 0, "{summary:?}");
        assert!(summary.oracle_precision() >= 0.9, "{summary:?}");
        assert!(summary.oracle_recall() >= 0.9, "{summary:?}");
    }

    #[test]
    fn guard_detections_are_attributed_to_guard_fail_events() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(&protected, &expected, Attack::BitFlip, 40, 7, &fast_sim());
        assert!(summary.detected > 0, "{summary:?}");
        // Every monitor detection on a guards-only binary is proven by a
        // guard-machinery event, never by a decrypt fault.
        assert_eq!(
            summary.cause_count(DetectionCause::GuardFail)
                + summary.cause_count(DetectionCause::SpacingBound),
            summary.detected,
            "{summary:?}"
        );
        // Faults, if any, carry their own causes; totals must reconcile.
        let total: u32 = summary.causes.values().sum();
        assert_eq!(total, summary.detected + summary.faulted, "{summary:?}");
    }

    #[test]
    fn injection_into_ciphertext_is_attributed_to_decrypt_garble() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xC0DE));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(
            &protected,
            &expected,
            Attack::CodeInject,
            30,
            11,
            &fast_sim(),
        );
        // No guards here: whatever got caught was caught by the decrypt
        // path turning the payload into garbage (illegal decode or wild
        // control flow), never by a guard event.
        assert_eq!(summary.cause_count(DetectionCause::GuardFail), 0);
        assert_eq!(summary.cause_count(DetectionCause::SpacingBound), 0);
        assert!(
            summary.cause_count(DetectionCause::DecryptGarble)
                + summary.cause_count(DetectionCause::WildControlFlow)
                + summary.cause_count(DetectionCause::OtherFault)
                > 0,
            "{summary:?}"
        );
    }

    #[test]
    fn machine_reuse_matches_fresh_machine_per_trial() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let reused = evaluate(&protected, &expected, Attack::BitFlip, 30, 9, &fast_sim());
        // Replay the identical trial stream, but classify each mutation on
        // a freshly constructed machine.
        let mut rng = Rng64::new(9);
        let mut fresh = AttackSummary::default();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        for _ in 0..30 {
            let mut mutated = protected.clone();
            if !Attack::BitFlip.apply(&mut mutated.image, &mut rng) {
                fresh.record(TrialOutcome::Inapplicable, false);
                continue;
            }
            let flagged = static_detects(&mutated.image, &mutated.secmon);
            let predicted = oracle.predicts(&protected.image, &mutated.image);
            let (outcome, cause) = classify_result(&mutated.run(fast_sim()), &expected);
            fresh.record_caused(outcome, flagged, cause);
            fresh.record_prediction(outcome, predicted);
        }
        assert_eq!(reused, fresh, "re-arming must not change classification");
        assert!(reused.applied > 0);
    }

    #[test]
    fn targeted_plan_beats_random_nops_on_sparse_guards() {
        let (image, expected) = sample();
        // A quarter-density network: most words are uncovered and the
        // who-checks-whom graph is weakly connected, so the plan's
        // zero-cost words are real attack surface.
        let config = ProtectionConfig::new().with_guards(GuardConfig {
            key: 0x0BAD_C0DE_CAFE_F00D,
            ..GuardConfig::with_density(0.25)
        });
        let protected = protect(&image, &config, None).unwrap();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        let targeted = evaluate_targeted(&protected, &oracle, &expected, 40, &fast_sim());
        let random = evaluate_random_nop(&protected, &oracle, &expected, 40, 7, &fast_sim());
        assert!(targeted.applied > 0 && random.applied > 0);
        assert!(
            targeted.attacker_success_rate() > random.attacker_success_rate(),
            "plan-driven NOPs must beat blind NOPs on a weak network:\n\
             targeted {targeted:?}\nrandom {random:?}"
        );
    }

    #[test]
    fn targeted_attack_is_deterministic_and_contained_by_dense_guards() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        let a = evaluate_targeted(&protected, &oracle, &expected, 25, &fast_sim());
        let b = evaluate_targeted(&protected, &oracle, &expected, 25, &fast_sim());
        assert_eq!(a, b, "no randomness is consumed");
        assert_eq!(
            a.wrong_output, 0,
            "full-density coverage leaves the planner nothing free: {a:?}"
        );
        assert!(a.oracle_precision() >= 0.9, "{a:?}");
        assert!(a.oracle_recall() >= 0.9, "{a:?}");
    }

    #[test]
    fn export_metrics_mirrors_the_tallies() {
        let (image, expected) = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let summary = evaluate(&protected, &expected, Attack::BitFlip, 40, 7, &fast_sim());
        let mut metrics = Metrics::new();
        summary.export_metrics(&mut metrics);
        assert_eq!(
            metrics.counter("attack_trials_applied"),
            u64::from(summary.applied)
        );
        assert_eq!(
            metrics.counter("attack_detected"),
            u64::from(summary.detected)
        );
        let histogram = metrics
            .histogram("attack_detection_latency")
            .expect("latency histogram");
        assert_eq!(histogram.count(), summary.latencies.len() as u64);
        assert_eq!(histogram.sum(), summary.latency_sum);
        // Exporting twice doubles the counters (additive contract).
        summary.export_metrics(&mut metrics);
        assert_eq!(
            metrics.counter("attack_trials_applied"),
            2 * u64::from(summary.applied)
        );
    }

    #[test]
    fn latency_quantiles() {
        let mut s = AttackSummary::default();
        for latency in [10u64, 20, 30, 40, 50] {
            s.record(
                TrialOutcome::Detected {
                    latency_instrs: latency,
                },
                true,
            );
        }
        assert_eq!(s.latency_quantile(0.0), Some(10));
        assert_eq!(s.latency_quantile(0.5), Some(30));
        assert_eq!(s.latency_quantile(1.0), Some(50));
        assert_eq!(AttackSummary::default().latency_quantile(0.5), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AttackSummary::default();
        a.record(TrialOutcome::Detected { latency_instrs: 5 }, true);
        let mut b = AttackSummary::default();
        b.record(TrialOutcome::WrongOutput, true);
        b.record(TrialOutcome::Benign, false);
        a.merge(&b);
        assert_eq!(a.applied, 3);
        assert_eq!(a.detected, 1);
        assert_eq!(a.wrong_output, 1);
        assert_eq!(a.benign, 1);
    }

    #[test]
    fn summary_rates_are_consistent() {
        let mut s = AttackSummary::default();
        s.record(TrialOutcome::Detected { latency_instrs: 10 }, true);
        s.record(TrialOutcome::Detected { latency_instrs: 30 }, true);
        s.record(TrialOutcome::WrongOutput, false);
        s.record(TrialOutcome::Benign, false);
        s.record(TrialOutcome::Inapplicable, false);
        assert_eq!(s.applied, 4);
        assert_eq!(s.detection_rate(), 2.0 / 3.0);
        assert_eq!(s.attacker_success_rate(), 0.25);
        assert_eq!(s.mean_latency(), Some(20.0));
    }

    #[test]
    fn all_benign_counts_as_full_detection() {
        let mut s = AttackSummary::default();
        s.record(TrialOutcome::Benign, false);
        assert_eq!(s.detection_rate(), 1.0);
        assert_eq!(s.mean_latency(), None);
    }
}
