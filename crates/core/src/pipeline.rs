//! The end-to-end protection pipeline.
//!
//! [`protect`] chains the two passes in their required order — guards on
//! plaintext, then encryption on the final layout — and merges the hardware
//! configuration both halves need into one [`SecMonConfig`].

use flexprot_isa::Image;
use flexprot_secmon::{SecMon, SecMonConfig};
use flexprot_sim::{Machine, RunResult, SimConfig};

use crate::encrypt::{encrypt_text, EncryptConfig};
use crate::error::ProtectError;
use crate::guards::{insert_guards, GuardConfig, Selection};
use crate::optimize::Plan;
use crate::profile::Profile;
use crate::watermark;

/// What to apply: either, both, or neither layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtectionConfig {
    /// Guard layer, if enabled.
    pub guards: Option<GuardConfig>,
    /// Encryption layer, if enabled.
    pub encryption: Option<EncryptConfig>,
    /// Covert payload embedded in the guard salt channel (requires the
    /// guard layer; applied before encryption).
    pub watermark: Option<Vec<u8>>,
    /// Run the translation validator (`flexprot-verify`'s `equiv`) as a
    /// mandatory self-check: refuse to ship unless the protected image is
    /// *proven* semantically equivalent to the baseline (default false —
    /// the lighter invariant verification always runs).
    pub validate_translation: bool,
    /// Run the key-flow taint analysis (`flexprot-verify`'s `taint`) as a
    /// mandatory post-condition: refuse to ship when key-derived data
    /// provably escapes to an observable sink (FP901/FP902; default
    /// false).
    pub key_flow_check: bool,
}

impl ProtectionConfig {
    /// Both layers off; enable via the builder-style helpers.
    pub fn new() -> ProtectionConfig {
        Self::default()
    }

    /// Enables the guard layer.
    pub fn with_guards(mut self, guards: GuardConfig) -> ProtectionConfig {
        self.guards = Some(guards);
        self
    }

    /// Enables the encryption layer.
    pub fn with_encryption(mut self, encryption: EncryptConfig) -> ProtectionConfig {
        self.encryption = Some(encryption);
        self
    }

    /// Embeds a covert payload in the guard salt channel (see
    /// [`crate::watermark`]). Requires [`ProtectionConfig::with_guards`].
    pub fn with_watermark(mut self, payload: impl Into<Vec<u8>>) -> ProtectionConfig {
        self.watermark = Some(payload.into());
        self
    }

    /// Makes the translation validator a mandatory self-check:
    /// [`protect`] fails with [`ProtectError::TranslationUnproven`] unless
    /// the protected image is *proven* equivalent to the baseline.
    pub fn with_translation_validation(mut self) -> ProtectionConfig {
        self.validate_translation = true;
        self
    }

    /// Makes the key-flow taint analysis a mandatory post-condition:
    /// [`protect`] fails with [`ProtectError::KeyFlowLeak`] when key-derived
    /// data (a ciphertext read) provably reaches an observable sink —
    /// a store outside every encrypted region (FP901) or a syscall operand
    /// (FP902).
    pub fn with_key_flow_check(mut self) -> ProtectionConfig {
        self.key_flow_check = true;
        self
    }

    /// Builds a configuration from an optimizer [`Plan`].
    ///
    /// Functions with a positive guard density go into a per-function guard
    /// selection; functions marked for encryption form the encryption scope.
    pub fn from_plan(plan: &Plan, guards: GuardConfig, encryption: EncryptConfig) -> Self {
        let densities: std::collections::BTreeMap<String, f64> = plan
            .functions
            .iter()
            .filter(|(_, fp)| fp.guard_density > 0.0)
            .map(|(name, fp)| (name.clone(), fp.guard_density))
            .collect();
        let scope: std::collections::BTreeSet<String> = plan
            .functions
            .iter()
            .filter(|(_, fp)| fp.encrypt)
            .map(|(name, _)| name.clone())
            .collect();
        let mut config = ProtectionConfig::new();
        if !densities.is_empty() {
            config.guards = Some(GuardConfig {
                selection: Selection::PerFunction(densities),
                ..guards
            });
        }
        if !scope.is_empty() {
            config.encryption = Some(EncryptConfig {
                scope: Some(scope),
                ..encryption
            });
        }
        config
    }
}

/// Summary of what a protection run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtectReport {
    /// Guard sequences inserted.
    pub guards_inserted: usize,
    /// Text words before protection.
    pub text_words_before: usize,
    /// Text words after protection.
    pub text_words_after: usize,
    /// Encrypted regions configured.
    pub encrypted_regions: usize,
    /// Spacing bound provisioned, if any.
    pub spacing_bound: Option<u64>,
}

impl ProtectReport {
    /// Static code-size overhead, e.g. `0.08` for +8%.
    pub fn size_overhead_fraction(&self) -> f64 {
        if self.text_words_before == 0 {
            0.0
        } else {
            (self.text_words_after - self.text_words_before) as f64 / self.text_words_before as f64
        }
    }
}

/// A protected program: the rewritten/encrypted image plus the hardware
/// configuration that must be provisioned alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Protected {
    /// The shipped binary.
    pub image: Image,
    /// The secure monitor's configuration.
    pub secmon: SecMonConfig,
    /// Build report.
    pub report: ProtectReport,
}

impl Protected {
    /// Builds a ready-to-run machine (image + provisioned monitor).
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry in `config` is invalid.
    pub fn machine(&self, config: SimConfig) -> Machine<SecMon> {
        Machine::with_monitor(&self.image, config, SecMon::new(self.secmon.clone()))
    }

    /// Re-arms an existing machine to run this protected program: it
    /// becomes the machine [`Protected::machine`] builds under its config,
    /// with a freshly provisioned monitor and no sink
    /// ([`Machine::rearm`]).
    pub fn rearm(&self, machine: &mut Machine<SecMon>) {
        machine.rearm(&self.image, SecMon::new(self.secmon.clone()));
    }

    /// Translation-validates the shipped image against its baseline:
    /// alignment modulo guard insertion, guard-window transparency, and
    /// cipher round-trip identity (see `flexprot-verify`'s `equiv` module).
    pub fn validate_against(&self, base: &Image) -> flexprot_verify::EquivReport {
        flexprot_verify::equiv::validate(base, &self.image, &self.secmon)
    }

    /// Runs the protected program to completion.
    pub fn run(&self, config: SimConfig) -> RunResult {
        self.machine(config).run()
    }

    /// Recovers a watermark of `payload_len` bytes from the shipped image
    /// (decrypting the text through the monitor's region table first).
    ///
    /// Returns `None` when no guard schedule is present or the image lacks
    /// the guard sites.
    pub fn extract_watermark(&self, payload_len: usize) -> Option<Vec<u8>> {
        let mut plaintext = self.image.clone();
        plaintext.text = flexprot_verify::decrypt_text(&self.image, &self.secmon);
        watermark::extract(&plaintext, &self.secmon, payload_len)
    }
}

/// Applies the configured protection layers to `image`.
///
/// # Errors
///
/// Propagates pass failures: CFG recovery, missing relocations, relocation
/// overflow or bad parameters.
pub fn protect(
    image: &Image,
    config: &ProtectionConfig,
    profile: Option<&Profile>,
) -> Result<Protected, ProtectError> {
    let text_words_before = image.text.len();
    let mut secmon = SecMonConfig::transparent();

    let mut current = image.clone();
    let mut guards_inserted = 0;
    if let Some(guard_config) = &config.guards {
        let outcome = insert_guards(&current, guard_config, profile)?;
        guards_inserted = outcome.guards_inserted;
        secmon.guard_key = outcome.key;
        secmon.sites = outcome.sites;
        secmon.window_starts = outcome.window_starts;
        secmon.protected = outcome.protected;
        secmon.reset_points = outcome.reset_points;
        secmon.spacing_bound = outcome.spacing_bound;
        current = outcome.image;
    }
    if let Some(payload) = &config.watermark {
        if config.guards.is_none() {
            return Err(ProtectError::BadConfig(
                "watermarking requires the guard layer".into(),
            ));
        }
        watermark::embed(&mut current, &secmon, payload)?;
    }

    let mut encrypted_regions = 0;
    if let Some(enc_config) = &config.encryption {
        let outcome = encrypt_text(&current, enc_config)?;
        encrypted_regions = outcome.regions.regions().len();
        secmon.regions = outcome.regions;
        secmon.decrypt = outcome.model;
        current = outcome.image;
    }

    let report = ProtectReport {
        guards_inserted,
        text_words_before,
        text_words_after: current.text.len(),
        encrypted_regions,
        spacing_bound: secmon.spacing_bound,
    };
    let protected = Protected {
        image: current,
        secmon,
        report,
    };

    // N-version self-check: the independent verifier must be able to prove
    // every invariant this pipeline claims to have established. Refusing to
    // ship an unprovable image turns silent rewriting bugs into build
    // failures. One fact base serves this check and both optional
    // post-conditions, and one analysis serves this check and the key-flow
    // post-condition; its FP9xx taint findings belong to the latter only.
    let shipped = flexprot_verify::Shipped::new(&protected.image, &protected.secmon);
    let policy = flexprot_verify::LintPolicy::default();
    let verification = shipped.analyze(&policy, config.key_flow_check);
    let errors = |taint: bool| {
        verification.report.findings.iter().filter(move |f| {
            f.severity == flexprot_verify::Severity::Error && f.id.starts_with("FP9") == taint
        })
    };
    if let Some(first) = errors(false).next() {
        return Err(ProtectError::VerificationFailed {
            errors: errors(false).count(),
            first: first.to_string(),
        });
    }

    // Key-flow post-condition: forward taint from the cipher-key material
    // (every in-region ciphertext read) must not reach an observable sink.
    // A leak here means the protected program itself re-publishes what the
    // encryption layer was meant to hide.
    if let Some(first) = errors(true).next() {
        return Err(ProtectError::KeyFlowLeak {
            errors: errors(true).count(),
            witness: first.addr,
            first: first.to_string(),
        });
    }

    // Optional stronger self-check: translation validation proves the
    // transform semantics-preserving (guard windows architecturally inert,
    // ciphertext round-trips to the baseline stream), not merely that the
    // shipped image satisfies the protection invariants.
    if config.validate_translation {
        let equiv = shipped.validate(image, &policy);
        match equiv.verdict {
            flexprot_verify::EquivVerdict::Proven => {}
            flexprot_verify::EquivVerdict::Inequivalent { witness_addr } => {
                return Err(ProtectError::TranslationUnproven {
                    verdict: "inequivalent",
                    witness: Some(witness_addr),
                    first: equiv
                        .findings
                        .iter()
                        .find(|f| f.severity == flexprot_verify::Severity::Error)
                        .map(|f| f.to_string())
                        .unwrap_or_default(),
                });
            }
            flexprot_verify::EquivVerdict::Refused { reason } => {
                return Err(ProtectError::TranslationUnproven {
                    verdict: "refused",
                    witness: None,
                    first: reason.to_string(),
                });
            }
        }
    }
    Ok(protected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_sim::Outcome;

    const SRC: &str = r#"
        .data
tab:    .word 3, 1, 4, 1, 5, 9, 2, 6
        .text
main:   la   $s0, tab
        li   $s1, 8
        li   $s2, 0
loop:   lw   $t0, 0($s0)
        jal  fold
        addi $s0, $s0, 4
        addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $s2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
fold:   mul  $t1, $t0, $t0
        addu $s2, $s2, $t1
        jr   $ra
"#;

    fn baseline() -> (Image, RunResult) {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let r = Machine::new(&image, SimConfig::default()).run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        (image, r)
    }

    #[test]
    fn empty_config_is_transparent() {
        let (image, base) = baseline();
        let protected = protect(&image, &ProtectionConfig::new(), None).unwrap();
        assert_eq!(protected.image.text, image.text);
        let r = protected.run(SimConfig::default());
        assert_eq!(r.output, base.output);
        assert_eq!(r.stats.cycles, base.stats.cycles);
        assert_eq!(protected.report.size_overhead_fraction(), 0.0);
    }

    #[test]
    fn default_config_ships_a_halting_monitor() {
        // `default()` and `new()` are one configuration: a tamper event
        // stops the run.
        let (image, _) = baseline();
        assert_eq!(ProtectionConfig::default(), ProtectionConfig::new());
        let config = ProtectionConfig::default().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        assert!(protected.secmon.halt_on_tamper);
    }

    #[test]
    fn guards_only_pipeline() {
        let (image, base) = baseline();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(0.5));
        let protected = protect(&image, &config, None).unwrap();
        assert!(protected.report.guards_inserted > 0);
        assert_eq!(protected.report.encrypted_regions, 0);
        let r = protected.run(SimConfig::default());
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, base.output);
        assert!(r.stats.cycles > base.stats.cycles);
    }

    #[test]
    fn encryption_only_pipeline() {
        let (image, base) = baseline();
        let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xFACE));
        let protected = protect(&image, &config, None).unwrap();
        assert_eq!(protected.report.guards_inserted, 0);
        assert_eq!(protected.report.encrypted_regions, 1);
        let r = protected.run(SimConfig::default());
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, base.output);
        assert!(r.stats.monitor_fill_cycles > 0);
    }

    #[test]
    fn guard_net_proves_every_emitted_constant() {
        let (image, _) = baseline();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let v = flexprot_verify::analyze(&protected.image, &protected.secmon, &Default::default());
        let (net, proofs) = (v.guardnet, v.proofs);
        assert_eq!(proofs.len(), protected.report.guards_inserted);
        // The emitter keeps hash windows disjoint, so the who-checks-whom
        // digraph of its output is edgeless — the verifier reports that
        // honestly rather than inventing edges.
        assert_eq!(net.edges, 0);
        assert!(
            proofs
                .iter()
                .all(|p| matches!(p.verdict, flexprot_verify::Verdict::Proven { .. })),
            "every untampered guard constant must be provable: {proofs:?}"
        );
    }

    #[test]
    fn combined_pipeline_runs_and_costs_more() {
        let (image, base) = baseline();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xFACE));
        let protected = protect(&image, &config, None).unwrap();
        let r = protected.run(SimConfig::default());
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, base.output);
        assert!(r.stats.cycles > base.stats.cycles);
        assert!(protected.report.size_overhead_fraction() > 0.0);
    }

    #[test]
    fn translation_validation_self_check_ships_clean_output() {
        let (image, _) = baseline();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xFACE))
            .with_translation_validation();
        let protected = protect(&image, &config, None).unwrap();
        // And the convenience accessor reproduces the proof on demand.
        let report = protected.validate_against(&image);
        assert_eq!(report.verdict, flexprot_verify::EquivVerdict::Proven);
        assert!(report.refusals.is_empty());
    }

    #[test]
    fn combined_pipeline_detects_ciphertext_tamper() {
        let (image, _) = baseline();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xFACE));
        let mut protected = protect(&image, &config, None).unwrap();
        // Flip one ciphertext bit: post-decrypt garbage must be caught by a
        // guard, a decode fault or wild control flow — never a clean exit
        // with wrong output going unnoticed by *hardware* (output equality
        // is checked separately in the attack harness).
        protected.image.text[2] ^= 1 << 20;
        let limited = SimConfig {
            max_instructions: 1_000_000,
            ..SimConfig::default()
        };
        let r = protected.run(limited);
        assert_ne!(r.outcome, Outcome::Exit(0));
    }

    #[test]
    fn protected_run_metrics_carry_the_monitor_counters() {
        let (image, base) = baseline();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xFACE))
            .with_watermark(*b"WM");
        let protected = protect(&image, &config, None).unwrap();
        let mut machine = protected.machine(SimConfig::default());
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, base.output);
        // One registry tells the whole run: guard checks from the
        // monitor, the simulator's totals and the decrypt unit's work.
        let m = machine.metrics();
        assert!(m.counter("guard_checks_passed") > 0);
        assert!(m.counter("guard_sites_passed") <= protected.report.guards_inserted as u64);
        assert_eq!(m.counter("sim_cycles"), r.stats.cycles);
        assert_eq!(m.counter("instructions_committed"), r.stats.instructions);
        assert!(m.counter("decrypt_unit_cycles") > 0);
        assert_eq!(
            m.counter("decrypt_stall_cycles"),
            r.stats.monitor_fill_cycles
        );
    }

    #[test]
    fn rearmed_machine_matches_fresh_machine() {
        let (image, _) = baseline();
        let guarded = protect(
            &image,
            &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
            None,
        )
        .unwrap();
        let encrypted = protect(
            &image,
            &ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xFACE)),
            None,
        )
        .unwrap();
        let fresh_guarded = guarded.run(SimConfig::default());
        let fresh_encrypted = encrypted.run(SimConfig::default());
        let mut machine = guarded.machine(SimConfig::default());
        machine.run();
        encrypted.rearm(&mut machine);
        assert_eq!(machine.run(), fresh_encrypted);
        guarded.rearm(&mut machine);
        assert_eq!(machine.run(), fresh_guarded);
    }

    #[test]
    fn from_plan_builds_scoped_config() {
        use crate::optimize::{FunctionPlan, Plan};
        let mut plan = Plan::default();
        plan.functions.insert(
            "fold".to_owned(),
            FunctionPlan {
                guard_density: 1.0,
                encrypt: true,
            },
        );
        let config = ProtectionConfig::from_plan(
            &plan,
            GuardConfig::with_density(0.0),
            EncryptConfig::whole_program(0xFACE),
        );
        let (image, base) = baseline();
        let protected = protect(&image, &config, None).unwrap();
        assert!(protected.report.guards_inserted >= 1);
        assert!(protected.report.encrypted_regions >= 1);
        let r = protected.run(SimConfig::default());
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, base.output);
    }

    #[test]
    fn empty_plan_yields_empty_config() {
        let plan = Plan::default();
        let config = ProtectionConfig::from_plan(
            &plan,
            GuardConfig::with_density(0.0),
            EncryptConfig::whole_program(1),
        );
        assert!(config.guards.is_none());
        assert!(config.encryption.is_none());
    }
}

#[cfg(test)]
mod watermark_pipeline_tests {
    use super::*;
    use flexprot_sim::Outcome;

    const SRC: &str = r#"
main:   li   $t0, 9
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        li   $v0, 10
        syscall
"#;

    #[test]
    fn watermark_survives_guards_and_encryption() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xABCD))
            .with_watermark(*b"ID7");
        let protected = protect(&image, &config, None).unwrap();
        // The shipped binary runs clean...
        let run = protected.run(SimConfig::default());
        assert_eq!(run.outcome, Outcome::Exit(0));
        // ...and the payload is recoverable through the decryption table.
        assert_eq!(protected.extract_watermark(3).as_deref(), Some(&b"ID7"[..]));
    }

    #[test]
    fn watermark_without_guards_is_rejected() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = ProtectionConfig::new().with_watermark(*b"X");
        assert!(matches!(
            protect(&image, &config, None),
            Err(ProtectError::BadConfig(_))
        ));
    }

    #[test]
    fn oversized_watermark_is_rejected() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_watermark(vec![0xAA; 10_000]);
        assert!(matches!(
            protect(&image, &config, None),
            Err(ProtectError::BadConfig(_))
        ));
    }
}
