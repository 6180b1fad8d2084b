//! End-to-end properties of the verifier against the real pipeline.
//!
//! Two families: every image the protection pipeline produces must verify
//! clean across a randomized configuration matrix, and every static
//! mutation of a fully guarded image must produce at least one
//! error-severity finding with a stable lint ID.

use flexprot_core::{protect, EncryptConfig, GuardConfig, Placement, ProtectionConfig, Selection};
use flexprot_isa::{Inst, Rng64};
use flexprot_secmon::SecMonConfig;
use flexprot_sim::{Outcome, SimConfig};
use flexprot_verify::{analyze, verify, LintPolicy, Severity};

const LOOP_CALL: &str = r#"
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

const BRANCHY: &str = r#"
main:   li   $t0, 12
        li   $s0, 0
outer:  andi $t1, $t0, 1
        beq  $t1, $zero, even
        addi $s0, $s0, 3
        b    next
even:   addi $s0, $s0, 1
next:   addi $t0, $t0, -1
        bgtz $t0, outer
        move $a0, $s0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#;

fn guard_config(rng: &mut Rng64) -> GuardConfig {
    let placement = match rng.below(3) {
        0 => Placement::Uniform,
        1 => Placement::Random,
        _ => Placement::LoopHeaders,
    };
    GuardConfig {
        key: rng.next_u64(),
        seed: rng.next_u64(),
        placement,
        selection: Selection::Density(0.2 + 0.8 * rng.next_f64()),
        enforce_spacing: true,
    }
}

#[test]
fn pipeline_output_is_clean_across_random_configs() {
    let mut rng = Rng64::new(0xF1E2_D3C4);
    for src in [LOOP_CALL, BRANCHY] {
        let image = flexprot_asm::assemble_or_panic(src);
        for trial in 0..10 {
            let mut config = ProtectionConfig::new().with_guards(guard_config(&mut rng));
            if rng.chance(0.5) {
                config = config.with_encryption(EncryptConfig::whole_program(rng.next_u64()));
            }
            let protected = protect(&image, &config, None)
                .unwrap_or_else(|e| panic!("trial {trial}: protect failed: {e}"));
            let report = verify(&protected.image, &protected.secmon);
            assert!(
                report.is_clean(),
                "trial {trial}: verifier errors on pipeline output:\n{}",
                report.render_human()
            );
            assert_eq!(
                report.stats.sites_checked, protected.report.guards_inserted,
                "trial {trial}: every inserted guard must be rechecked"
            );
            if let (Some(max), Some(bound)) =
                (report.stats.max_spacing, protected.secmon.spacing_bound)
            {
                assert!(
                    max <= bound,
                    "trial {trial}: static max {max} > bound {bound}"
                );
            }
            // The image the verifier accepts must also run clean.
            let run = protected.run(SimConfig::default());
            assert_eq!(run.outcome, Outcome::Exit(0), "trial {trial}");
        }
    }
}

/// A fully guarded plaintext image plus its monitor configuration.
fn guarded() -> (flexprot_isa::Image, SecMonConfig) {
    let image = flexprot_asm::assemble_or_panic(LOOP_CALL);
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    let p = protect(&image, &config, None).unwrap();
    (p.image, p.secmon)
}

#[test]
fn guard_strip_yields_malformed_guard_errors() {
    let (mut image, secmon) = guarded();
    for &site in secmon.sites.keys() {
        let idx = image.text_index_of(site).unwrap();
        for k in 0..4 {
            image.text[idx + k] = Inst::NOP.encode();
        }
    }
    let report = verify(&image, &secmon);
    assert!(!report.is_clean());
    assert!(
        report.with_id("FP101").count() > 0,
        "stripping guards must raise FP101:\n{}",
        report.render_human()
    );
}

#[test]
fn every_single_word_nop_out_is_detected() {
    let (image, secmon) = guarded();
    let nop = Inst::NOP.encode();
    for index in 0..image.text.len() {
        if image.text[index] == nop {
            continue;
        }
        let mut mutated = image.clone();
        mutated.text[index] = nop;
        let report = verify(&mutated, &secmon);
        assert!(
            !report.is_clean(),
            "NOP at index {index} ({:#010x}) went undetected",
            image.addr_of_index(index)
        );
        assert!(
            report.count(Severity::Error) >= 1
                && (report.with_id("FP101").count() > 0
                    || report.with_id("FP102").count() > 0
                    || report.with_id("FP301").count() > 0),
            "NOP at index {index}: no stable guard/reloc lint fired:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn random_instruction_substitution_is_detected() {
    let (image, secmon) = guarded();
    let mut rng = Rng64::new(77);
    let mut detected = 0;
    let mut applied = 0;
    for _ in 0..40 {
        let index = rng.index(image.text.len());
        let replacement = Inst::Addi {
            rt: flexprot_isa::Reg::T0,
            rs: flexprot_isa::Reg::T0,
            imm: rng.next_i16(),
        }
        .encode();
        if image.text[index] == replacement {
            continue;
        }
        let mut mutated = image.clone();
        mutated.text[index] = replacement;
        applied += 1;
        if !verify(&mutated, &secmon).is_clean() {
            detected += 1;
        }
    }
    assert!(applied > 0);
    assert_eq!(
        detected, applied,
        "all substitutions in a fully guarded image must be detected"
    );
}

#[test]
fn ciphertext_tamper_is_detected_exactly_when_the_contract_signs_the_bit() {
    use flexprot_secmon::guard::{decode_guard_symbol, is_guard_form};

    let image = flexprot_asm::assemble_or_panic(LOOP_CALL);
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig::with_density(1.0))
        .with_encryption(EncryptConfig::whole_program(0xFACE));
    let p = protect(&image, &config, None).unwrap();
    let plain = flexprot_verify::decrypt_text(&p.image, &p.secmon);

    // Guard-word indices: their salt channel (rt high bits, pool funct
    // choice) is deliberately unsigned — the watermark travels there — so a
    // flip that keeps the shape and the symbol is inert to the hardware and
    // must be inert to the verifier too.
    let guard_words: std::collections::BTreeSet<usize> = p
        .secmon
        .sites
        .iter()
        .flat_map(|(&site, s)| {
            let si = p.image.text_index_of(site).unwrap();
            si..si + s.symbols as usize
        })
        .collect();

    let mut rng = Rng64::new(9);
    let (mut signed_flips, mut inert_flips) = (0, 0);
    for _ in 0..60 {
        let index = rng.index(p.image.text.len());
        let bit = 1u32 << rng.below(32);
        let mut mutated = p.image.clone();
        mutated.text[index] ^= bit;
        // XOR keystream: a ciphertext bit flip is the same plaintext bit flip.
        let flipped = plain[index] ^ bit;
        let inert = guard_words.contains(&index)
            && is_guard_form(flipped)
            && decode_guard_symbol(flipped) == decode_guard_symbol(plain[index]);
        let report = verify(&mutated, &p.secmon);
        if inert {
            inert_flips += 1;
            assert!(
                report.is_clean(),
                "salt-channel flip at index {index} must stay clean:\n{}",
                report.render_human()
            );
        } else {
            signed_flips += 1;
            assert!(
                !report.is_clean(),
                "ciphertext bit flip at index {index} (bit {bit:#010x}) went undetected:\n{}",
                report.render_human()
            );
        }
    }
    assert!(
        signed_flips > 0 && inert_flips > 0,
        "both classes must be exercised"
    );
}

#[test]
fn stripping_the_schedule_trips_the_spacing_dataflow() {
    // Attack model: the guard schedule is lost/cleared but the spacing
    // bound survives — the dataflow must find the now guard-free loop.
    // BRANCHY's loop contains no call, so no reset point can break the
    // cycle (LOOP_CALL's loop legitimately resets at its call return).
    let image = flexprot_asm::assemble_or_panic(BRANCHY);
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    let p = protect(&image, &config, None).unwrap();
    let (image, mut secmon) = (p.image, p.secmon);
    assert!(secmon.spacing_bound.is_some());
    secmon.sites.clear();
    secmon.window_starts.clear();
    let report = verify(&image, &secmon);
    assert!(
        report.with_id("FP202").count() > 0,
        "guard-free protected loop must exceed the bound:\n{}",
        report.render_human()
    );
}

#[test]
fn missing_bound_is_a_warning_not_an_error() {
    let image = flexprot_asm::assemble_or_panic(BRANCHY);
    let config = ProtectionConfig::new().with_guards(GuardConfig {
        enforce_spacing: false,
        ..GuardConfig::with_density(0.4)
    });
    let p = protect(&image, &config, None).unwrap();
    assert!(p.secmon.spacing_bound.is_none());
    let report = verify(&p.image, &p.secmon);
    assert!(report.is_clean());
    assert!(
        report.with_id("FP203").count() == 1,
        "expected exactly one missing-bound warning:\n{}",
        report.render_human()
    );
}

#[test]
fn policy_overrides_change_the_verdict() {
    let (mut image, secmon) = guarded();
    // Break one signature.
    let &site = secmon.sites.keys().next().unwrap();
    let idx = image.text_index_of(site).unwrap();
    image.text[idx.checked_sub(1).unwrap()] ^= 1 << 5; // body word before the site
    let default_report = verify(&image, &secmon);
    assert!(!default_report.is_clean());

    // FP703 is the abstract-interpretation re-derivation of the same
    // tamper FP102 catches concretely; both must be demoted for a clean
    // verdict.
    let allow = LintPolicy::new::<&str>(&[], &["FP102", "FP301", "FP703"]).unwrap();
    let relaxed = analyze(&image, &secmon, &allow).report;
    assert!(
        relaxed.is_clean(),
        "allowing FP102/FP301/FP703 must demote the findings:\n{}",
        relaxed.render_human()
    );

    let deny = LintPolicy::new(&["FP501"], &[]).unwrap();
    let strict = analyze(&image, &secmon, &deny).report;
    assert!(strict.count(Severity::Error) >= default_report.count(Severity::Error));
}

#[test]
fn transparent_config_on_plain_image_is_clean() {
    let image = flexprot_asm::assemble_or_panic(BRANCHY);
    let report = verify(&image, &SecMonConfig::transparent());
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.stats.sites_checked, 0);
}
