//! Cross-crate integration: end-to-end attack/detection properties.

use flexprot::attack::{campaign_sim, evaluate, Attack, DetectionCause};
use flexprot::core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot::sim::{Machine, SimConfig};

fn attack_sim(base_instrs: u64) -> SimConfig {
    campaign_sim(base_instrs, &SimConfig::default())
}

#[test]
fn full_guards_dominate_unprotected_on_every_attack() {
    let workload = flexprot::workloads::by_name("adpcm").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let sim = attack_sim(base.stats.instructions);

    let unprotected = protect(&image, &ProtectionConfig::new(), None).unwrap();
    let guarded = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .unwrap();

    for attack in Attack::all() {
        let s_un = evaluate(&unprotected, &expected, attack, 20, 99, &sim);
        let s_g = evaluate(&guarded, &expected, attack, 20, 99, &sim);
        assert!(
            s_g.detection_rate() >= s_un.detection_rate() - 1e-9,
            "{}: guards lowered detection ({:.2} < {:.2})",
            attack.name(),
            s_g.detection_rate(),
            s_un.detection_rate()
        );
        assert!(
            s_g.attacker_success_rate() <= s_un.attacker_success_rate() + 1e-9,
            "{}: guards raised attacker success",
            attack.name()
        );
    }
}

#[test]
fn full_guards_leave_no_silent_corruption_on_single_flips() {
    // At density 1.0 every text word is covered: body words are hashed,
    // terminators are tail-hashed, guard words carry the signature. The
    // only uncheckable case is a flip in a block whose guard never executes
    // before program exit — which cannot produce *wrong output followed by
    // clean exit* unless the exit path itself was reached, where the words
    // are covered too. Empirically: no silent wins across many trials.
    let workload = flexprot::workloads::by_name("strsearch").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let guarded = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .unwrap();
    let summary = evaluate(
        &guarded,
        &expected,
        Attack::BitFlip,
        60,
        1234,
        &attack_sim(base.stats.instructions),
    );
    // A flip can, rarely, fabricate a branch that escapes its window
    // before the check (an inherent limit of check-at-window-end designs,
    // discussed in EXPERIMENTS.md). It must stay a rare tail, and the vast
    // majority of effective flips must be caught.
    assert!(
        summary.wrong_output <= 2,
        "too much silent corruption under full guards: {summary:?}"
    );
    assert!(summary.detected > 0);
    assert!(summary.detection_rate() > 0.9, "{summary:?}");
}

#[test]
fn guard_strip_attack_is_always_detected() {
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let guarded = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .unwrap();
    let summary = evaluate(
        &guarded,
        &expected,
        Attack::GuardStrip,
        5,
        7,
        &attack_sim(base.stats.instructions),
    );
    assert!(
        summary.applied > 0,
        "strip must find guard runs in plaintext"
    );
    assert_eq!(summary.wrong_output, 0, "{summary:?}");
    assert_eq!(
        summary.benign, 0,
        "stripping must never be benign: {summary:?}"
    );
    assert!(summary.detected > 0, "{summary:?}");
}

#[test]
fn encryption_denies_targeted_patching() {
    let workload = flexprot::workloads::by_name("bitcount").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let sim = attack_sim(base.stats.instructions);
    let enc = protect(
        &image,
        &ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0x0FF1CE)),
        None,
    )
    .unwrap();
    // Targeted payload injection requires writing plaintext; on ciphertext
    // it degenerates to noise: the keystream scrambles the payload into
    // effectively random words. Noise can — rarely — decode as valid
    // instructions and exit cleanly with garbage output (encryption is a
    // confidentiality layer, not an integrity check), but that must stay a
    // rare tail, and the attacker's chosen payload semantics never survive.
    let summary = evaluate(&enc, &expected, Attack::CodeInject, 30, 5, &sim);
    assert!(
        summary.wrong_output <= 2,
        "scrambled payloads should not produce controlled output: {summary:?}"
    );
    assert_eq!(
        summary.benign, 0,
        "injection must never be a no-op: {summary:?}"
    );
    // The static verifier flags nearly every mutation: decrypted noise
    // almost always breaks decodability or a relocation invariant.
    assert!(summary.static_detection_rate() > 0.9, "{summary:?}");
    // Branch-flip cannot even locate branches in ciphertext.
    let summary = evaluate(&enc, &expected, Attack::BranchFlip, 30, 5, &sim);
    assert!(
        summary.faulted + summary.detected + summary.benign + summary.timeout
            >= summary.wrong_output,
        "{summary:?}"
    );
}

#[test]
fn detection_latency_is_recorded_and_bounded() {
    let workload = flexprot::workloads::by_name("fir").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let guarded = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .unwrap();
    let sim = attack_sim(base.stats.instructions);
    let summary = evaluate(&guarded, &expected, Attack::InstrSub, 40, 42, &sim);
    if let Some(latency) = summary.mean_latency() {
        assert!(latency >= 0.0);
        assert!(
            latency <= sim.max_instructions as f64,
            "latency beyond fuel: {latency}"
        );
    }
    assert!(summary.detected > 0, "{summary:?}");
}

#[test]
fn guard_detections_carry_guard_event_attribution() {
    // Under guards-only protection every dynamic tamper detection must be
    // *proved* by a guard event in the trace: the recorded cause is either
    // a guard-signature mismatch or the spacing bound, never decrypt noise.
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let guarded = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .unwrap();
    let summary = evaluate(
        &guarded,
        &expected,
        Attack::BitFlip,
        40,
        2026,
        &attack_sim(base.stats.instructions),
    );
    assert!(summary.detected > 0, "{summary:?}");
    let guard_causes = summary.cause_count(DetectionCause::GuardFail)
        + summary.cause_count(DetectionCause::SpacingBound);
    assert_eq!(
        guard_causes, summary.detected,
        "every detection needs a guard event proving it: {summary:?}"
    );
    // Faulted trials (flips that crash before any check) carry fault
    // attributions instead; together the causes cover every caught trial.
    let fault_causes = summary.cause_count(DetectionCause::DecryptGarble)
        + summary.cause_count(DetectionCause::WildControlFlow)
        + summary.cause_count(DetectionCause::OtherFault);
    assert_eq!(
        guard_causes + fault_causes,
        summary.detected + summary.faulted,
        "{summary:?}"
    );
}

#[test]
fn ciphertext_tampering_is_attributed_to_decrypt_garble() {
    // Under encryption-only protection there are no guards to fail; caught
    // tampering manifests as scrambled instructions — decode faults
    // (decrypt-garble) or wild control flow — never as guard events.
    let workload = flexprot::workloads::by_name("bitcount").expect("kernel");
    let image = workload.image();
    let expected = workload.expected_output();
    let base = Machine::new(&image, SimConfig::default()).run();
    let enc = protect(
        &image,
        &ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xC0DE_D00D)),
        None,
    )
    .unwrap();
    let summary = evaluate(
        &enc,
        &expected,
        Attack::CodeInject,
        40,
        2027,
        &attack_sim(base.stats.instructions),
    );
    assert_eq!(summary.cause_count(DetectionCause::GuardFail), 0);
    assert_eq!(summary.cause_count(DetectionCause::SpacingBound), 0);
    let garble = summary.cause_count(DetectionCause::DecryptGarble)
        + summary.cause_count(DetectionCause::WildControlFlow)
        + summary.cause_count(DetectionCause::OtherFault);
    assert!(
        garble > 0,
        "scrambled payloads must fault somewhere: {summary:?}"
    );
}

#[test]
fn non_halting_monitor_logs_all_events() {
    let workload = flexprot::workloads::by_name("qsort").expect("kernel");
    let image = workload.image();
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    let mut protected = protect(&image, &config, None).unwrap();
    protected.secmon.halt_on_tamper = false;
    // Flip a register-field bit of a covered body word (the first word of
    // `fill`, which executes and is hashed by fill's guard). Register-field
    // flips keep the word decodable, so the signature check — not a decode
    // fault — must catch it.
    let fill = protected.image.symbol("fill").expect("symbol");
    let index = protected.image.text_index_of(fill).expect("in text");
    protected.image.text[index] ^= 1 << 16; // rt field low bit: stays decodable
    let mut machine = protected.machine(SimConfig {
        max_instructions: 1_000_000,
        ..SimConfig::default()
    });
    let run = machine.run();
    assert!(
        !machine.monitor().tamper_log().is_empty(),
        "non-halting monitor must log the tamper ({:?})",
        run.outcome
    );
}
