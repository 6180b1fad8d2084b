//! Acceptance: the mandatory key-flow gate on the protection pipeline.
//!
//! `ProtectionConfig::with_key_flow_check` makes `protect` run the FP9xx
//! key-flow taint analysis on the shipped image and refuse to emit a
//! build whose program provably exfiltrates key-derived data (its own
//! ciphertext) to an observable sink. The fixture here is the canonical
//! leak: the program loads a word of its own encrypted text through the
//! *data* path — which the fetch-path-only decryptor never decrypts, so
//! the value read is `plaintext XOR keystream(key)` — and stores it to
//! the data segment where an attacker can read it back.

use flexprot_core::{
    protect, EncryptConfig, GuardConfig, ProtectError, ProtectionConfig, DEFAULT_GUARD_KEY,
};
use flexprot_isa::Image;

/// Reads the first word of its own (encrypted) text segment as data and
/// publishes it to the data segment. Single-word `lui` idioms keep the
/// instruction indices — and therefore the expected witness address —
/// exact.
fn leaky() -> Image {
    flexprot_asm::assemble_or_panic(
        r#"
main:   lui  $t0, 0x40
        lw   $t1, 0($t0)
        lui  $t2, 0x1001
        sw   $t1, 0($t2)
        li   $v0, 10
        syscall
"#,
    )
}

/// Pure register arithmetic: loads no ciphertext, leaks nothing.
fn clean() -> Image {
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

fn encrypted_config() -> ProtectionConfig {
    ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0x5EED))
}

#[test]
fn injected_key_leak_fails_the_gate_with_a_witness() {
    let base = leaky();
    let config = encrypted_config().with_key_flow_check();
    let err = protect(&base, &config, None).expect_err("leak must be caught");
    match err {
        ProtectError::KeyFlowLeak {
            errors,
            witness,
            ref first,
        } => {
            assert!(errors >= 1, "at least the injected FP901: {err}");
            // The leaking store is the fourth instruction of the image.
            assert_eq!(witness, Some(0x0040_000C), "{err}");
            assert!(
                first.contains("FP901"),
                "first finding names the lint: {first}"
            );
        }
        other => panic!("expected KeyFlowLeak, got {other}"),
    }
    let shown = err.to_string();
    assert!(shown.contains("key-flow check failed"), "{shown}");
    assert!(
        shown.contains("0x0040000c"),
        "witness surfaces in the message: {shown}"
    );
}

#[test]
fn the_gate_is_opt_in_but_the_findings_are_not_hidden() {
    // Without the gate the same build ships (backwards compatible)…
    let base = leaky();
    let protected = protect(&base, &encrypted_config(), None).expect("gate off");
    // …but a taint-enabled verification of the shipped image still
    // reports the leak, so `fplint --taint` catches what the pipeline
    // was not asked to block.
    let verification = flexprot_verify::analyze_with_options(
        &protected.image,
        &protected.secmon,
        &flexprot_verify::LintPolicy::default(),
        true,
    );
    assert!(
        verification
            .report
            .findings
            .iter()
            .any(|f| f.id == "FP901" && f.severity == flexprot_verify::Severity::Error),
        "{:?}",
        verification.report.findings
    );
    let taint = verification
        .report
        .stats
        .taint
        .expect("taint stats recorded");
    assert!(taint.sources >= 1);
    assert!(taint.tainted_stores >= 1);
}

#[test]
fn clean_programs_pass_the_gate_across_the_protection_matrix() {
    let base = clean();
    let configs = [
        ProtectionConfig::new().with_key_flow_check(),
        encrypted_config().with_key_flow_check(),
        encrypted_config()
            .with_guards(GuardConfig {
                key: DEFAULT_GUARD_KEY,
                ..GuardConfig::with_density(1.0)
            })
            .with_key_flow_check(),
    ];
    for (i, config) in configs.iter().enumerate() {
        let protected = protect(&base, config, None)
            .unwrap_or_else(|e| panic!("config {i}: clean program must pass the gate: {e}"));
        // The gate proved the absence of FP901/FP902; the stats of a
        // fresh taint run agree.
        let verification = flexprot_verify::analyze_with_options(
            &protected.image,
            &protected.secmon,
            &flexprot_verify::LintPolicy::default(),
            true,
        );
        let taint = verification
            .report
            .stats
            .taint
            .expect("taint stats recorded");
        assert_eq!(taint.tainted_stores, 0, "config {i}");
        assert_eq!(taint.tainted_syscalls, 0, "config {i}");
    }
}
