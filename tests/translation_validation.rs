//! Acceptance tests for the translation validator (`verify::equiv`).
//!
//! Every cell of the 6-program × 7-configuration protection matrix
//! ([`flexprot_exec::matrix`]) must validate with a `Proven` verdict or
//! carry a concrete witness address — a refusal without a logged reason
//! is a test failure. Injected faults
//! (a guard word rewritten to clobber a live register, a skewed cipher
//! region key) must be caught with witness addresses inside the damaged
//! range.

use flexprot::core::{protect, EncryptConfig, Granularity, GuardConfig, ProtectionConfig};
use flexprot::secmon::derive_subkey;
use flexprot::verify::equiv::{self, EquivVerdict};
use flexprot_exec::matrix;

const GUARD_KEY: u64 = 0x0BAD_C0DE_CAFE_F00D;
const ENC_KEY: u64 = 0x5EED_5EED_5EED_5EED;

#[test]
fn every_matrix_cell_is_proven_or_carries_a_witness() {
    let cells = matrix::cells();
    for (name, image) in &matrix::programs() {
        for (cell, config) in &cells {
            let protected =
                protect(image, config, None).unwrap_or_else(|e| panic!("{name}/{cell}: {e}"));
            let report = equiv::validate(image, &protected.image, &protected.secmon);
            match &report.verdict {
                EquivVerdict::Proven => {
                    assert!(
                        report.is_clean(),
                        "{name}/{cell}: proven but has error findings: {:?}",
                        report.findings
                    );
                    assert!(
                        report.refusals.is_empty(),
                        "{name}/{cell}: proven despite refusals"
                    );
                }
                EquivVerdict::Inequivalent { witness_addr } => {
                    panic!(
                        "{name}/{cell}: pipeline output judged inequivalent at \
                         {witness_addr:#010x}: {:?}",
                        report.findings
                    );
                }
                EquivVerdict::Refused { reason } => {
                    assert!(
                        !report.refusals.is_empty(),
                        "{name}/{cell}: refused (`{reason}`) without a logged refusal"
                    );
                }
            }
            // Whatever the verdict, every window got judged.
            assert_eq!(
                report.windows.len(),
                protected.secmon.sites.len(),
                "{name}/{cell}: a scheduled window was skipped"
            );
        }
    }
}

#[test]
fn pipeline_matrix_is_fully_proven() {
    // Stronger than the witness-or-proof guarantee: the real protection
    // pipeline emits only inert guard forms and involutive ciphers, so
    // every cell must in fact be Proven with zero refusals. protect() with
    // both post-conditions on must then accept every cell and ship the
    // very same build.
    let cells = matrix::cells();
    for (name, image) in &matrix::programs() {
        for (cell, config) in &cells {
            let protected =
                protect(image, config, None).unwrap_or_else(|e| panic!("{name}/{cell}: {e}"));
            let report = equiv::validate(image, &protected.image, &protected.secmon);
            assert_eq!(
                report.verdict,
                EquivVerdict::Proven,
                "{name}/{cell}: {:?} / refusals {:?}",
                report.findings,
                report.refusals
            );
            let checked = config
                .clone()
                .with_key_flow_check()
                .with_translation_validation();
            let checked = protect(image, &checked, None)
                .unwrap_or_else(|e| panic!("{name}/{cell} with post-conditions: {e}"));
            assert_eq!(
                checked, protected,
                "{name}/{cell}: post-conditions changed the build"
            );
        }
    }
}

#[test]
fn injected_guard_clobber_is_caught_with_witness() {
    let (name, image) = &matrix::programs()[0];
    let config = ProtectionConfig::new().with_guards(GuardConfig {
        key: GUARD_KEY,
        ..GuardConfig::with_density(1.0)
    });
    let protected = protect(image, &config, None).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (&site_addr, _) = protected
        .secmon
        .sites
        .iter()
        .next()
        .expect("density 1.0 must schedule guards");
    let idx = protected
        .image
        .text_index_of(site_addr)
        .expect("site in text");
    let mut tampered = protected.image.clone();
    // Rewrite the first guard word into `addu $sp, $sp, $sp`: the stack
    // pointer is live essentially everywhere, so the window provably
    // writes live architectural state.
    tampered.text[idx] = flexprot::isa::Inst::Addu {
        rd: flexprot::isa::Reg::SP,
        rs: flexprot::isa::Reg::SP,
        rt: flexprot::isa::Reg::SP,
    }
    .encode();
    let report = equiv::validate(image, &tampered, &protected.secmon);
    match report.verdict {
        EquivVerdict::Inequivalent { witness_addr } => {
            assert_eq!(witness_addr, site_addr, "witness must be the damaged word");
        }
        other => panic!(
            "expected inequivalent, got {other:?}: {:?}",
            report.findings
        ),
    }
    assert!(
        report.count_id("FP801") > 0,
        "clobber must surface as FP801: {:?}",
        report.findings
    );
}

#[test]
fn injected_cipher_key_skew_is_caught_with_witness() {
    let (name, image) = &matrix::programs()[0];
    let config = ProtectionConfig::new().with_encryption(EncryptConfig {
        granularity: Granularity::Function,
        ..EncryptConfig::whole_program(ENC_KEY)
    });
    let protected = protect(image, &config, None).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut skewed = protected.secmon.clone();
    // Re-derive one region's key from a skewed master: decryption of that
    // region now yields garbage, and every mismatch lies inside it.
    let regions: Vec<_> = skewed.regions.regions().to_vec();
    assert!(
        regions.len() > 1,
        "function granularity has several regions"
    );
    let victim = regions[regions.len() / 2];
    let mut patched = regions.clone();
    for r in &mut patched {
        if r.start == victim.start {
            r.key = derive_subkey(ENC_KEY ^ 1, r.start);
        }
    }
    skewed.regions = flexprot::secmon::RegionTable::new(patched);
    let report = equiv::validate(image, &protected.image, &skewed);
    match report.verdict {
        EquivVerdict::Inequivalent { witness_addr } => {
            assert!(
                witness_addr >= victim.start && witness_addr < victim.end,
                "witness {witness_addr:#010x} must fall inside the skewed region {victim}"
            );
        }
        other => panic!(
            "expected inequivalent, got {other:?}: {:?}",
            report.findings
        ),
    }
    assert!(
        report.count_id("FP803") > 0,
        "key skew must surface as FP803: {:?}",
        report.findings
    );
    assert_eq!(
        report.count_id("FP802"),
        0,
        "all mismatches lie inside the region, so none may be misfiled \
         as alignment faults: {:?}",
        report.findings
    );
}
