//! Cross-checks the two independent control-flow recoveries.
//!
//! The protection toolchain (`flexprot::core::Cfg::recover`) and the
//! static verifier (`flexprot::verify::{Flow, Cfg}`) each rebuild a CFG
//! from the bare image — deliberately written twice so the verifier can
//! catch toolchain bugs. That redundancy is only worth anything if the
//! two agree: this test pins the contract that both recoveries partition
//! the text segment into the *same* basic-block boundaries for every
//! program of the protection matrix ([`flexprot_exec::matrix`]), and that
//! the shared anchor set ([`flexprot::isa::Image::anchor_indices`]) is a
//! subset of both.

use flexprot::isa::Image;
use flexprot::verify::{Cfg as VerifyCfg, Flow};
use flexprot_exec::matrix;

/// Block boundaries as half-open word-index ranges, from the toolchain's
/// recovery.
fn core_boundaries(image: &Image) -> Vec<(usize, usize)> {
    let cfg = flexprot::core::Cfg::recover(image).expect("core recovery");
    cfg.blocks
        .iter()
        .map(|b| (b.start, b.start + b.len))
        .collect()
}

/// Block boundaries from the verifier's flow-graph partitioning.
fn verify_boundaries(image: &Image) -> Vec<(usize, usize)> {
    let flow = Flow::recover(image, &image.text);
    let cfg = VerifyCfg::build(image, &flow);
    cfg.blocks.iter().map(|b| (b.start, b.end)).collect()
}

#[test]
fn both_recoveries_agree_on_block_boundaries() {
    for (name, image) in matrix::programs() {
        let core = core_boundaries(&image);
        let verify = verify_boundaries(&image);
        assert_eq!(
            core, verify,
            "{name}: core and verify CFG recoveries partition text differently"
        );
        // Sanity: the partition covers the whole text segment exactly.
        let mut expected_start = 0;
        for &(start, end) in &core {
            assert_eq!(start, expected_start, "{name}: gap or overlap at {start}");
            assert!(end > start, "{name}: empty block at {start}");
            expected_start = end;
        }
        assert_eq!(expected_start, image.text.len(), "{name}: trailing gap");
    }
}

#[test]
fn anchor_indices_are_leaders_in_both_recoveries() {
    for (name, image) in matrix::programs() {
        let anchors = image.anchor_indices();
        assert!(!anchors.is_empty(), "{name}: no anchors");
        let starts: Vec<usize> = core_boundaries(&image).iter().map(|b| b.0).collect();
        for a in anchors {
            assert!(
                starts.binary_search(&a).is_ok(),
                "{name}: anchor {a} is not a block start"
            );
        }
    }
}
