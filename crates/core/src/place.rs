//! Guard placement policies.
//!
//! Placement decides *which* basic blocks receive a guard, given a target
//! density (fraction of eligible blocks). The policy choice is one of the
//! ablation axes of the evaluation (experiment T4): uniform and random
//! placement are oblivious; cold-first placement uses the profile to keep
//! guards out of hot code; loop-header placement prioritises back-edge
//! targets so the guard-spacing bound stays finite.

use std::collections::BTreeSet;

use flexprot_isa::Rng64;

use crate::cfg::Cfg;
use crate::profile::Profile;

/// The placement policy for guard selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every k-th eligible block, evenly spread in address order.
    Uniform,
    /// A uniformly random sample of eligible blocks (seeded).
    Random,
    /// The least-executed blocks first; requires a profile, falls back to
    /// address order without one.
    ColdestFirst,
    /// Loop headers first (keeping the spacing bound finite), then the
    /// remaining blocks in address order.
    LoopHeaders,
}

/// Whether a block can carry a guard.
///
/// Since guard signatures cover the post-guard terminator (the *tail*),
/// even a block consisting of a single branch forms a non-empty signed
/// window, so every block qualifies. The predicate is kept as the policy
/// hook for stricter future criteria.
pub fn is_eligible(cfg: &Cfg, block_index: usize) -> bool {
    cfg.blocks[block_index].len >= 1
}

/// Selects blocks of `function_blocks` (indices into `cfg.blocks`) to guard
/// at the given density.
///
/// Returns a set of block indices. `density` is clamped to `[0, 1]` and
/// interpreted as the fraction of *eligible* blocks to guard, rounded up —
/// so any positive density selects at least one block when one is eligible.
pub fn select_in(
    cfg: &Cfg,
    function_blocks: &[usize],
    density: f64,
    policy: Placement,
    profile: Option<&Profile>,
    seed: u64,
) -> BTreeSet<usize> {
    let eligible: Vec<usize> = function_blocks
        .iter()
        .copied()
        .filter(|&b| is_eligible(cfg, b))
        .collect();
    if eligible.is_empty() {
        return BTreeSet::new();
    }
    let density = density.clamp(0.0, 1.0);
    let want = ((eligible.len() as f64) * density).ceil() as usize;
    if want == 0 {
        return BTreeSet::new();
    }
    let chosen: Vec<usize> = match policy {
        Placement::Uniform => {
            // Evenly spread: pick indices at fractional stride.
            let stride = eligible.len() as f64 / want as f64;
            (0..want)
                .map(|i| eligible[((i as f64) * stride) as usize])
                .collect()
        }
        Placement::Random => {
            let mut rng = Rng64::new(seed);
            let mut pool = eligible.clone();
            rng.shuffle(&mut pool);
            pool.truncate(want);
            pool
        }
        Placement::ColdestFirst => {
            let mut pool = eligible.clone();
            if let Some(profile) = profile {
                pool.sort_by_key(|&b| profile.block_entries(&cfg.blocks[b]));
            }
            pool.truncate(want);
            pool
        }
        Placement::LoopHeaders => {
            let mut pool: Vec<usize> = eligible
                .iter()
                .copied()
                .filter(|&b| cfg.blocks[b].is_loop_header)
                .collect();
            pool.extend(
                eligible
                    .iter()
                    .copied()
                    .filter(|&b| !cfg.blocks[b].is_loop_header),
            );
            pool.truncate(want);
            pool
        }
    };
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_sim::SimConfig;

    fn sample() -> (Cfg, Profile) {
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 50
        li   $t1, 0
loop:   addi $t0, $t0, -1
        addu $t1, $t1, $t0
        bgtz $t0, loop
        li   $t2, 1
        li   $t3, 2
        beq  $t2, $t3, rare
after:  li   $v0, 10
        syscall
rare:   li   $t4, 9
        b    after
"#,
        );
        let cfg = Cfg::recover(&image).unwrap();
        let profile = Profile::collect_clean(&image, &SimConfig::default());
        (cfg, profile)
    }

    fn all_blocks(cfg: &Cfg) -> Vec<usize> {
        (0..cfg.blocks.len()).collect()
    }

    #[test]
    fn density_one_selects_all_eligible() {
        let (cfg, _) = sample();
        let sel = select_in(&cfg, &all_blocks(&cfg), 1.0, Placement::Uniform, None, 0);
        let eligible = all_blocks(&cfg)
            .into_iter()
            .filter(|&b| is_eligible(&cfg, b))
            .count();
        assert_eq!(sel.len(), eligible);
    }

    #[test]
    fn density_zero_selects_none() {
        let (cfg, _) = sample();
        let sel = select_in(&cfg, &all_blocks(&cfg), 0.0, Placement::Random, None, 0);
        assert!(sel.is_empty());
    }

    #[test]
    fn positive_density_selects_at_least_one() {
        let (cfg, _) = sample();
        let sel = select_in(&cfg, &all_blocks(&cfg), 0.01, Placement::Uniform, None, 0);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (cfg, _) = sample();
        let a = select_in(&cfg, &all_blocks(&cfg), 0.5, Placement::Random, None, 7);
        let b = select_in(&cfg, &all_blocks(&cfg), 0.5, Placement::Random, None, 7);
        let c = select_in(&cfg, &all_blocks(&cfg), 0.5, Placement::Random, None, 8);
        assert_eq!(a, b);
        // Different seeds usually differ; with few blocks allow equality
        // but the call must still succeed.
        let _ = c;
    }

    #[test]
    fn coldest_first_avoids_the_loop() {
        let (cfg, profile) = sample();
        let sel = select_in(
            &cfg,
            &all_blocks(&cfg),
            0.25,
            Placement::ColdestFirst,
            Some(&profile),
            0,
        );
        for &b in &sel {
            assert!(
                profile.block_entries(&cfg.blocks[b]) <= 1,
                "cold-first picked a hot block {b}"
            );
        }
    }

    #[test]
    fn loop_headers_policy_prioritises_headers() {
        let (cfg, _) = sample();
        let headers: Vec<usize> = (0..cfg.blocks.len())
            .filter(|&b| cfg.blocks[b].is_loop_header && is_eligible(&cfg, b))
            .collect();
        assert!(!headers.is_empty(), "sample must contain a loop");
        // Address-order back-edge detection is conservative: backwards merge
        // jumps also count as headers, so use a density that fits them all.
        let sel = select_in(
            &cfg,
            &all_blocks(&cfg),
            0.5,
            Placement::LoopHeaders,
            None,
            0,
        );
        for &h in &headers {
            assert!(sel.contains(&h), "header {h} not selected");
        }
    }

    #[test]
    fn selection_respects_function_subset() {
        let (cfg, _) = sample();
        let subset = vec![0usize, 1];
        let sel = select_in(&cfg, &subset, 1.0, Placement::Uniform, None, 0);
        assert!(sel.iter().all(|b| subset.contains(b)));
    }
}
