//! Register-guard insertion: the binary-rewriting half of the codesign.
//!
//! For every selected basic block the pass inserts a guard sequence —
//! [`SIG_SYMBOLS`] architecturally inert instructions carrying the keyed
//! signature of the block's body — between the body and the terminator.
//! Because code moves, every address-bearing field is re-patched through
//! the image's relocation table; the pass refuses images whose control
//! transfers lack relocations rather than corrupt them silently.
//!
//! The pass also derives everything the secure monitor must be provisioned
//! with: guard sites, window starts, protected ranges, spacing-reset points
//! and the guard-spacing bound (the longest guard-free executed path through
//! the protected functions, used to detect guard stripping).

use std::collections::{BTreeMap, BTreeSet};

use flexprot_isa::{Image, Inst, Reloc, RelocKind, Rng64};
use flexprot_secmon::guard::{encode_guard_inst, signature_symbols, WindowHasher, SIG_SYMBOLS};
use flexprot_secmon::schedule::{GuardSite, ProtectedRange, SecMonConfig};

use crate::cfg::Cfg;
use crate::error::ProtectError;
use crate::place::{self, Placement};
use crate::profile::Profile;

/// How guard targets are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// One density applied across the whole program.
    Density(f64),
    /// Per-function densities by symbol name; unlisted functions get none.
    PerFunction(BTreeMap<String, f64>),
}

/// The fixed guard key of [`GuardConfig::with_density`], the CLI drivers'
/// defaults and the evaluation (callers wanting secrecy supply their own).
pub const DEFAULT_GUARD_KEY: u64 = 0x0BAD_C0DE_CAFE_F00D;

/// Configuration of the guard-insertion pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Key for window hashing (shared with the monitor).
    pub key: u64,
    /// Seed for placement and salt randomness (deterministic runs).
    pub seed: u64,
    /// Placement policy.
    pub placement: Placement,
    /// Which blocks to guard.
    pub selection: Selection,
    /// Guarantee a finite guard-spacing bound by additionally guarding every
    /// eligible loop header of each protected function.
    pub enforce_spacing: bool,
}

impl GuardConfig {
    /// A reasonable default: uniform placement at the given density with
    /// spacing enforcement, fixed keys (callers wanting secrecy supply their
    /// own).
    pub fn with_density(density: f64) -> GuardConfig {
        GuardConfig {
            key: DEFAULT_GUARD_KEY,
            seed: 1,
            placement: Placement::Uniform,
            selection: Selection::Density(density),
            enforce_spacing: true,
        }
    }
}

/// The product of guard insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardOutcome {
    /// The rewritten image (plaintext; encryption runs afterwards).
    pub image: Image,
    /// Guard sites for the monitor.
    pub sites: BTreeMap<u32, GuardSite>,
    /// Window-start (guarded-leader) addresses.
    pub window_starts: BTreeSet<u32>,
    /// Protected function ranges (spacing-counted).
    pub protected: Vec<ProtectedRange>,
    /// Spacing-reset points (protected function entries).
    pub reset_points: BTreeSet<u32>,
    /// Spacing bound, when every protected cycle contains a guard.
    pub spacing_bound: Option<u64>,
    /// Number of guard sequences inserted.
    pub guards_inserted: usize,
    /// The guard key (forwarded to the monitor).
    pub key: u64,
}

impl GuardOutcome {
    /// Builds a monitor configuration covering only the guard layer
    /// (no encryption); the pipeline merges encryption in afterwards.
    pub fn secmon_config(&self) -> SecMonConfig {
        SecMonConfig {
            guard_key: self.key,
            sites: self.sites.clone(),
            window_starts: self.window_starts.clone(),
            protected: self.protected.clone(),
            spacing_bound: self.spacing_bound,
            reset_points: self.reset_points.clone(),
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        }
    }
}

/// Computes exactly the block set [`insert_guards`] will guard — selection
/// policy plus loop-header enforcement. Exposed so the estimator and the
/// optimizer can predict costs for the *actual* selection.
///
/// # Errors
///
/// Fails on invalid densities.
pub fn select_guard_blocks(
    cfg: &Cfg,
    config: &GuardConfig,
    profile: Option<&Profile>,
) -> Result<BTreeSet<usize>, ProtectError> {
    let mut selected: BTreeSet<usize> = match &config.selection {
        Selection::Density(density) => {
            if !(0.0..=1.0).contains(density) {
                return Err(ProtectError::BadConfig(format!(
                    "guard density {density} outside [0, 1]"
                )));
            }
            let all: Vec<usize> = (0..cfg.blocks.len()).collect();
            place::select_in(cfg, &all, *density, config.placement, profile, config.seed)
        }
        Selection::PerFunction(densities) => {
            let mut sel = BTreeSet::new();
            for (fi, func) in cfg.functions.iter().enumerate() {
                let Some(name) = func.name.as_deref() else {
                    continue;
                };
                let Some(&density) = densities.get(name) else {
                    continue;
                };
                sel.extend(place::select_in(
                    cfg,
                    &func.blocks,
                    density,
                    config.placement,
                    profile,
                    config.seed ^ fi as u64,
                ));
            }
            sel
        }
    };
    if config.enforce_spacing && !selected.is_empty() {
        let protected_funcs: BTreeSet<usize> =
            selected.iter().map(|&b| cfg.blocks[b].func).collect();
        for (bi, block) in cfg.blocks.iter().enumerate() {
            if block.is_loop_header
                && protected_funcs.contains(&block.func)
                && place::is_eligible(cfg, bi)
            {
                selected.insert(bi);
            }
        }
    }
    Ok(selected)
}

/// Runs the guard-insertion pass.
///
/// # Errors
///
/// Fails when CFG recovery fails, when a control transfer lacks a
/// relocation, or when a re-patched field overflows its encoding.
pub fn insert_guards(
    image: &Image,
    config: &GuardConfig,
    profile: Option<&Profile>,
) -> Result<GuardOutcome, ProtectError> {
    let cfg = Cfg::recover(image)?;
    validate_relocatable(image)?;
    let selected = select_guard_blocks(&cfg, config, profile)?;

    // --- layout ---
    let sig_len = SIG_SYMBOLS as usize;
    let old_len = image.text.len();
    let mut old2new = vec![usize::MAX; old_len];
    let mut new_text: Vec<u32> = Vec::with_capacity(old_len + selected.len() * sig_len);
    // (block index, new leader index, new site index) per guarded block.
    let mut guard_slots: Vec<(usize, usize, usize)> = Vec::with_capacity(selected.len());
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let body = block.body_len();
        let leader_new = new_text.len();
        for w in 0..body {
            old2new[block.start + w] = new_text.len();
            new_text.push(image.text[block.start + w]);
        }
        if selected.contains(&bi) {
            let site_new = new_text.len();
            guard_slots.push((bi, leader_new, site_new));
            new_text.extend(std::iter::repeat_n(Inst::NOP.encode(), sig_len));
        }
        for w in body..block.len {
            old2new[block.start + w] = new_text.len();
            new_text.push(image.text[block.start + w]);
        }
    }
    debug_assert!(old2new.iter().all(|&i| i != usize::MAX));

    // --- rebuild the image ---
    // Two mappings are needed: `old2new` places each *instruction word*;
    // `target_map` redirects *references* to an address. They differ only
    // for guarded blocks with an empty body (a lone terminator): the guard
    // sequence physically precedes the terminator, and jumps to the block
    // must land on the guards, or branch-entered blocks would skip their
    // check entirely (breaking both coverage and the spacing bound).
    let mut target_map = old2new.clone();
    for &(bi, leader_new, _) in &guard_slots {
        if cfg.blocks[bi].body_len() == 0 {
            target_map[cfg.blocks[bi].start] = leader_new;
        }
    }
    let new_len = new_text.len();
    let new_addr = |new_index: usize| image.text_base + 4 * new_index as u32;
    let map_addr = |addr: u32| -> u32 {
        match image.text_index_of(addr) {
            Some(old_index) => new_addr(target_map[old_index]),
            None if addr == image.text_end() => new_addr(new_len),
            None => addr,
        }
    };

    let mut out = image.clone();
    out.text = new_text;
    out.entry = map_addr(image.entry);
    for addr in out.symbols.values_mut() {
        *addr = map_addr(*addr);
    }
    out.relocs = Vec::with_capacity(image.relocs.len());
    for reloc in &image.relocs {
        let new_index = old2new[reloc.text_index];
        let new_target = map_addr(reloc.target);
        let addr = new_addr(new_index);
        let word = out.text[new_index];
        out.text[new_index] =
            patch_field(word, reloc.kind, new_target, addr).ok_or(ProtectError::RelocOverflow {
                addr,
                target: new_target,
            })?;
        out.relocs.push(Reloc {
            text_index: new_index,
            kind: reloc.kind,
            target: new_target,
        });
    }

    // --- sign windows and emit guard words ---
    let mut rng = Rng64::new(config.seed ^ 0x6A4D_5157);
    let mut sites = BTreeMap::new();
    let mut window_starts = BTreeSet::new();
    for &(bi, leader_new, site_new) in &guard_slots {
        let body = cfg.blocks[bi].body_len();
        let tail = (cfg.blocks[bi].len - body) as u32;
        let window_addr = new_addr(leader_new);
        // The signature covers the body *and* the post-guard terminator
        // (skipping the guard words themselves, which carry the signature).
        let mut hasher = WindowHasher::new(config.key);
        for k in 0..body {
            hasher.absorb(new_addr(leader_new + k), out.text[leader_new + k]);
        }
        for t in 0..tail as usize {
            let index = site_new + sig_len + t;
            hasher.absorb(new_addr(index), out.text[index]);
        }
        let digest = hasher.digest();
        for (k, symbol) in signature_symbols(digest).into_iter().enumerate() {
            let salt: u8 = rng.next_u8();
            out.text[site_new + k] = encode_guard_inst(symbol, salt).encode();
        }
        sites.insert(
            new_addr(site_new),
            GuardSite {
                symbols: SIG_SYMBOLS,
                tail,
            },
        );
        window_starts.insert(window_addr);
    }

    // --- protected ranges, reset points, spacing bound ---
    let protected_funcs: BTreeSet<usize> = guard_slots
        .iter()
        .map(|&(bi, _, _)| cfg.blocks[bi].func)
        .collect();
    let protected: Vec<ProtectedRange> = protected_funcs
        .iter()
        .map(|&fi| ProtectedRange {
            start: map_addr(cfg.functions[fi].entry),
            end: map_addr(cfg.functions[fi].end),
        })
        .collect();
    let mut reset_points: BTreeSet<u32> = protected_funcs
        .iter()
        .map(|&fi| map_addr(cfg.functions[fi].entry))
        .collect();
    // Also reset at call return points inside protected functions: calls
    // into protected callees reset at the callee entry, so without a
    // caller-side reset the callee's tail and the caller's continuation
    // would concatenate across the return and overflow the intraprocedural
    // bound. A discontinuity landing exactly on a registered return point
    // cannot be abused without semantically visible control-flow changes.
    for block in &cfg.blocks {
        if !protected_funcs.contains(&block.func) {
            continue;
        }
        if matches!(
            block.terminator,
            crate::cfg::Terminator::Call { .. } | crate::cfg::Terminator::IndirectCall
        ) {
            let return_index = block.start + block.len;
            if return_index < old_len {
                reset_points.insert(new_addr(target_map[return_index]));
            }
        }
    }
    let spacing_bound = if config.enforce_spacing && !guard_slots.is_empty() {
        spacing_bound(&cfg, &selected, &protected_funcs)
    } else {
        None
    };

    Ok(GuardOutcome {
        image: out,
        sites,
        window_starts,
        protected,
        reset_points,
        spacing_bound,
        guards_inserted: guard_slots.len(),
        key: config.key,
    })
}

/// Checks that every direct control transfer carries a relocation, so code
/// motion cannot silently break it.
fn validate_relocatable(image: &Image) -> Result<(), ProtectError> {
    let mut relocated: BTreeSet<usize> = BTreeSet::new();
    for reloc in &image.relocs {
        if matches!(reloc.kind, RelocKind::Branch16 | RelocKind::Jump26) {
            relocated.insert(reloc.text_index);
        }
    }
    for (addr, decoded) in image.decode_text() {
        let inst = decoded.expect("validated by CFG recovery");
        if (inst.is_branch() || inst.is_direct_jump())
            && !relocated.contains(&image.text_index_of(addr).expect("in range"))
        {
            return Err(ProtectError::MissingReloc { addr });
        }
    }
    Ok(())
}

/// Re-encodes one relocated field for a new target/instruction address.
/// Returns `None` when the value no longer fits.
fn patch_field(word: u32, kind: RelocKind, target: u32, inst_addr: u32) -> Option<u32> {
    match kind {
        RelocKind::Hi16 => Some((word & 0xFFFF_0000) | (target >> 16)),
        RelocKind::Lo16 => Some((word & 0xFFFF_0000) | (target & 0xFFFF)),
        RelocKind::Jump26 => {
            let words = target >> 2;
            (words < (1 << 26)).then_some((word & 0xFC00_0000) | words)
        }
        RelocKind::Branch16 => {
            let delta = (i64::from(target) - i64::from(inst_addr) - 4) / 4;
            let off = i16::try_from(delta).ok()?;
            Some((word & 0xFFFF_0000) | u32::from(off as u16))
        }
    }
}

/// Longest guard-free executed path through the protected functions, plus
/// slack; `None` when an unguarded cycle exists (the bound would be
/// meaningless).
fn spacing_bound(
    cfg: &Cfg,
    selected: &BTreeSet<usize>,
    protected_funcs: &BTreeSet<usize>,
) -> Option<u64> {
    let sig = u64::from(SIG_SYMBOLS);
    let weight =
        |bi: usize| cfg.blocks[bi].len as u64 + if selected.contains(&bi) { sig } else { 0 };

    // Nodes: unguarded blocks of protected functions.
    let in_graph =
        |bi: usize| protected_funcs.contains(&cfg.blocks[bi].func) && !selected.contains(&bi);
    let nodes: Vec<usize> = (0..cfg.blocks.len()).filter(|&b| in_graph(b)).collect();
    let mut indegree: BTreeMap<usize, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &n in &nodes {
        for &s in &cfg.blocks[n].succs {
            if in_graph(s) {
                *indegree.get_mut(&s).expect("node present") += 1;
            }
        }
    }
    // Kahn's algorithm with longest-path DP.
    let mut ready: Vec<usize> = nodes.iter().copied().filter(|n| indegree[n] == 0).collect();
    let mut longest: BTreeMap<usize, u64> = nodes.iter().map(|&n| (n, weight(n))).collect();
    let mut processed = 0usize;
    let mut best = 0u64;
    while let Some(n) = ready.pop() {
        processed += 1;
        best = best.max(longest[&n]);
        for &s in &cfg.blocks[n].succs.clone() {
            if !in_graph(s) {
                continue;
            }
            let candidate = longest[&n] + weight(s);
            let entry = longest.get_mut(&s).expect("node present");
            *entry = (*entry).max(candidate);
            let d = indegree.get_mut(&s).expect("node present");
            *d -= 1;
            if *d == 0 {
                ready.push(s);
            }
        }
    }
    if processed != nodes.len() {
        return None; // unguarded cycle
    }
    let max_block = (0..cfg.blocks.len())
        .filter(|&b| protected_funcs.contains(&cfg.blocks[b].func))
        .map(weight)
        .max()
        .unwrap_or(0);
    Some(best + 2 * max_block + 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_sim::{Machine, Outcome, SimConfig};

    const SRC: &str = r#"
        .data
nums:   .word 9, 4, 7, 1, 8
msg:    .asciiz "sum="
        .text
main:   la   $a0, msg
        li   $v0, 4
        syscall
        la   $s0, nums
        li   $s1, 5
        li   $s2, 0
loop:   lw   $t0, 0($s0)
        jal  scale
        addu $s2, $s2, $v0
        addi $s0, $s0, 4
        addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $s2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
scale:  mul  $v0, $t0, $t0
        jr   $ra
"#;

    fn baseline_output() -> String {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let r = Machine::new(&image, SimConfig::default()).run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        r.output
    }

    fn protect(density: f64) -> (GuardOutcome, Image) {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let out = insert_guards(&image, &GuardConfig::with_density(density), None).unwrap();
        (out, image)
    }

    fn run_protected(out: &GuardOutcome) -> flexprot_sim::RunResult {
        let monitor = flexprot_secmon::SecMon::new(out.secmon_config());
        Machine::with_monitor(&out.image, SimConfig::default(), monitor).run()
    }

    #[test]
    fn zero_density_is_identity() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = GuardConfig {
            enforce_spacing: false,
            ..GuardConfig::with_density(0.0)
        };
        let out = insert_guards(&image, &config, None).unwrap();
        assert_eq!(out.image.text, image.text);
        assert_eq!(out.guards_inserted, 0);
        assert!(out.sites.is_empty());
    }

    #[test]
    fn full_density_preserves_semantics() {
        let (out, _) = protect(1.0);
        assert!(out.guards_inserted >= 4);
        let r = run_protected(&out);
        assert_eq!(r.outcome, Outcome::Exit(0), "output: {}", r.output);
        assert_eq!(r.output, baseline_output());
    }

    #[test]
    fn guard_checks_actually_execute() {
        let (out, _) = protect(1.0);
        let monitor = flexprot_secmon::SecMon::new(out.secmon_config());
        let mut machine = Machine::with_monitor(&out.image, SimConfig::default(), monitor);
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        // The loop runs 5 times, so far more checks than static sites.
        assert!(machine.monitor().checks_passed() > out.guards_inserted as u64);
    }

    #[test]
    fn partial_density_preserves_semantics() {
        for density in [0.1, 0.3, 0.6] {
            let (out, _) = protect(density);
            let r = run_protected(&out);
            assert_eq!(r.outcome, Outcome::Exit(0), "density {density}");
            assert_eq!(r.output, baseline_output(), "density {density}");
        }
    }

    #[test]
    fn size_overhead_matches_inserted_guards() {
        let (out, original) = protect(1.0);
        assert_eq!(
            out.image.text.len(),
            original.text.len() + out.guards_inserted * SIG_SYMBOLS as usize
        );
    }

    #[test]
    fn tampered_body_word_is_detected() {
        let (mut out, _) = protect(1.0);
        // Flip a bit in the first window body word (the first text word is a
        // guarded block's body because density is 1.0 and main's first block
        // is guarded).
        out.image.text[0] ^= 1 << 3;
        let r = run_protected(&out);
        assert!(
            matches!(r.outcome, Outcome::TamperDetected(_)),
            "got {:?}",
            r.outcome
        );
    }

    #[test]
    fn spacing_bound_is_finite_with_loop_coverage() {
        let (out, _) = protect(0.2);
        assert!(
            out.spacing_bound.is_some(),
            "enforce_spacing must produce a bound"
        );
        // And the bound must not false-positive on the legitimate run.
        let r = run_protected(&out);
        assert_eq!(r.outcome, Outcome::Exit(0));
    }

    #[test]
    fn guard_stripping_trips_spacing_bound() {
        let (mut out, _) = protect(0.3);
        assert!(out.spacing_bound.is_some());
        // The attacker NOPs out every guard instruction (they know the
        // sites somehow) — checks then never pass, and the spacing counter
        // must trip.
        let sites: Vec<u32> = out.sites.keys().copied().collect();
        for site in sites {
            let idx = out.image.text_index_of(site).unwrap();
            for k in 0..SIG_SYMBOLS as usize {
                out.image.text[idx + k] = Inst::NOP.encode();
            }
        }
        let r = run_protected(&out);
        assert!(
            matches!(r.outcome, Outcome::TamperDetected(_)),
            "stripping must be detected, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn per_function_selection_only_touches_named_function() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let mut densities = BTreeMap::new();
        densities.insert("scale".to_owned(), 1.0);
        let config = GuardConfig {
            selection: Selection::PerFunction(densities),
            enforce_spacing: false,
            ..GuardConfig::with_density(0.0)
        };
        let out = insert_guards(&image, &config, None).unwrap();
        assert_eq!(out.guards_inserted, 1);
        let scale = out.image.symbol("scale").unwrap();
        for &site in out.sites.keys() {
            assert!(site >= scale, "guard site outside scale: {site:#x}");
        }
        let r = run_protected(&out);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, baseline_output());
    }

    #[test]
    fn relocs_remain_valid_after_rewrite() {
        let (out, _) = protect(1.0);
        for reloc in &out.image.relocs {
            assert!(reloc.text_index < out.image.text.len());
            // Branch relocs: re-decoding the patched word must give back the
            // recorded target.
            let word = out.image.text[reloc.text_index];
            let addr = out.image.addr_of_index(reloc.text_index);
            let inst = Inst::decode(word).unwrap();
            match reloc.kind {
                RelocKind::Branch16 => {
                    assert_eq!(inst.branch_target(addr), Some(reloc.target));
                }
                RelocKind::Jump26 => {
                    assert_eq!(inst.jump_target(), Some(reloc.target));
                }
                RelocKind::Hi16 | RelocKind::Lo16 => {}
            }
        }
    }

    #[test]
    fn unrelocatable_image_is_refused() {
        // A branch with a numeric offset has no reloc.
        let image = flexprot_asm::assemble_or_panic("main: beq $t0, $t1, 1\n nop\n nop\n");
        let err = insert_guards(&image, &GuardConfig::with_density(1.0), None).unwrap_err();
        assert!(matches!(err, ProtectError::MissingReloc { .. }));
    }

    #[test]
    fn bad_density_is_rejected() {
        let image = flexprot_asm::assemble_or_panic("main: nop\n nop\n");
        let err = insert_guards(&image, &GuardConfig::with_density(1.5), None).unwrap_err();
        assert!(matches!(err, ProtectError::BadConfig(_)));
    }

    #[test]
    fn determinism_same_seed_same_output() {
        let (a, _) = protect(0.5);
        let (b, _) = protect(0.5);
        assert_eq!(a.image.text, b.image.text);
        assert_eq!(a.sites, b.sites);
    }
}
