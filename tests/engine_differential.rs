//! Differential fuzzing of the two simulator cores.
//!
//! The predecoded engine (fill-path transform + decoded-line store) must
//! be observationally identical to the reference per-fetch interpreter:
//! same outcome, same output, and bit-identical statistics — cycles,
//! cache misses and monitor fill penalties included. The sweep runs 64
//! randomly generated MiniC programs through every cell of the
//! protection matrix ([`flexprot_exec::matrix`]) on both engines and
//! asserts full [`flexprot::sim::RunResult`] equality under four
//! I-caches: the default one, a 256-byte direct-mapped one where lines are
//! evicted and refilled all the time, and two 2-way ones (16-byte and
//! 64-byte lines) where the LRU choice of victim decides the misses. The
//! predecoded engine charges the later words of a line as hits without
//! touching the cache model, so these are the geometries that would show
//! a skipped access that left the LRU order wrong. A fuel sweep stops
//! one guarded, encrypted loop at every instruction count, inside lines
//! too. Another case re-arms one machine across a sequence of single-word
//! mutants, the attack harness's use of the decoded-line store. The last
//! profiles every matrix program on both engines: the execution profiles
//! must agree, and the profile's I-cache fills must add up to the run's
//! miss count.
//!
//! Generated programs may loop past the fuel limit; that is fine — the
//! engines must then agree on `OutOfFuel` at the same instruction count.

use flexprot::cc::kernels::random_minic;
use flexprot::core::{protect, Profile};
use flexprot::isa::{Inst, Reg, Rng64};
use flexprot::sim::{CacheConfig, EngineKind, Machine, Outcome, SimConfig};
use flexprot_exec::matrix;

const FUEL: u64 = 200_000;

/// The smallest I-cache of the quick F3 sweep, direct-mapped.
const TINY_ICACHE: CacheConfig = CacheConfig {
    size_bytes: 256,
    line_bytes: 32,
    ways: 1,
};

/// A 256-byte 2-way I-cache with 16-byte lines: eight sets, each with a
/// victim to choose.
const TWO_WAY_16B_ICACHE: CacheConfig = CacheConfig {
    size_bytes: 256,
    line_bytes: 16,
    ways: 2,
};

/// A 512-byte 2-way I-cache with 64-byte lines: four sets of long runs.
const TWO_WAY_64B_ICACHE: CacheConfig = CacheConfig {
    size_bytes: 512,
    line_bytes: 64,
    ways: 2,
};

/// Self-modifying code aimed at the decode cache's weakest spot: a store
/// into the *currently executing* I-cache line. The predecoded engine
/// keeps decoded instructions per cache line, so `note_text_write` must
/// invalidate the patched slot before the very next fetch — the store at
/// text offset 16 rewrites the word at offset 20 (same 32-byte line, one
/// instruction ahead of the PC), and both engines must execute the
/// patched instruction, not the stale decoded one.
#[test]
fn store_into_executing_line_invalidates_decoded_slot_before_next_fetch() {
    // The patched-in instruction is computed from the real encoder so the
    // test cannot drift from the ISA: `ori $a0, $zero, 2`.
    let patch_word = Inst::Ori {
        rt: Reg::A0,
        rs: Reg::ZERO,
        imm: 2,
    }
    .encode();
    let source = format!(
        r#"
main:   la   $t0, patch          # words 0-1
        lui  $t1, {hi}
        ori  $t1, $t1, {lo}
        sw   $t1, 0($t0)         # word 4 (offset 16): patches offset 20
patch:  li   $a0, 1              # word 5 (offset 20): overwritten above
        li   $v0, 1
        syscall                  # prints $a0 -- must be the patched 2
        li   $v0, 10
        li   $a0, 0
        syscall
"#,
        hi = patch_word >> 16,
        lo = patch_word & 0xFFFF
    );
    let image = flexprot::asm::assemble(&source).expect("self-modifying program assembles");
    // Both the store and its target sit in one default 32-byte I-cache
    // line; if the layout ever drifts, the test would silently stop
    // exercising the same-line case, so pin it.
    let patch_addr = image.symbol("patch").unwrap();
    let store_addr = image.entry + 16;
    assert_eq!(
        store_addr / 32,
        patch_addr / 32,
        "store and patch target must share an I-cache line"
    );

    let run = |kind| Machine::new(&image, SimConfig::default().with_engine(kind)).run();
    let fast = run(EngineKind::Predecoded);
    let reference = run(EngineKind::Reference);
    assert_eq!(fast.outcome, Outcome::Exit(0));
    assert_eq!(
        fast.output, "2",
        "stale decoded line survived the text store"
    );
    assert_eq!(fast, reference, "engines diverged on same-line text store");
}

/// Runs 64 random programs through every matrix cell on both engines
/// under `icache` and requires identical results.
fn sweep_random_programs(icache: CacheConfig) {
    let mut rng = Rng64::new(0xD1FF_E12E_4CE5_0001);
    let cells = matrix::cells();
    for case in 0..64 {
        let source = random_minic(&mut rng);
        let image = flexprot::cc::compile_to_image(&source)
            .unwrap_or_else(|e| panic!("random-{case}: compile failed: {e}\n{source}"));
        for (cell, config) in &cells {
            let protected = protect(&image, config, None)
                .unwrap_or_else(|e| panic!("random-{case}/{cell}: protect failed: {e}"));
            let sim = SimConfig {
                icache,
                max_instructions: FUEL,
                ..SimConfig::default()
            };
            let fast = protected.run(sim.clone().with_engine(EngineKind::Predecoded));
            let reference = protected.run(sim.with_engine(EngineKind::Reference));
            assert_eq!(
                fast, reference,
                "random-{case}/{cell}: engines diverged\n{source}"
            );
        }
    }
}

#[test]
fn engines_agree_on_random_programs_across_the_protection_grid() {
    sweep_random_programs(CacheConfig::default_icache());
}

#[test]
fn engines_agree_across_the_protection_grid_under_a_tiny_direct_mapped_icache() {
    sweep_random_programs(TINY_ICACHE);
}

#[test]
fn engines_agree_across_the_protection_grid_under_a_two_way_icache_with_16_byte_lines() {
    sweep_random_programs(TWO_WAY_16B_ICACHE);
}

#[test]
fn engines_agree_across_the_protection_grid_under_a_two_way_icache_with_64_byte_lines() {
    sweep_random_programs(TWO_WAY_64B_ICACHE);
}

#[test]
fn engines_agree_when_the_fuel_runs_out_at_every_instruction() {
    // A guarded, encrypted loop stopped after every instruction count from
    // 0 to past its end: most stops fall inside an I-cache line, where the
    // predecoded engine must end its line run exactly at the last fuel.
    let image = flexprot::asm::assemble(
        r#"
main:   li   $s0, 10
        li   $s1, 0
loop:   addu $s1, $s1, $s0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
    )
    .expect("loop program assembles");
    let (cell, config) = matrix::cells()
        .into_iter()
        .find(|(cell, _)| *cell == "guards-enc")
        .expect("the matrix has a guards-enc cell");
    let protected =
        protect(&image, &config, None).unwrap_or_else(|e| panic!("{cell}: protect failed: {e}"));
    let full = protected.run(SimConfig::default().with_engine(EngineKind::Reference));
    assert_eq!(full.outcome, Outcome::Exit(0));
    assert_eq!(full.output, "55");
    for fuel in 0..=full.stats.instructions + 4 {
        let sim = SimConfig {
            max_instructions: fuel,
            ..SimConfig::default()
        };
        let fast = protected.run(sim.clone().with_engine(EngineKind::Predecoded));
        let reference = protected.run(sim.with_engine(EngineKind::Reference));
        assert_eq!(fast, reference, "fuel {fuel}: engines diverged");
        if fuel < full.stats.instructions {
            assert_eq!(fast.outcome, Outcome::OutOfFuel, "fuel {fuel}");
            assert_eq!(fast.stats.instructions, fuel);
        } else {
            assert_eq!(fast, full, "fuel {fuel}");
        }
    }
}

#[test]
fn rearmed_machine_matches_fresh_reference_runs_across_mutants() {
    // One predecoded machine per build, re-armed for every mutant: the
    // decoded lines it keeps must never leak into a later run. Mutants
    // flip one bit of, or overwrite, one text word; every fifth trial
    // re-arms the pristine build again.
    let mut rng = Rng64::new(0x4EA4_3D1F);
    let programs = matrix::programs();
    for (cell, config) in matrix::cells() {
        for (name, image) in programs
            .iter()
            .filter(|(name, _)| ["rle", "fir"].contains(&name.as_str()))
        {
            let protected = protect(image, &config, None)
                .unwrap_or_else(|e| panic!("{name}/{cell}: protect failed: {e}"));
            for icache in [CacheConfig::default_icache(), TINY_ICACHE] {
                let sim = SimConfig {
                    icache,
                    max_instructions: FUEL,
                    ..SimConfig::default()
                };
                let mut machine = protected.machine(sim.clone());
                for trial in 0..24 {
                    let mut mutant = protected.clone();
                    if trial % 5 != 0 {
                        let index = rng.index(mutant.image.text.len());
                        let word = &mut mutant.image.text[index];
                        *word = if rng.chance(0.5) {
                            *word ^ (1 << rng.below(32))
                        } else {
                            rng.next_u32()
                        };
                    }
                    mutant.rearm(&mut machine);
                    let rearmed = machine.run();
                    let reference = mutant.run(sim.clone().with_engine(EngineKind::Reference));
                    assert_eq!(
                        rearmed, reference,
                        "{name}/{cell}/{icache:?}: trial {trial} diverged after re-arm"
                    );
                }
            }
        }
    }
}

#[test]
fn profiles_agree_across_engines_and_count_every_icache_miss() {
    for (name, image) in matrix::programs() {
        for icache in [CacheConfig::default_icache(), TINY_ICACHE] {
            let sim = SimConfig {
                icache,
                ..SimConfig::default()
            };
            let (fast, run) =
                Profile::collect(&image, &sim.clone().with_engine(EngineKind::Predecoded));
            let (reference, _) = Profile::collect(&image, &sim.with_engine(EngineKind::Reference));
            assert_eq!(
                run.outcome,
                Outcome::Exit(0),
                "{name}/{icache:?}: baseline run failed"
            );
            assert!(
                fast == reference,
                "{name}/{icache:?}: engines profiled differently"
            );
            assert_eq!(
                fast.miss_fills_in(0, u32::MAX),
                run.stats.icache_misses,
                "{name}/{icache:?}: profiled fills disagree with the miss count"
            );
        }
    }
}
