//! Differential fuzzing of the two simulator cores.
//!
//! The predecoded engine (fill-path transform + decoded-line store) must
//! be observationally identical to the reference per-fetch interpreter:
//! same outcome, same output, and bit-identical statistics — cycles,
//! cache misses and monitor fill penalties included. This sweep runs 64
//! randomly generated MiniC programs through every cell of the
//! protection matrix ([`flexprot_exec::matrix`]) on both engines and
//! asserts full [`flexprot::sim::RunResult`] equality.
//!
//! Generated programs may loop past the fuel limit; that is fine — the
//! engines must then agree on `OutOfFuel` at the same instruction count.

use flexprot::core::protect;
use flexprot::isa::{Inst, Reg, Rng64};
use flexprot::sim::{EngineKind, Machine, Outcome, SimConfig};
use flexprot_exec::matrix;

const FUEL: u64 = 200_000;

/// A random well-formed MiniC program (the grammar from the verifier's
/// property tests): straight-line assignments, nested ifs, decrementing
/// while loops and helper calls over four variables.
fn random_minic(rng: &mut Rng64) -> String {
    const VARS: [&str; 4] = ["a", "b", "c", "d"];
    fn var(rng: &mut Rng64) -> &'static str {
        VARS[rng.index(VARS.len())]
    }
    fn expr(rng: &mut Rng64) -> String {
        match rng.index(4) {
            0 => var(rng).to_owned(),
            1 => rng.index(50).to_string(),
            2 => format!(
                "{} {} {}",
                var(rng),
                ["+", "-", "*"][rng.index(3)],
                var(rng)
            ),
            _ => format!("{} + {}", var(rng), 1 + rng.index(9)),
        }
    }
    fn stmt(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match rng.index(if depth > 0 { 5 } else { 2 }) {
            0 | 1 => {
                let (v, e) = (var(rng), expr(rng));
                out.push_str(&format!("{pad}{v} = {e};\n"));
            }
            2 => {
                out.push_str(&format!("{pad}if ({} < {}) {{\n", var(rng), rng.index(40)));
                block(rng, depth - 1, out, indent + 1);
                if rng.chance(0.5) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    block(rng, depth - 1, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            3 => {
                let v = var(rng);
                out.push_str(&format!("{pad}while ({v} > 0) {{\n"));
                block(rng, depth - 1, out, indent + 1);
                out.push_str(&format!("{}{v} = {v} - 1;\n", "    ".repeat(indent + 1)));
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                let v = var(rng);
                out.push_str(&format!("{pad}{v} = helper({});\n", expr(rng)));
            }
        }
    }
    fn block(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        for _ in 0..1 + rng.index(3) {
            stmt(rng, depth, out, indent);
        }
    }

    let mut body = String::new();
    for v in VARS {
        body.push_str(&format!("    int {v} = {};\n", rng.index(20)));
    }
    block(rng, 2, &mut body, 1);
    body.push_str("    print(a + b + c + d);\n    return 0;\n");
    format!("int helper(int x) {{ return x * 2 + 1; }}\n\nint main() {{\n{body}}}\n")
}

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
        "stale decoded slot survived the text store"
    );
    assert_eq!(fast, reference, "engines diverged on same-line text store");
}

#[test]
fn engines_agree_on_random_programs_across_the_protection_grid() {
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
