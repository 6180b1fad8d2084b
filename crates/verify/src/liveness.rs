//! Backward register-liveness analysis over the recovered flow graph.
//!
//! Lattice: the powerset of the 32 architectural registers as a `u32`
//! bitmask ordered by inclusion (join = union, height 32).  Transfer:
//! `live_in = uses ∪ (live_out ∖ defs)`.  The boundary fact at nodes with
//! no static successors (returns, computed jumps, undecodable words) is
//! the empty set.
//!
//! Call continuations are ordinary edges here, so liveness flows from the
//! continuation back into the call site — the standard intraprocedural
//! approximation.  Callee effects are not modelled, which over-
//! approximates liveness across calls (a register the callee always
//! rewrites is still reported live) and is therefore conservative for the
//! FP601 clobber lint.  Writes to `$zero` are architecturally inert but
//! tracked like any other register so the analysis matches a per-register
//! simulation bit for bit; consumers filter `$zero` out.

use flexprot_isa::{Inst, Reg};

use crate::dataflow::{self, Analysis, Direction};
use crate::flow::Flow;

/// Per-word live-register masks (bit `k` = the register with index `k`).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live immediately before each word executes.
    pub live_in: Vec<u32>,
    /// Registers live immediately after each word executes.
    pub live_out: Vec<u32>,
}

impl Liveness {
    /// Whether `reg` is live immediately after word `index` executes.
    pub fn live_out_has(&self, index: usize, reg: Reg) -> bool {
        self.live_out[index] & (1u32 << reg.index()) != 0
    }
}

/// Mask of registers `inst` reads (`None` decodes read nothing).
pub fn uses_mask(inst: Option<Inst>) -> u32 {
    let Some(inst) = inst else { return 0 };
    inst.uses()
        .into_iter()
        .flatten()
        .fold(0u32, |m, r| m | 1u32 << r.index())
}

/// Mask of registers `inst` writes (`None` decodes write nothing).
pub fn def_mask(inst: Option<Inst>) -> u32 {
    inst.and_then(|i| i.def()).map_or(0, |r| 1u32 << r.index())
}

struct LiveAnalysis<'f> {
    flow: &'f Flow,
}

impl Analysis for LiveAnalysis<'_> {
    type Fact = u32;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> u32 {
        0
    }

    fn join(&self, into: &mut u32, from: &u32) -> bool {
        let joined = *into | *from;
        let changed = joined != *into;
        *into = joined;
        changed
    }

    fn transfer(&self, node: usize, live_out: &u32) -> u32 {
        let inst = self.flow.decoded[node];
        uses_mask(inst) | (live_out & !def_mask(inst))
    }
}

/// Runs the analysis to fixpoint over `flow`.
pub fn analyze(flow: &Flow) -> Liveness {
    let solution = dataflow::solve(&LiveAnalysis { flow }, &flow.succ_index, &[]);
    Liveness {
        live_out: solution.input,
        live_in: solution.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn liveness_of(src: &str) -> (Flow, Liveness) {
        let image = flexprot_asm::assemble_or_panic(src);
        let flow = Flow::recover(&image, &image.text.clone());
        let live = analyze(&flow);
        (flow, live)
    }

    #[test]
    fn use_keeps_register_live_back_to_its_def() {
        let (_, live) = liveness_of(
            r#"
main:   li   $t0, 7
        li   $t1, 1
        add  $t2, $t0, $t1
        syscall
"#,
        );
        let t0 = 1u32 << Reg::T0.index();
        assert_ne!(live.live_out[0] & t0, 0, "$t0 live across the second li");
        assert_ne!(live.live_in[2] & t0, 0);
        assert_eq!(live.live_out[2] & t0, 0, "dead after its last use");
    }

    #[test]
    fn redefinition_kills_liveness() {
        let (_, live) = liveness_of(
            r#"
main:   li   $t0, 1
        li   $t0, 2
        add  $t1, $t0, $t0
        syscall
"#,
        );
        let t0 = 1u32 << Reg::T0.index();
        assert_eq!(
            live.live_out[0] & t0,
            0,
            "first def is dead: the second li redefines $t0 without reading it"
        );
    }

    #[test]
    fn branch_joins_liveness_from_both_arms() {
        let (_, live) = liveness_of(
            r#"
main:   beq  $a0, $zero, other
        add  $v0, $t0, $zero
        syscall
other:  add  $v0, $t1, $zero
        syscall
"#,
        );
        let t0 = 1u32 << Reg::T0.index();
        let t1 = 1u32 << Reg::T1.index();
        assert_ne!(live.live_in[0] & t0, 0);
        assert_ne!(live.live_in[0] & t1, 0);
    }

    #[test]
    fn loop_liveness_reaches_fixpoint() {
        let (_, live) = liveness_of(
            r#"
main:   li   $t0, 10
loop:   addi $t0, $t0, -1
        bne  $t0, $zero, loop
        syscall
"#,
        );
        let t0 = 1u32 << Reg::T0.index();
        // Around the back edge $t0 stays live.
        assert_ne!(live.live_out[1] & t0, 0);
        assert_ne!(live.live_out[2] & t0, 0);
    }
}
