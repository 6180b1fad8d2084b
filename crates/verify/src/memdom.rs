//! Memory-sensitive extension of the [`crate::absint`] value-set domain:
//! pointer provenance plus a tracked stack frame.
//!
//! The plain register analysis seeds every root with `Top` registers, so
//! any `$sp`/`$fp`-relative store inside a checksum window used to force a
//! sound refusal ("store may target the text segment") even though the
//! hardware architecturally pins `$sp = $fp = STACK_TOP` at reset and the
//! compiled programs only ever move those registers by known constants.
//! This module recovers that fact with a two-region provenance lattice:
//!
//! ```text
//! MemVal = { base : Abs | Stack,  off : AbsVal }
//! ```
//!
//! `Abs` values are ordinary scalars (the offset *is* the value); `Stack`
//! values denote `seed + off`, where `seed` is the unknown-but-in-stack
//! value `$sp` held when control entered the analysis root. Pointer
//! arithmetic keeps provenance exact where the simulator does: adding a
//! known scalar to a stack pointer stays `Stack`, subtracting two stack
//! pointers yields the scalar difference, and anything else degrades to
//! `Abs`/`Top`. On top of the registers the state tracks the *stack frame*
//! itself — a partial map from seed-relative word offsets to abstract
//! values — so spills (`sw $fp, 24($sp)`) survive to their reloads
//! (`lw $fp, 24($fp)`), which is what lets the transparency proofs in
//! [`crate::equiv`] decide branches after a frame round-trip.
//!
//! # Memory model
//!
//! The domain's claims rest on three assumptions, stated here once and
//! referenced by the proofs that consume them (DESIGN.md §"Verification
//! architecture v5" carries the full argument):
//!
//! * **A1 (region separation)** — every concretisation of a `Stack`-based
//!   value lies in `[STACK_REGION_MIN, STACK_REGION_MAX)`. The segment
//!   layout puts text and data far below this region, so a `Stack`-based
//!   store can never hit a checksum window. The root seed is the hardware
//!   reset contract (`$sp = $fp = STACK_TOP`); the assumption is that
//!   tracked pointer arithmetic never walks the stack pointer out of the
//!   region (a bounded-stack discipline every generated program obeys).
//! * **A2 (calling discipline)** — interior analysis roots (named symbols
//!   reached through unresolved indirect flow) still hold stack-region
//!   `$sp`/`$fp`, and a `jal`/`jalr` callee preserves `$sp`, `$fp`,
//!   `$gp`, `$s0..$s7`, `$k0`/`$k1` and the caller's frame slots at or
//!   above the `$sp` held at the call. Caller-saved registers and deeper
//!   slots are havocked at every call continuation.
//! * **A3 (closed world)** — no agent other than the analysed instructions
//!   writes memory (single hart, no DMA), matching the simulator.
//!
//! The brute-force proptests in `verify/tests/alias_props.rs` check the
//! resulting store partition against concrete execution on random MiniC
//! programs; the T13 cross-check scores it against the attack oracle.

use std::collections::BTreeMap;

use flexprot_isa::{Image, Inst, Reg};

use crate::absint::{scalar_eval, AbsVal};
use crate::dataflow::{self, Analysis, Direction};
use crate::flow::Flow;

/// Lower bound of the architectural stack region (assumption A1).
pub const STACK_REGION_MIN: u32 = 0x7000_0000;
/// Exclusive upper bound of the architectural stack region.
pub const STACK_REGION_MAX: u32 = 0x8000_0000;

/// Provenance of an abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// A plain scalar: the offset is the value itself.
    Abs,
    /// `seed + off`, where `seed` is the root's unknown stack pointer.
    Stack,
}

/// One provenance-carrying abstract value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemVal {
    /// Which region the value is relative to.
    pub base: Base,
    /// Scalar part (the value for `Abs`, the displacement for `Stack`).
    pub off: AbsVal,
}

impl MemVal {
    /// The unconstrained value.
    pub fn top() -> MemVal {
        MemVal {
            base: Base::Abs,
            off: AbsVal::Top,
        }
    }

    /// A plain scalar.
    pub fn abs(off: AbsVal) -> MemVal {
        MemVal {
            base: Base::Abs,
            off,
        }
    }

    /// A stack-region value displaced `off` from the root seed.
    pub fn stack(off: AbsVal) -> MemVal {
        MemVal {
            base: Base::Stack,
            off,
        }
    }

    /// The scalar part if the value carries no stack provenance.
    pub fn scalar(&self) -> Option<&AbsVal> {
        match self.base {
            Base::Abs => Some(&self.off),
            Base::Stack => None,
        }
    }

    /// The pointer-blind view: `Stack` provenance concretises to `Top`.
    pub fn as_abs(&self) -> AbsVal {
        match self.base {
            Base::Abs => self.off.clone(),
            Base::Stack => match &self.off {
                AbsVal::Bot => AbsVal::Bot,
                _ => AbsVal::Top,
            },
        }
    }

    /// Whether no concrete value is feasible.
    pub fn is_bot(&self) -> bool {
        self.off == AbsVal::Bot
    }

    /// Least upper bound; mixed provenance widens to `Top`.
    pub fn join(&self, other: &MemVal) -> MemVal {
        if self.is_bot() {
            return other.clone();
        }
        if other.is_bot() {
            return self.clone();
        }
        if self.base == other.base {
            MemVal {
                base: self.base,
                off: self.off.join(&other.off),
            }
        } else {
            MemVal::top()
        }
    }
}

/// `a + b` with provenance: stack + scalar stays on the stack, stack +
/// stack escapes the model.
fn add_vals(a: &MemVal, b: &MemVal) -> MemVal {
    match (a.base, b.base) {
        (Base::Abs, Base::Abs) => MemVal::abs(a.off.map2(&b.off, u32::wrapping_add)),
        (Base::Stack, Base::Abs) => MemVal::stack(a.off.map2(&b.off, u32::wrapping_add)),
        (Base::Abs, Base::Stack) => MemVal::stack(b.off.map2(&a.off, u32::wrapping_add)),
        (Base::Stack, Base::Stack) => MemVal::top(),
    }
}

/// `a - b` with provenance: stack − stack is the exact scalar difference.
fn sub_vals(a: &MemVal, b: &MemVal) -> MemVal {
    match (a.base, b.base) {
        (Base::Abs, Base::Abs) => MemVal::abs(a.off.map2(&b.off, u32::wrapping_sub)),
        (Base::Stack, Base::Abs) => MemVal::stack(a.off.map2(&b.off, u32::wrapping_sub)),
        (Base::Stack, Base::Stack) => MemVal::abs(a.off.map2(&b.off, u32::wrapping_sub)),
        (Base::Abs, Base::Stack) => MemVal::top(),
    }
}

/// Abstract machine state at one program point: provenance-carrying
/// registers plus the tracked stack frame (seed-relative word slots).
/// A slot key absent from the map means that word's content is unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemState {
    /// One [`MemVal`] per architectural register.
    pub regs: Vec<MemVal>,
    /// Known stack words, keyed by seed-relative byte offset (4-aligned).
    pub slots: BTreeMap<i32, MemVal>,
}

impl MemState {
    /// The address `off(base)` resolves to in this state.
    pub fn effective_addr(&self, base: Reg, off: i16) -> MemVal {
        let disp = MemVal::abs(AbsVal::Const(off as i32 as u32));
        add_vals(&self.regs[base.index() as usize], &disp)
    }
}

/// Per-node fact: `None` where no static path arrives.
pub type MemFact = Option<MemState>;

/// The register file every root starts with (assumptions A1/A2): `$zero`
/// pinned, `$sp`/`$fp` stack-region at the (symbolic) seed, all else
/// unknown. `exact_seed` is true at the architectural entry, where the
/// reset contract additionally pins the displacement to zero.
fn root_state(exact_seed: bool) -> MemState {
    let mut regs = vec![MemVal::top(); 32];
    regs[Reg::ZERO.index() as usize] = MemVal::abs(AbsVal::Const(0));
    let sp = if exact_seed {
        MemVal::stack(AbsVal::Const(0))
    } else {
        MemVal::stack(AbsVal::Top)
    };
    regs[Reg::SP.index() as usize] = sp.clone();
    regs[Reg::FP.index() as usize] = sp;
    MemState {
        regs,
        slots: BTreeMap::new(),
    }
}

/// Registers a callee may clobber (assumption A2): everything except
/// `$zero`, `$sp`, `$fp`, `$gp`, `$s0..$s7` and `$k0`/`$k1`.
pub(crate) fn caller_saved(reg: usize) -> bool {
    let r = Reg::from_bits(reg as u32);
    !(r == Reg::ZERO
        || r == Reg::SP
        || r == Reg::FP
        || r == Reg::GP
        || r == Reg::K0
        || r == Reg::K1
        || (Reg::S0.index()..=Reg::S7.index()).contains(&(reg as u8)))
}

/// Byte span a store of `size` bytes at slot offset `k` can touch,
/// widened to the enclosing word boundaries.
fn touched_words(k: i32, size: i32) -> std::ops::RangeInclusive<i32> {
    let lo = k.div_euclid(4) * 4;
    let hi = (k + size - 1).div_euclid(4) * 4;
    lo..=hi
}

/// Drops every tracked slot a store through `target` (of `size` bytes)
/// could have overwritten, then (for an exactly-resolved aligned word
/// store) records the stored value.
fn apply_store(state: &mut MemState, target: &MemVal, size: u32, value: MemVal) {
    match target.base {
        Base::Stack => match target.off.values() {
            None => state.slots.clear(),
            Some(offs) => {
                for &o in offs {
                    let k = o as i32;
                    for w in touched_words(k, size as i32) {
                        state.slots.remove(&w);
                    }
                }
                // Strong update: a word store to exactly one aligned slot.
                if size == 4 {
                    if let AbsVal::Const(o) = target.off {
                        let k = o as i32;
                        if k % 4 == 0 {
                            state.slots.insert(k, value);
                        }
                    }
                }
            }
        },
        Base::Abs => {
            // A scalar-addressed store can only disturb the frame if some
            // concretisation lands in the stack region (A1).
            let may_hit_stack = match target.off.values() {
                None => true,
                Some(vs) => vs
                    .iter()
                    .any(|&a| a.wrapping_add(size) > STACK_REGION_MIN && a < STACK_REGION_MAX),
            };
            if may_hit_stack {
                state.slots.clear();
            }
        }
    }
}

/// Havoc applied at a call continuation (assumption A2): caller-saved
/// registers become unknown and frame slots below the caller's `$sp` at
/// the call are dropped (the callee's frame lives there).
fn apply_call(state: &mut MemState) {
    let sp = state.regs[Reg::SP.index() as usize].clone();
    match (sp.base, sp.off.values()) {
        (Base::Stack, Some(offs)) if !offs.is_empty() => {
            let min = offs.iter().map(|&o| o as i32).min().unwrap_or(0);
            state.slots.retain(|&k, _| k >= min);
        }
        _ => state.slots.clear(),
    }
    for (i, r) in state.regs.iter_mut().enumerate() {
        if caller_saved(i) {
            *r = MemVal::top();
        }
    }
}

/// The forward memory-sensitive analysis, one node per text word.
struct MemAbs<'a> {
    flow: &'a Flow,
    image: &'a Image,
}

impl MemAbs<'_> {
    fn eval(&self, addr: u32, inst: Inst, state: &mut MemState) {
        use Inst::*;
        let set = |state: &mut MemState, rd: Reg, val: MemVal| {
            if rd != Reg::ZERO {
                state.regs[rd.index() as usize] = val;
            }
        };
        let r = |state: &MemState, reg: Reg| state.regs[reg.index() as usize].clone();
        match inst {
            // Pointer-aware arithmetic: provenance survives displacement.
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                let v = add_vals(&r(state, rs), &r(state, rt));
                set(state, rd, v);
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                let v = sub_vals(&r(state, rs), &r(state, rt));
                set(state, rd, v);
            }
            Addi { rt, rs, imm } => {
                let disp = MemVal::abs(AbsVal::Const(imm as i32 as u32));
                let v = add_vals(&r(state, rs), &disp);
                set(state, rt, v);
            }
            // `or`/`xor`/`ori`/`xori` with zero are common move idioms;
            // keep provenance there, degrade otherwise.
            Or { rd, rs, rt } | Xor { rd, rs, rt } => {
                let a = r(state, rs);
                let b = r(state, rt);
                let v = match (a.scalar(), b.scalar()) {
                    (_, Some(AbsVal::Const(0))) => a.clone(),
                    (Some(AbsVal::Const(0)), _) => b.clone(),
                    _ => {
                        let f: fn(u32, u32) -> u32 = match inst {
                            Or { .. } => |x, y| x | y,
                            _ => |x, y| x ^ y,
                        };
                        MemVal::abs(a.as_abs().map2(&b.as_abs(), f))
                    }
                };
                set(state, rd, v);
            }
            Ori { rt, rs, imm: 0 } | Xori { rt, rs, imm: 0 } => {
                let v = r(state, rs);
                set(state, rt, v);
            }
            // Loads: a frame load at a resolved slot returns the tracked
            // value (this is what carries `$fp` across an epilogue).
            Lw { rt, off, base } => {
                let target = state.effective_addr(base, off);
                let v = match (target.base, &target.off) {
                    (Base::Stack, AbsVal::Const(o)) => state
                        .slots
                        .get(&(*o as i32))
                        .cloned()
                        .unwrap_or_else(MemVal::top),
                    _ => MemVal::top(),
                };
                set(state, rt, v);
            }
            Lb { rt, .. } | Lh { rt, .. } | Lbu { rt, .. } | Lhu { rt, .. } => {
                set(state, rt, MemVal::top());
            }
            // Stores mutate the tracked frame, never a register.
            Sb { rt: _, off, base } | Sh { rt: _, off, base } | Sw { rt: _, off, base } => {
                let size = match inst {
                    Sb { .. } => 1,
                    Sh { .. } => 2,
                    _ => 4,
                };
                let target = state.effective_addr(base, off);
                let value = match inst {
                    Sw { rt, .. } => r(state, rt),
                    _ => MemVal::top(),
                };
                apply_store(state, &target, size, value);
            }
            // Calls: havoc per A2, then the link register is exact.
            Jal { .. } => {
                apply_call(state);
                set(
                    state,
                    Reg::RA,
                    MemVal::abs(AbsVal::Const(addr.wrapping_add(4))),
                );
            }
            Jalr { rd, .. } => {
                apply_call(state);
                set(state, rd, MemVal::abs(AbsVal::Const(addr.wrapping_add(4))));
            }
            // Everything else is scalar: evaluate over the pointer-blind
            // view and re-wrap as `Abs`.
            _ => {
                let scalars: Vec<AbsVal> = state.regs.iter().map(MemVal::as_abs).collect();
                if let Some((rd, val)) = scalar_eval(addr, inst, &scalars) {
                    set(state, rd, MemVal::abs(val));
                }
            }
        }
    }
}

impl Analysis for MemAbs<'_> {
    type Fact = MemFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> MemFact {
        None
    }

    fn join(&self, into: &mut MemFact, from: &MemFact) -> bool {
        let Some(from) = from else { return false };
        match into {
            None => {
                *into = Some(from.clone());
                true
            }
            Some(into) => {
                let mut changed = false;
                for (i, f) in into.regs.iter_mut().zip(&from.regs) {
                    let joined = i.join(f);
                    if joined != *i {
                        *i = joined;
                        changed = true;
                    }
                }
                // Slot intersection: a word is known only if both paths
                // know it; disagreeing values join.
                let keys: Vec<i32> = into.slots.keys().copied().collect();
                for k in keys {
                    match from.slots.get(&k) {
                        None => {
                            into.slots.remove(&k);
                            changed = true;
                        }
                        Some(f) => {
                            let i = &into.slots[&k];
                            let joined = i.join(f);
                            if joined != *i {
                                into.slots.insert(k, joined);
                                changed = true;
                            }
                        }
                    }
                }
                changed
            }
        }
    }

    fn transfer(&self, node: usize, input: &MemFact) -> MemFact {
        let state = input.as_ref()?;
        let mut state = state.clone();
        if let Some(inst) = self.flow.decoded[node] {
            self.eval(self.image.addr_of_index(node), inst, &mut state);
        }
        Some(state)
    }
}

/// Runs the memory-sensitive analysis, returning the abstract state
/// *entering* each text word (`None` where no static path arrives).
pub fn analyze_memory(image: &Image, flow: &Flow) -> Vec<MemFact> {
    let seeds: Vec<(usize, MemFact)> = flow
        .roots()
        .map(|i| (i, Some(root_state(flow.entry == Some(i)))))
        .collect();
    let analysis = MemAbs { flow, image };
    dataflow::solve(&analysis, &flow.succ_index, &seeds).input
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states_of(src: &str) -> (Flow, Vec<MemFact>) {
        let image = flexprot_asm::assemble_or_panic(src);
        let flow = Flow::recover(&image, &image.text.clone());
        let states = analyze_memory(&image, &flow);
        (flow, states)
    }

    /// Node index just past the `n`th load of `rt` (the first point where
    /// the loaded value is observable in an *entering* state).
    fn after_load(flow: &Flow, rt: Reg, n: usize) -> usize {
        flow.decoded
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Some(Inst::Lw { rt: r, .. }) if *r == rt))
            .map(|(i, _)| i + 1)
            .nth(n)
            .expect("load present")
    }

    fn reg(states: &[MemFact], node: usize, r: Reg) -> MemVal {
        states[node].as_ref().expect("reachable").regs[r.index() as usize].clone()
    }

    #[test]
    fn entry_pins_the_stack_seed_exactly() {
        let (_flow, states) = states_of("main: nop\n li $v0, 10\n syscall\n");
        assert_eq!(reg(&states, 1, Reg::SP), MemVal::stack(AbsVal::Const(0)));
        assert_eq!(reg(&states, 1, Reg::FP), MemVal::stack(AbsVal::Const(0)));
        assert_eq!(reg(&states, 1, Reg::ZERO), MemVal::abs(AbsVal::Const(0)));
    }

    #[test]
    fn frame_arithmetic_keeps_provenance() {
        let (_flow, states) = states_of(
            "main: addi $sp, $sp, -32\n move $fp, $sp\n addi $t0, $fp, 8\n \
             sub $t1, $t0, $sp\n li $v0, 10\n syscall\n",
        );
        // After the prologue: $sp = seed − 32, $fp = seed − 32.
        assert_eq!(
            reg(&states, 2, Reg::SP),
            MemVal::stack(AbsVal::Const(-32i32 as u32))
        );
        assert_eq!(
            reg(&states, 2, Reg::FP),
            MemVal::stack(AbsVal::Const(-32i32 as u32))
        );
        // $t0 = $fp + 8 stays on the stack; $t0 − $sp is the exact scalar 8.
        assert_eq!(
            reg(&states, 3, Reg::T0),
            MemVal::stack(AbsVal::Const(-24i32 as u32))
        );
        assert_eq!(reg(&states, 4, Reg::T1), MemVal::abs(AbsVal::Const(8)));
    }

    #[test]
    fn spill_and_reload_round_trips_through_the_frame() {
        // The MiniC prologue/epilogue shape: save $fp, rebase it, reload.
        let (flow, states) = states_of(
            "main: li $t3, 7\n addi $sp, $sp, -16\n sw $t3, 8($sp)\n \
             move $fp, $sp\n lw $t4, 8($fp)\n li $v0, 10\n syscall\n",
        );
        let at = after_load(&flow, Reg::T4, 0);
        assert_eq!(reg(&states, at, Reg::T4), MemVal::abs(AbsVal::Const(7)));
    }

    #[test]
    fn join_intersects_frame_slots() {
        let (flow, states) = {
            let mut image = flexprot_asm::assemble_or_panic(
                "main: addi $sp, $sp, -16\n beq $a0, $zero, other\n sw $zero, 8($sp)\n \
                 j done\n other: nop\n done: lw $t0, 8($sp)\n li $v0, 10\n syscall\n",
            );
            image.symbols.retain(|name, _| name.as_str() == "main");
            let flow = Flow::recover(&image, &image.text.clone());
            let states = analyze_memory(&image, &flow);
            (flow, states)
        };
        // Only one arm wrote the slot, so after the join it is unknown.
        let at = after_load(&flow, Reg::T0, 0);
        assert_eq!(reg(&states, at, Reg::T0), MemVal::top());
    }

    #[test]
    fn unknown_scalar_store_clears_the_frame_but_data_store_does_not() {
        let (flow, states) = states_of(
            "main: addi $sp, $sp, -16\n sw $zero, 8($sp)\n li $t0, 0x10010000\n \
             sw $zero, 0($t0)\n lw $t1, 8($sp)\n lw $t2, 0($a0)\n sw $zero, 0($t2)\n \
             lw $t3, 8($sp)\n li $v0, 10\n syscall\n",
        );
        // The data-segment store cannot alias the frame (A1)…
        let t1_at = after_load(&flow, Reg::T1, 0);
        assert_eq!(reg(&states, t1_at, Reg::T1), MemVal::abs(AbsVal::Const(0)));
        // …but the unknown-pointer store havocks it.
        let t3_at = after_load(&flow, Reg::T3, 0);
        assert_eq!(reg(&states, t3_at, Reg::T3), MemVal::top());
    }

    #[test]
    fn calls_havoc_caller_saved_state_but_keep_the_frame_pointer() {
        let (flow, states) = states_of(
            "main: addi $sp, $sp, -16\n li $t0, 5\n li $s0, 6\n sw $zero, 8($sp)\n \
             jal helper\n lw $t1, 8($sp)\n li $v0, 10\n syscall\n\
             helper: jr $ra\n",
        );
        // State entering the post-call reload: temporaries havocked,
        // callee-saved and the stack pointer intact.
        let reload = after_load(&flow, Reg::T1, 0) - 1;
        assert_eq!(reg(&states, reload, Reg::T0), MemVal::top());
        assert_eq!(reg(&states, reload, Reg::S0), MemVal::abs(AbsVal::Const(6)));
        assert_eq!(
            reg(&states, reload, Reg::SP),
            MemVal::stack(AbsVal::Const(-16i32 as u32))
        );
        // The caller's frame slot (at $sp + 8 ≥ $sp) survives the callee.
        assert_eq!(
            reg(&states, reload + 1, Reg::T1),
            MemVal::abs(AbsVal::Const(0)),
            "caller frame slot must survive the call"
        );
    }

    #[test]
    fn stack_stack_addition_and_escaping_ops_degrade() {
        let (_flow, states) =
            states_of("main: add $t0, $sp, $fp\n sll $t1, $sp, 2\n li $v0, 10\n syscall\n");
        assert_eq!(reg(&states, 1, Reg::T0), MemVal::top());
        assert_eq!(reg(&states, 2, Reg::T1), MemVal::top());
    }
}
