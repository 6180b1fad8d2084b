//! Key-flow taint analysis (FP9xx): forward information flow from cipher
//! key material to observable sinks.
//!
//! Under the fetch-path threat model the only key-derived data a program
//! can reach is its own ciphertext: every word inside a configured
//! [`flexprot_secmon::EncRegion`] is `plaintext XOR keystream(key)`, so a
//! *data* load from an encrypted region observes a keystream-dependent
//! value. The hardware decrypts only the fetch path — a program that
//! reads, transforms and re-emits its own ciphertext is exfiltrating key
//! material, exactly the leak class the protection exists to prevent.
//!
//! The analysis runs forward on the same worklist solver as
//! [`crate::memdom`], consuming the memory-sensitive points-to facts to
//! resolve addresses:
//!
//! * **Sources** — loads whose target *must*-aliases an encrypted region
//!   (every concretisation reads ciphertext). A load that only *may*
//!   alias a region is not a source — that would taint half the program
//!   off a loop-widened pointer — but is surfaced as `FP904` so the
//!   approximation is never silent.
//! * **Propagation** — ALU results are tainted when any operand is;
//!   tracked stack slots ([`crate::memdom::MemState::slots`]) carry taint
//!   through spill/reload pairs; a tainted store at an unresolved
//!   stack address poisons the whole frame (`stack_wild`). The stack
//!   region itself is private scratch under assumption A1, so stack
//!   traffic propagates rather than leaks.
//! * **Sinks** — a tainted value stored outside the stack region and
//!   outside every encrypted region is `FP901` (the leak); a tainted
//!   `$v0`/`$a0` at a `syscall` is `FP902` (the value escapes through
//!   the environment); a branch condition or load/store address built
//!   from tainted data is `FP903` (key-dependent control flow or access
//!   pattern — a side channel, not a direct leak).
//!
//! Calls clear taint on caller-saved registers (the callee is analysed at
//! its own root; return-value flow is not modelled), which under-taints
//! across calls — documented as a lint approximation, not a soundness
//! claim. The FP9xx lints are warnings-and-errors over an *intentional*
//! leak pattern: a clean protected program loads no ciphertext, has no
//! source and therefore no FP9xx finding, which is what lets
//! `ProtectionConfig::with_key_flow_check` gate every protect run.

use std::collections::BTreeSet;

use flexprot_isa::{Image, Inst, Reg};
use flexprot_secmon::SecMonConfig;

use crate::absint::AbsVal;
use crate::dataflow::{self, Analysis, Direction};
use crate::diag;
use crate::flow::Flow;
use crate::memdom::{self, Base, MemFact, MemState, MemVal};
use crate::Sink;

/// How a memory access relates to the union of encrypted regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionClass {
    /// No concretisation touches an encrypted region.
    Outside,
    /// Every concretisation reads/writes ciphertext; witness address.
    Inside(u32),
    /// Undecided.
    May,
}

/// Classifies an access of `size` bytes at `target` against every
/// configured encrypted region.
fn region_class(config: &SecMonConfig, target: &MemVal, size: u32) -> RegionClass {
    let regions = config.regions.regions();
    if regions.is_empty() {
        return RegionClass::Outside;
    }
    match target.base {
        // A1: regions live in the text segment, far below the stack.
        Base::Stack => RegionClass::Outside,
        Base::Abs => match target.off.values() {
            None => RegionClass::May,
            Some(vs) => {
                let hit = |a: u32| {
                    regions
                        .iter()
                        .any(|r| a.wrapping_add(size) > r.start && a < r.end)
                };
                let n = vs.iter().filter(|&&a| hit(a)).count();
                if n == 0 {
                    RegionClass::Outside
                } else if n == vs.len() {
                    RegionClass::Inside(*vs.iter().find(|&&a| hit(a)).unwrap())
                } else {
                    RegionClass::May
                }
            }
        },
    }
}

/// Taint facts at one program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintState {
    /// Bit `i` set when register `i` holds key-derived data.
    pub regs: u32,
    /// Tracked stack slots (seed-relative byte offsets) holding taint.
    pub slots: BTreeSet<i32>,
    /// A tainted value was stored at an unresolved stack address, so any
    /// stack load may observe it.
    pub stack_wild: bool,
}

impl TaintState {
    /// Whether `r` holds key-derived data.
    pub fn tainted(&self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    fn set(&mut self, r: Reg, tainted: bool) {
        if r == Reg::ZERO {
            return;
        }
        if tainted {
            self.regs |= 1 << r.index();
        } else {
            self.regs &= !(1 << r.index());
        }
    }
}

/// Per-node fact: `None` where no static path arrives.
pub type TaintFact = Option<TaintState>;

/// The decoded instruction's memory operand, if it is a load or store:
/// `(is_store, value/dest register, base register, offset, size)`.
fn mem_operand(inst: Inst) -> Option<(bool, Reg, Reg, i16, u32)> {
    use Inst::*;
    match inst {
        Lb { rt, off, base } | Lbu { rt, off, base } => Some((false, rt, base, off, 1)),
        Lh { rt, off, base } | Lhu { rt, off, base } => Some((false, rt, base, off, 2)),
        Lw { rt, off, base } => Some((false, rt, base, off, 4)),
        Sb { rt, off, base } => Some((true, rt, base, off, 1)),
        Sh { rt, off, base } => Some((true, rt, base, off, 2)),
        Sw { rt, off, base } => Some((true, rt, base, off, 4)),
        _ => None,
    }
}

/// Whether a load at `target` (under `taint`) observes key-derived data.
fn load_taint(config: &SecMonConfig, taint: &TaintState, target: &MemVal, size: u32) -> bool {
    if matches!(region_class(config, target, size), RegionClass::Inside(_)) {
        return true; // reading own ciphertext: the source
    }
    match (target.base, &target.off) {
        (Base::Stack, AbsVal::Const(o)) => taint.stack_wild || taint.slots.contains(&(*o as i32)),
        (Base::Stack, _) => taint.stack_wild || !taint.slots.is_empty(),
        // An unresolved scalar pointer may also read the poisoned frame.
        (Base::Abs, AbsVal::Top) => taint.stack_wild,
        (Base::Abs, _) => false,
    }
}

/// Applies a store's effect on the taint state (propagation only; leak
/// detection happens in the reporting pass).
fn store_taint(taint: &mut TaintState, target: &MemVal, size: u32, value_tainted: bool) {
    match (target.base, &target.off) {
        (Base::Stack, AbsVal::Const(o)) => {
            let k = *o as i32;
            if value_tainted {
                // Mark every word the store touches.
                let lo = k.div_euclid(4) * 4;
                let hi = (k + size as i32 - 1).div_euclid(4) * 4;
                let mut w = lo;
                while w <= hi {
                    taint.slots.insert(w);
                    w += 4;
                }
            } else if size == 4 && k % 4 == 0 {
                taint.slots.remove(&k); // strong update clears the slot
            }
        }
        (Base::Stack, _) => {
            if value_tainted {
                taint.stack_wild = true;
            }
        }
        (Base::Abs, _) => {
            if value_tainted {
                // The scalar pointer may land in the stack region too.
                taint.stack_wild = true;
            }
        }
    }
}

/// The forward key-flow analysis, one node per text word, reading the
/// memory-sensitive points-to facts for address resolution.
struct TaintAbs<'a> {
    flow: &'a Flow,
    config: &'a SecMonConfig,
    mem: &'a [MemFact],
}

impl TaintAbs<'_> {
    fn eval(&self, node: usize, inst: Inst, taint: &mut TaintState) {
        let mstate = self.mem.get(node).and_then(|f| f.as_ref());
        let target_of = |base: Reg, off: i16| -> MemVal {
            mstate.map_or_else(MemVal::top, |s| s.effective_addr(base, off))
        };
        if let Some((is_store, rt, base, off, size)) = mem_operand(inst) {
            let target = target_of(base, off);
            if is_store {
                let value_tainted = taint.tainted(rt);
                store_taint(taint, &target, size, value_tainted);
            } else {
                let t = load_taint(self.config, taint, &target, size);
                taint.set(rt, t);
            }
            return;
        }
        match inst {
            // A callee may clobber the caller-saved registers, so their
            // taint clears at calls (return-value flow is not modelled — a
            // documented approximation).
            Inst::Jal { .. } | Inst::Jalr { .. } => {
                for r in 0..32 {
                    if memdom::caller_saved(r) {
                        taint.set(Reg::from_bits(r as u32), false);
                    }
                }
            }
            _ => {
                if let Some(rd) = inst.def() {
                    let t = inst.uses().iter().flatten().any(|&r| taint.tainted(r));
                    taint.set(rd, t);
                }
            }
        }
    }
}

impl Analysis for TaintAbs<'_> {
    type Fact = TaintFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> TaintFact {
        None
    }

    fn join(&self, into: &mut TaintFact, from: &TaintFact) -> bool {
        let Some(from) = from else { return false };
        match into {
            None => {
                *into = Some(from.clone());
                true
            }
            Some(into) => {
                let mut changed = false;
                let regs = into.regs | from.regs;
                if regs != into.regs {
                    into.regs = regs;
                    changed = true;
                }
                for &k in &from.slots {
                    changed |= into.slots.insert(k);
                }
                if from.stack_wild && !into.stack_wild {
                    into.stack_wild = true;
                    changed = true;
                }
                changed
            }
        }
    }

    fn transfer(&self, node: usize, input: &TaintFact) -> TaintFact {
        let taint = input.as_ref()?;
        let mut taint = taint.clone();
        if let Some(inst) = self.flow.decoded[node] {
            self.eval(node, inst, &mut taint);
        }
        Some(taint)
    }
}

/// Runs the key-flow analysis, returning the taint state *entering* each
/// text word (`None` where no static path arrives). Roots match
/// [`crate::memdom::analyze_memory`]: the entry point plus every text
/// symbol, all starting untainted.
pub fn analyze_taint(
    image: &Image,
    config: &SecMonConfig,
    flow: &Flow,
    mem: &[MemFact],
) -> Vec<TaintFact> {
    let succs: Vec<Vec<usize>> = flow
        .succs
        .iter()
        .map(|es| es.iter().map(|e| e.to).collect())
        .collect();
    let mut seeds: Vec<(usize, TaintFact)> = Vec::new();
    let entry = image.text_index_of(image.entry);
    if let Some(e) = entry {
        seeds.push((e, Some(TaintState::default())));
    }
    for &addr in image.symbols.values() {
        if let Some(i) = image.text_index_of(addr) {
            if entry != Some(i) {
                seeds.push((i, Some(TaintState::default())));
            }
        }
    }
    let analysis = TaintAbs { flow, config, mem };
    dataflow::solve(&analysis, &succs, &seeds).input
}

/// Counters of one key-flow run (rendered into the lint JSON under
/// `"taint"` and into [`crate::VerifyStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintStats {
    /// Loads proven to read ciphertext (the taint sources).
    pub sources: usize,
    /// Tainted values stored outside stack and encrypted regions (FP901).
    pub tainted_stores: usize,
    /// Syscalls with a tainted operand register (FP902).
    pub tainted_syscalls: usize,
    /// Key-dependent branches or access patterns (FP903).
    pub key_dependent: usize,
    /// Loads that may read ciphertext but could not be resolved (FP904).
    pub unresolved_reads: usize,
}

/// Runs the key-flow analysis and reports every sink hit through `sink`,
/// returning the run counters. `mem` must be the points-to facts of the
/// same `flow` (see [`crate::memdom::analyze_memory`]).
pub(crate) fn check_taint(
    image: &Image,
    config: &SecMonConfig,
    flow: &Flow,
    mem: &[MemFact],
    sink: &mut Sink<'_>,
) -> TaintStats {
    let taints = analyze_taint(image, config, flow, mem);
    let mut stats = TaintStats::default();

    // Findings grouped by lint ID — FP901 stores first.
    for (i, fact) in taints.iter().enumerate() {
        let (Some(taint), Some(inst)) = (fact.as_ref(), flow.decoded[i]) else {
            continue;
        };
        let Some((true, rt, base, off, size)) = mem_operand(inst) else {
            continue;
        };
        if !taint.tainted(rt) {
            continue;
        }
        let target = target_at(mem, i, base, off);
        // Stack traffic propagates (private scratch, A1); a write-back
        // into an encrypted region stays inside the protected envelope.
        if target.base == Base::Stack {
            continue;
        }
        if matches!(region_class(config, &target, size), RegionClass::Inside(_)) {
            continue;
        }
        let addr = image.addr_of_index(i);
        let witness = target
            .scalar()
            .and_then(|v| v.values())
            .and_then(|vs| vs.first().copied());
        let detail = match witness {
            Some(w) => {
                format!("key-derived value in {rt} is stored to observable memory at {w:#010x}")
            }
            None => format!(
                "key-derived value in {rt} is stored through an unresolved pointer \
                 to observable memory"
            ),
        };
        sink.emit_capped(&diag::TAINT_KEY_STORE, addr, format_args!("{detail}"));
        stats.tainted_stores += 1;
    }
    sink.summarise(&diag::TAINT_KEY_STORE, "");

    // FP902 syscall operands.
    for (i, fact) in taints.iter().enumerate() {
        let (Some(taint), Some(Inst::Syscall)) = (fact.as_ref(), flow.decoded[i]) else {
            continue;
        };
        for r in [Reg::V0, Reg::A0] {
            if taint.tainted(r) {
                sink.emit_capped(
                    &diag::TAINT_KEY_SYSCALL,
                    image.addr_of_index(i),
                    format_args!("syscall operand {r} carries key-derived data"),
                );
                stats.tainted_syscalls += 1;
            }
        }
    }
    sink.summarise(&diag::TAINT_KEY_SYSCALL, "");

    // FP903 key-dependent control flow / access patterns.
    for (i, fact) in taints.iter().enumerate() {
        let (Some(taint), Some(inst)) = (fact.as_ref(), flow.decoded[i]) else {
            continue;
        };
        if inst.is_branch() {
            if inst.uses().iter().flatten().any(|&r| taint.tainted(r)) {
                sink.emit_capped(
                    &diag::TAINT_KEY_DEPENDENT,
                    image.addr_of_index(i),
                    format_args!("branch condition depends on key-derived data"),
                );
                stats.key_dependent += 1;
            }
        } else if let Some((_, _, base, _, _)) = mem_operand(inst) {
            if taint.tainted(base) {
                sink.emit_capped(
                    &diag::TAINT_KEY_DEPENDENT,
                    image.addr_of_index(i),
                    format_args!("memory address in {base} depends on key-derived data"),
                );
                stats.key_dependent += 1;
            }
        }
    }
    sink.summarise(&diag::TAINT_KEY_DEPENDENT, "");

    // FP904 unresolved ciphertext reads, plus the source counter.
    for (i, fact) in taints.iter().enumerate() {
        let (Some(_), Some(inst)) = (fact.as_ref(), flow.decoded[i]) else {
            continue;
        };
        let Some((false, _, base, off, size)) = mem_operand(inst) else {
            continue;
        };
        match region_class(config, &target_at(mem, i, base, off), size) {
            RegionClass::Inside(_) => stats.sources += 1,
            RegionClass::May => {
                sink.emit_capped(
                    &diag::TAINT_UNRESOLVED_READ,
                    image.addr_of_index(i),
                    format_args!(
                        "load may read an encrypted region but its address is unresolved; \
                         taint tracking is approximate here"
                    ),
                );
                stats.unresolved_reads += 1;
            }
            RegionClass::Outside => {}
        }
    }
    sink.summarise(&diag::TAINT_UNRESOLVED_READ, "");
    stats
}

/// The abstract target of the access at node `i`, `Top` when the memory
/// analysis has no state there.
fn target_at(mem: &[MemFact], i: usize, base: Reg, off: i16) -> MemVal {
    mem.get(i)
        .and_then(|f| f.as_ref())
        .map_or_else(MemVal::top, |s: &MemState| s.effective_addr(base, off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintPolicy;
    use flexprot_secmon::EncRegion;

    fn run(src: &str, regions: Vec<EncRegion>) -> (crate::diag::Report, TaintStats) {
        let image = flexprot_asm::assemble_or_panic(src);
        let mut config = SecMonConfig::transparent();
        config.regions = flexprot_secmon::RegionTable::new(regions);
        // The fetch path decrypts, so flow is recovered on the plaintext
        // view; the data path reads the stored ciphertext.
        let text = crate::decrypt_text(&image, &config);
        let flow = Flow::recover(&image, &text);
        let mem = crate::memdom::analyze_memory(&image, &flow);
        let policy = LintPolicy::default();
        let mut sink = Sink::new(&policy);
        let stats = check_taint(&image, &config, &flow, &mem, &mut sink);
        let report = crate::diag::Report {
            findings: sink.findings,
            stats: crate::diag::VerifyStats::default(),
        };
        (report, stats)
    }

    #[test]
    fn clean_program_has_no_taint_findings() {
        let (report, stats) = run(
            "main: li $t0, 0x10010000\n lw $t1, 0($t0)\n sw $t1, 4($t0)\n \
             li $v0, 10\n syscall\n",
            vec![],
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(stats, TaintStats::default());
    }

    #[test]
    fn ciphertext_read_stored_to_data_is_fp901_with_witness() {
        // Encrypt the first two words of main, then read word 0 as data
        // and store it to the data segment: the canonical key leak.
        let (report, stats) = run(
            "secret: nop\n nop\nmain: lui $t0, 0x40\n lw $t1, 0($t0)\n \
             li $t2, 0x10010000\n sw $t1, 0($t2)\n li $v0, 10\n syscall\n",
            vec![EncRegion {
                start: 0x0040_0000,
                end: 0x0040_0008,
                key: 0x5EED,
            }],
        );
        assert_eq!(stats.sources, 1, "{:?}", report.findings);
        assert_eq!(stats.tainted_stores, 1, "{:?}", report.findings);
        let f = report.with_id("FP901").next().expect("FP901 emitted");
        assert_eq!(f.severity, crate::Severity::Error);
        assert!(
            f.message.contains("0x10010000"),
            "witness address in message: {}",
            f.message
        );
    }

    #[test]
    fn taint_survives_a_spill_reload_round_trip() {
        let (report, stats) = run(
            "secret: nop\n nop\nmain: lui $t0, 0x40\n lw $t1, 0($t0)\n \
             addi $sp, $sp, -16\n sw $t1, 8($sp)\n lw $t3, 8($sp)\n \
             li $t2, 0x10010000\n sw $t3, 0($t2)\n li $v0, 10\n syscall\n",
            vec![EncRegion {
                start: 0x0040_0000,
                end: 0x0040_0008,
                key: 0x5EED,
            }],
        );
        assert_eq!(stats.tainted_stores, 1, "{:?}", report.findings);
        assert_eq!(report.with_id("FP901").count(), 1);
    }

    #[test]
    fn tainted_syscall_operand_and_branch_are_flagged() {
        let (report, stats) = run(
            "secret: nop\n nop\nmain: lui $t0, 0x40\n lw $a0, 0($t0)\n \
             beq $a0, $zero, done\ndone: li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
            vec![EncRegion {
                start: 0x0040_0000,
                end: 0x0040_0008,
                key: 0x5EED,
            }],
        );
        assert!(stats.tainted_syscalls >= 1, "{:?}", report.findings);
        assert!(stats.key_dependent >= 1, "{:?}", report.findings);
        assert!(report.with_id("FP902").count() >= 1);
        assert!(report.with_id("FP903").count() >= 1);
    }

    #[test]
    fn may_alias_region_read_is_a_warning_not_a_source() {
        // $a1 is unknown at entry: the load *may* hit the region, which
        // must surface as FP904 — but not taint anything (no FP901).
        let (report, stats) = run(
            "secret: nop\n nop\nmain: lw $t1, 0($a1)\n li $t2, 0x10010000\n \
             sw $t1, 0($t2)\n li $v0, 10\n syscall\n",
            vec![EncRegion {
                start: 0x0040_0000,
                end: 0x0040_0008,
                key: 0x5EED,
            }],
        );
        assert_eq!(stats.sources, 0);
        assert_eq!(stats.tainted_stores, 0, "{:?}", report.findings);
        assert_eq!(stats.unresolved_reads, 1);
        assert_eq!(report.with_id("FP904").count(), 1);
        assert_eq!(report.with_id("FP901").count(), 0);
    }
}
