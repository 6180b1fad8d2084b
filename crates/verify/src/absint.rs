//! Abstract interpretation over the ISA: constant propagation with a
//! value-set domain, and the symbolic checksum proofs built on it.
//!
//! The concrete guard checks of [`crate::Shipped::analyze`] recompute
//! each guard's window hash once, over the shipped bytes. This module
//! re-derives the same conclusion through a different theory: a small
//! abstract interpreter symbolically executes the program over the lattice
//!
//! ```text
//!            Top                (any word)
//!         /   |   \
//!   {a,b}  {a,c}  ...           (value sets, ≤ MAX_SET members)
//!         \   |   /
//!      Const(a) Const(b) ...    (single known word)
//!         \   |   /
//!            Bot                (no feasible value)
//! ```
//!
//! capping every set at [`MAX_SET`] members — the cap *is* the widening:
//! a join that would exceed it goes straight to `Top`, so chains are
//! bounded and the worklist solver in [`crate::dataflow`] terminates.
//! The per-instruction transfer over this domain (`scalar_eval`) mirrors
//! the simulator's semantics (wrapping arithmetic, division by zero
//! yielding zero, loads unknown); the program-wide register analysis that
//! runs it is [`crate::memdom`], which adds pointer provenance and a
//! tracked stack frame on top.
//!
//! [`prove_guards`] then replays each guard's checksum loop abstractly:
//! every window word is valued in the domain, an [`AbsHasher`] streams the
//! valuations through the *real* [`WindowHasher`] (one concrete hasher per
//! candidate valuation path), and the resulting digest value is compared
//! against the signature constant embedded in the guard's operand fields.
//! The verdict is a proof ([`Verdict::Proven`]), a refutation with a
//! concrete witness word ([`Verdict::Mismatch`]), or an honest
//! [`Verdict::Unproven`] with the reason precision ran out. The register
//! value-sets of [`crate::memdom`] guard the proof's one soundness
//! obligation: a store executing inside the hashed window whose abstract
//! address may land in the text segment would invalidate the static-text
//! assumption, so such windows are reported unproven rather than proven.

use flexprot_isa::{Image, Inst, Reg};
use flexprot_secmon::guard::{decode_guard_symbol, signature_from_symbols, WindowHasher};
use flexprot_secmon::SecMonConfig;

use crate::coverage::GuardWindow;
use crate::flow::Flow;

/// Maximum members of a value set before widening to `Top`.
pub const MAX_SET: usize = 8;

/// One element of the value-set lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// No feasible value (unreachable or empty join).
    Bot,
    /// Exactly one feasible value.
    Const(u32),
    /// Between 2 and [`MAX_SET`] feasible values, sorted and distinct.
    Set(Vec<u32>),
    /// Any value (precision exhausted).
    Top,
}

impl AbsVal {
    /// Builds the smallest lattice element containing every value yielded
    /// by `values`, widening to `Top` past [`MAX_SET`] distinct members.
    pub fn from_values<I: IntoIterator<Item = u32>>(values: I) -> AbsVal {
        let mut vs: Vec<u32> = values.into_iter().collect();
        vs.sort_unstable();
        vs.dedup();
        match vs.len() {
            0 => AbsVal::Bot,
            1 => AbsVal::Const(vs[0]),
            n if n <= MAX_SET => AbsVal::Set(vs),
            _ => AbsVal::Top,
        }
    }

    /// The concretisation as a slice, or `None` for `Top`.
    pub fn values(&self) -> Option<&[u32]> {
        match self {
            AbsVal::Bot => Some(&[]),
            AbsVal::Const(w) => Some(std::slice::from_ref(w)),
            AbsVal::Set(ws) => Some(ws),
            AbsVal::Top => None,
        }
    }

    /// Whether `w` is a feasible concretisation.
    pub fn admits(&self, w: u32) -> bool {
        self.values().is_none_or(|vs| vs.contains(&w))
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (self.values(), other.values()) {
            (Some(a), Some(b)) => AbsVal::from_values(a.iter().chain(b).copied()),
            _ => AbsVal::Top,
        }
    }

    /// Applies a unary concrete operation pointwise.
    pub fn map(&self, f: impl Fn(u32) -> u32) -> AbsVal {
        match self.values() {
            Some(vs) => AbsVal::from_values(vs.iter().map(|&v| f(v))),
            None => AbsVal::Top,
        }
    }

    /// Applies a binary concrete operation over the cartesian product of
    /// both concretisations (widening past the set cap as usual).
    pub fn map2(&self, other: &AbsVal, f: impl Fn(u32, u32) -> u32) -> AbsVal {
        match (self.values(), other.values()) {
            (Some(&[]), _) | (_, Some(&[])) => AbsVal::Bot,
            (Some(a), Some(b)) => {
                let mut out = Vec::with_capacity(a.len() * b.len());
                for &x in a {
                    for &y in b {
                        out.push(f(x, y));
                    }
                }
                AbsVal::from_values(out)
            }
            _ => AbsVal::Top,
        }
    }
}

/// The register (if any) `inst` writes, and its abstract value, mirroring
/// the simulator's concrete semantics over plain (pointer-blind) scalars.
/// `ops` holds the values of the registers `inst.uses()` names, in that
/// order. The memory-sensitive domain in [`crate::memdom`] layers pointer
/// provenance on top.
pub(crate) fn scalar_eval(addr: u32, inst: Inst, ops: &[AbsVal; 2]) -> Option<(Reg, AbsVal)> {
    use Inst::*;
    let [a, b] = ops;
    Some(match inst {
        Sll { rd, sh, .. } => (rd, a.map(|x| x << sh)),
        Srl { rd, sh, .. } => (rd, a.map(|x| x >> sh)),
        Sra { rd, sh, .. } => (rd, a.map(|x| ((x as i32) >> sh) as u32)),
        Sllv { rd, .. } => (rd, a.map2(b, |x, s| x << (s & 31))),
        Srlv { rd, .. } => (rd, a.map2(b, |x, s| x >> (s & 31))),
        Srav { rd, .. } => (rd, a.map2(b, |x, s| ((x as i32) >> (s & 31)) as u32)),
        Jalr { rd, .. } => (rd, AbsVal::Const(addr.wrapping_add(4))),
        Jal { .. } => (Reg::RA, AbsVal::Const(addr.wrapping_add(4))),
        Mul { rd, .. } => (rd, a.map2(b, u32::wrapping_mul)),
        Div { rd, .. } => (
            rd,
            a.map2(b, |a, b| signed_or_zero(a, b, i32::wrapping_div)),
        ),
        Rem { rd, .. } => (
            rd,
            a.map2(b, |a, b| signed_or_zero(a, b, i32::wrapping_rem)),
        ),
        Add { rd, .. } | Addu { rd, .. } => (rd, a.map2(b, u32::wrapping_add)),
        Sub { rd, .. } | Subu { rd, .. } => (rd, a.map2(b, u32::wrapping_sub)),
        And { rd, .. } => (rd, a.map2(b, |a, b| a & b)),
        Or { rd, .. } => (rd, a.map2(b, |a, b| a | b)),
        Xor { rd, .. } => (rd, a.map2(b, |a, b| a ^ b)),
        Nor { rd, .. } => (rd, a.map2(b, |a, b| !(a | b))),
        Slt { rd, .. } => (rd, a.map2(b, |a, b| u32::from((a as i32) < (b as i32)))),
        Sltu { rd, .. } => (rd, a.map2(b, |a, b| u32::from(a < b))),
        Addi { rt, imm, .. } => (rt, a.map(|x| x.wrapping_add(imm as i32 as u32))),
        Slti { rt, imm, .. } => (rt, a.map(|x| u32::from((x as i32) < i32::from(imm)))),
        Sltiu { rt, imm, .. } => (rt, a.map(|x| u32::from(x < (imm as i32 as u32)))),
        Andi { rt, imm, .. } => (rt, a.map(|x| x & u32::from(imm))),
        Ori { rt, imm, .. } => (rt, a.map(|x| x | u32::from(imm))),
        Xori { rt, imm, .. } => (rt, a.map(|x| x ^ u32::from(imm))),
        Lui { rt, imm } => (rt, AbsVal::Const(u32::from(imm) << 16)),
        Lb { rt, .. } | Lh { rt, .. } | Lw { rt, .. } | Lbu { rt, .. } | Lhu { rt, .. } => {
            (rt, AbsVal::Top)
        }
        Jr { .. } | Syscall | Break | J { .. } => return None,
        Sb { .. } | Sh { .. } | Sw { .. } => return None,
        Beq { .. } | Bne { .. } | Blez { .. } | Bgtz { .. } | Bltz { .. } | Bgez { .. } => {
            return None
        }
    })
}

/// `f` over the words as signed integers, or zero when `b` is zero (the
/// simulator's division by zero).
fn signed_or_zero(a: u32, b: u32, f: fn(i32, i32) -> i32) -> u32 {
    if b == 0 {
        0
    } else {
        f(a as i32, b as i32) as u32
    }
}

/// Abstract window hasher: one concrete [`WindowHasher`] per candidate
/// valuation path of the absorbed word stream.
///
/// Absorbing a value set forks every live path once per member; past
/// [`MAX_SET`] paths (or on absorbing `Top`) the digest widens to `Top`.
/// Because the underlying hasher is `Copy`, forking is just duplication —
/// the abstract transformer reuses the hardware contract verbatim instead
/// of re-stating the hash algebra.
#[derive(Debug, Clone)]
pub struct AbsHasher {
    /// Live candidate paths; `None` is `Top`.
    paths: Option<Vec<WindowHasher>>,
}

impl AbsHasher {
    /// A hasher in the start-of-window state.
    pub fn new(key: u64) -> AbsHasher {
        AbsHasher {
            paths: Some(vec![WindowHasher::new(key)]),
        }
    }

    /// Absorbs one abstract word at `addr`.
    pub fn absorb(&mut self, addr: u32, word: &AbsVal) {
        let Some(paths) = &mut self.paths else { return };
        match word.values() {
            None => self.paths = None,
            Some(ws) => {
                let mut forked = Vec::with_capacity(paths.len() * ws.len().max(1));
                for p in paths.iter() {
                    for &w in ws {
                        let mut q = *p;
                        q.absorb(addr, w);
                        forked.push(q);
                    }
                }
                if forked.len() > MAX_SET {
                    self.paths = None;
                } else {
                    *paths = forked;
                }
            }
        }
    }

    /// The abstract digest of everything absorbed.
    pub fn digest(&self) -> AbsVal {
        match &self.paths {
            None => AbsVal::Top,
            Some(paths) => AbsVal::from_values(paths.iter().map(WindowHasher::digest)),
        }
    }
}

/// Why a checksum proof could not conclude, as a stable typed code.
///
/// Baselines and CSV sweeps key on [`UnprovenReason::code`] (snake_case,
/// stable across releases); the `Display` impl carries the human prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnprovenReason {
    /// The window failed structural verification upstream.
    NotStructural,
    /// The window extends past the end of the text segment.
    OutOfBounds,
    /// An in-window store may overlap the hashed interval.
    StoreMayAliasWindow {
        /// Address of the store instruction.
        store_addr: u32,
    },
    /// An in-window store provably rewrites the hashed interval, so the
    /// static valuation cannot be ordered against the hash.
    StoreClobbersWindow {
        /// Address of the store instruction.
        store_addr: u32,
        /// A concrete target address inside the window.
        target_addr: u32,
    },
    /// No feasible valuation reaches the window (dead code).
    NoFeasibleValuation,
    /// The valuation forked past the value-set budget ([`MAX_SET`]).
    ValuationBudget,
    /// Several feasible digests exist and one matches the signature.
    AmbiguousDigest,
}

impl UnprovenReason {
    /// The stable snake_case code baselines diff on.
    pub fn code(&self) -> &'static str {
        match self {
            UnprovenReason::NotStructural => "not_structural",
            UnprovenReason::OutOfBounds => "window_out_of_bounds",
            UnprovenReason::StoreMayAliasWindow { .. } => "store_may_alias_window",
            UnprovenReason::StoreClobbersWindow { .. } => "store_clobbers_window",
            UnprovenReason::NoFeasibleValuation => "no_feasible_valuation",
            UnprovenReason::ValuationBudget => "valuation_budget_exceeded",
            UnprovenReason::AmbiguousDigest => "ambiguous_digest",
        }
    }
}

impl std::fmt::Display for UnprovenReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnprovenReason::NotStructural => write!(f, "window failed structural verification"),
            UnprovenReason::OutOfBounds => write!(f, "window extends past the end of text"),
            UnprovenReason::StoreMayAliasWindow { store_addr } => {
                write!(
                    f,
                    "store at {store_addr:#010x} may target the hashed window"
                )
            }
            UnprovenReason::StoreClobbersWindow {
                store_addr,
                target_addr,
            } => write!(
                f,
                "store at {store_addr:#010x} provably rewrites the hashed window \
                 at {target_addr:#010x}"
            ),
            UnprovenReason::NoFeasibleValuation => write!(f, "window has no feasible valuation"),
            UnprovenReason::ValuationBudget => {
                write!(
                    f,
                    "window valuation exceeds the value-set budget ({MAX_SET})"
                )
            }
            UnprovenReason::AmbiguousDigest => {
                write!(f, "digest is ambiguous over the value set")
            }
        }
    }
}

/// The outcome of one guard's checksum proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The embedded signature provably equals the window digest.
    Proven {
        /// The (unique) digest value.
        digest: u32,
    },
    /// No feasible valuation matches the embedded signature.
    Mismatch {
        /// Signature spelled by the guard operand fields.
        claimed: u32,
        /// A feasible digest it disagrees with.
        computed: u32,
        /// Address of a symbol word whose operand byte disagrees with the
        /// computed digest — the concrete witness.
        witness_addr: u32,
    },
    /// The proof ran out of precision or preconditions; not an error.
    Unproven {
        /// Why the proof could not conclude.
        reason: UnprovenReason,
    },
}

/// One guard site's proof outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardProof {
    /// Address of the first guard symbol word.
    pub site_addr: u32,
    /// Proof outcome.
    pub verdict: Verdict,
}

/// Symbolically executes each guard's checksum and judges its embedded
/// signature constant. `mem` is the result of
/// [`crate::memdom::analyze_memory`]; `windows` the structural windows
/// from the guard check.
pub fn prove_guards(
    image: &Image,
    config: &SecMonConfig,
    text: &[u32],
    flow: &Flow,
    mem: &crate::memdom::MemFacts,
    windows: &[GuardWindow],
) -> Vec<GuardProof> {
    windows
        .iter()
        .map(|w| {
            let verdict = prove_window(image, config, text, flow, mem, w);
            GuardProof {
                site_addr: w.site_addr,
                verdict,
            }
        })
        .collect()
}

fn prove_window(
    image: &Image,
    config: &SecMonConfig,
    text: &[u32],
    flow: &Flow,
    mem: &crate::memdom::MemFacts,
    w: &GuardWindow,
) -> Verdict {
    if !w.structural {
        return Verdict::Unproven {
            reason: UnprovenReason::NotStructural,
        };
    }
    if w.end() > text.len() {
        return Verdict::Unproven {
            reason: UnprovenReason::OutOfBounds,
        };
    }
    // Soundness obligation: the proof values window words from the static
    // text, so a reachable in-window store that may rewrite *this hashed
    // interval* would invalidate it. The memory-sensitive points-to
    // partition (see `crate::alias`) decides the overlap; a store that
    // provably lands elsewhere — the stack frame, the data segment, even
    // other text — cannot change what this window hashes and signs.
    let aliasing = crate::alias::partition_window(image, flow, mem, w);
    if let Some(&(b, target_addr)) = aliasing.must_alias.first() {
        return Verdict::Unproven {
            reason: UnprovenReason::StoreClobbersWindow {
                store_addr: image.addr_of_index(b),
                target_addr,
            },
        };
    }
    if let Some(&b) = aliasing.may_alias.first() {
        return Verdict::Unproven {
            reason: UnprovenReason::StoreMayAliasWindow {
                store_addr: image.addr_of_index(b),
            },
        };
    }

    // Abstract replay of the hardware's checksum loop: body words, then
    // the signed tail after the symbols, each valued from the static text.
    let mut hasher = AbsHasher::new(config.guard_key);
    let word_val = |i: usize| AbsVal::Const(text[i]);
    for b in w.start..w.site {
        hasher.absorb(image.addr_of_index(b), &word_val(b));
    }
    for t in 0..w.tail {
        let i = w.site + w.symbols + t;
        hasher.absorb(image.addr_of_index(i), &word_val(i));
    }
    let symbols: Vec<u8> = (0..w.symbols)
        .map(|k| decode_guard_symbol(text[w.site + k]))
        .collect();
    let claimed = signature_from_symbols(&symbols);

    match hasher.digest() {
        AbsVal::Bot => Verdict::Unproven {
            reason: UnprovenReason::NoFeasibleValuation,
        },
        AbsVal::Top => Verdict::Unproven {
            reason: UnprovenReason::ValuationBudget,
        },
        AbsVal::Const(computed) if computed == claimed => Verdict::Proven { digest: computed },
        AbsVal::Const(computed) => Verdict::Mismatch {
            claimed,
            computed,
            witness_addr: witness(w, &symbols, computed),
        },
        AbsVal::Set(ds) => {
            if ds.contains(&claimed) {
                Verdict::Unproven {
                    reason: UnprovenReason::AmbiguousDigest,
                }
            } else {
                let computed = ds[0];
                Verdict::Mismatch {
                    claimed,
                    computed,
                    witness_addr: witness(w, &symbols, computed),
                }
            }
        }
    }
}

/// The first symbol word whose decoded operand byte disagrees with the
/// computed digest — the concrete word an auditor should look at.
fn witness(w: &GuardWindow, symbols: &[u8], computed: u32) -> u32 {
    let expect = computed.to_le_bytes();
    for (k, &sym) in symbols.iter().enumerate().take(4) {
        if sym != expect[k] {
            return w.site_addr + 4 * k as u32;
        }
    }
    w.site_addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_secmon::guard::{encode_guard_inst, signature_symbols, SIG_SYMBOLS};

    fn consts(vals: &[u32]) -> AbsVal {
        AbsVal::from_values(vals.iter().copied())
    }

    #[test]
    fn lattice_normalisation_and_join() {
        assert_eq!(consts(&[]), AbsVal::Bot);
        assert_eq!(consts(&[7]), AbsVal::Const(7));
        assert_eq!(consts(&[3, 1, 3]), AbsVal::Set(vec![1, 3]));
        let nine: Vec<u32> = (0..=MAX_SET as u32).collect();
        assert_eq!(consts(&nine), AbsVal::Top);
        assert_eq!(AbsVal::Const(1).join(&AbsVal::Const(1)), AbsVal::Const(1));
        assert_eq!(
            AbsVal::Const(1).join(&AbsVal::Const(2)),
            AbsVal::Set(vec![1, 2])
        );
        assert_eq!(AbsVal::Bot.join(&AbsVal::Const(9)), AbsVal::Const(9));
        assert_eq!(AbsVal::Top.join(&AbsVal::Const(9)), AbsVal::Top);
        assert!(AbsVal::Top.admits(42));
        assert!(consts(&[1, 2]).admits(2));
        assert!(!consts(&[1, 2]).admits(3));
    }

    #[test]
    fn map2_takes_the_cartesian_product_and_widens() {
        let a = consts(&[1, 2]);
        let b = consts(&[10, 20]);
        assert_eq!(
            a.map2(&b, u32::wrapping_add),
            AbsVal::Set(vec![11, 12, 21, 22])
        );
        assert_eq!(AbsVal::Bot.map2(&b, u32::wrapping_add), AbsVal::Bot);
        assert_eq!(a.map2(&AbsVal::Top, u32::wrapping_add), AbsVal::Top);
        // 3 × 3 distinct sums exceed the cap.
        let wide = consts(&[0, 100, 200]).map2(&consts(&[1, 2, 3]), u32::wrapping_add);
        assert_eq!(wide, AbsVal::Top);
    }

    /// The memory domain's abstract register files entering each word.
    fn register_states(image: &Image) -> Vec<Option<Vec<AbsVal>>> {
        let flow = Flow::recover(image, &image.text.clone());
        let mem = crate::memdom::analyze_memory(image, &flow);
        (0..image.text.len())
            .map(|i| {
                mem.at(i)
                    .map(|state| state.regs.into_iter().map(|r| r.off).collect())
            })
            .collect()
    }

    #[test]
    fn straight_line_constants_propagate() {
        let image = flexprot_asm::assemble_or_panic(
            "main: li $t0, 5\n addi $t1, $t0, 3\n li $v0, 10\n syscall\n",
        );
        let regs = register_states(&image);
        // State entering the syscall: $t0 = 5, $t1 = 8, $zero = 0.
        let at_syscall = regs.last().unwrap().as_ref().expect("reachable");
        assert_eq!(at_syscall[Reg::T0.index() as usize], AbsVal::Const(5));
        assert_eq!(at_syscall[Reg::T1.index() as usize], AbsVal::Const(8));
        assert_eq!(at_syscall[Reg::ZERO.index() as usize], AbsVal::Const(0));
    }

    #[test]
    fn join_over_branches_builds_value_sets() {
        // Strip the branch-target symbols first: every label is exported
        // as a symbol, and symbols are analysis roots with a Top state.
        let mut image = flexprot_asm::assemble_or_panic(
            "main: beq $a0, $zero, other\n li $t0, 1\n j done\n\
             other: li $t0, 2\n done: li $v0, 10\n syscall\n",
        );
        image.symbols.retain(|name, _| name.as_str() == "main");
        let regs = register_states(&image);
        let at_done = regs[regs.len() - 2].as_ref().expect("reachable");
        assert_eq!(
            at_done[Reg::T0.index() as usize],
            AbsVal::Set(vec![1, 2]),
            "both arms' constants survive the join"
        );
    }

    #[test]
    fn unreachable_words_have_no_state() {
        // The word after the backward jump is unreachable once its label
        // stops being a root symbol.
        let image = flexprot_asm::assemble_or_panic(
            "main: li $v0, 10\n syscall\n j main\n dead: li $t0, 1\n",
        );
        let regs = register_states(&image);
        let mut stripped = image.clone();
        stripped.symbols.retain(|name, _| name.as_str() == "main");
        let regs2 = register_states(&stripped);
        assert!(regs[3].is_some(), "symbol-seeded word has a state");
        assert!(regs2[3].is_none(), "unreachable word has none");
    }

    #[test]
    fn abs_hasher_const_stream_matches_concrete_hash() {
        let words = [0x1234_5678u32, 0x9ABC_DEF0, 0x0BAD_F00D];
        let mut h = AbsHasher::new(0x55AA);
        for (i, &w) in words.iter().enumerate() {
            h.absorb(0x0040_0000 + 4 * i as u32, &AbsVal::Const(w));
        }
        let concrete = WindowHasher::hash_window(0x55AA, 0x0040_0000, &words);
        assert_eq!(h.digest(), AbsVal::Const(concrete));
    }

    #[test]
    fn abs_hasher_set_stream_contains_every_concretisation() {
        let mut h = AbsHasher::new(7);
        h.absorb(0x0040_0000, &AbsVal::Const(1));
        h.absorb(0x0040_0004, &consts(&[2, 3]));
        let digest = h.digest();
        for second in [2u32, 3] {
            let concrete = WindowHasher::hash_window(7, 0x0040_0000, &[1, second]);
            assert!(digest.admits(concrete), "missing path for {second}");
        }
        // Top in, Top out.
        h.absorb(0x0040_0008, &AbsVal::Top);
        assert_eq!(h.digest(), AbsVal::Top);
    }

    #[test]
    fn abs_hasher_widens_past_the_path_budget() {
        let mut h = AbsHasher::new(7);
        let set = consts(&[1, 2, 3]);
        h.absorb(0x0040_0000, &set);
        h.absorb(0x0040_0004, &set);
        assert_eq!(h.digest(), AbsVal::Top, "9 paths exceed MAX_SET");
    }

    /// Hand-builds an image with one signed guard window and the matching
    /// monitor configuration.
    fn synthetic_guarded() -> (Image, SecMonConfig) {
        let mut image = flexprot_asm::assemble_or_panic(
            "main: li $t0, 5\n li $t1, 6\n nop\n nop\n nop\n nop\n li $v0, 10\n syscall\n",
        );
        let key = 0x1EE7;
        let base = image.text_base;
        // Window body: words 0..2; guard symbols at words 2..6.
        let mut h = WindowHasher::new(key);
        h.absorb(base, image.text[0]);
        h.absorb(base + 4, image.text[1]);
        let sig = h.digest();
        for (k, sym) in signature_symbols(sig).iter().enumerate() {
            image.text[2 + k] = encode_guard_inst(*sym, k as u8).encode();
        }
        let mut config = SecMonConfig::transparent();
        config.guard_key = key;
        config.window_starts.insert(base);
        config.sites.insert(base + 8, Default::default());
        (image, config)
    }

    fn windows_of(
        image: &Image,
        _config: &SecMonConfig,
    ) -> (Flow, crate::memdom::MemFacts, Vec<GuardWindow>) {
        let text = image.text.clone();
        let flow = Flow::recover(image, &text);
        let mem = crate::memdom::analyze_memory(image, &flow);
        let windows = vec![GuardWindow {
            site_addr: image.text_base + 8,
            start: 0,
            site: 2,
            symbols: SIG_SYMBOLS as usize,
            tail: 0,
            structural: true,
            sound: true,
        }];
        (flow, mem, windows)
    }

    #[test]
    fn intact_guard_is_proven() {
        let (image, config) = synthetic_guarded();
        let (flow, mem, windows) = windows_of(&image, &config);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        assert_eq!(proofs.len(), 1);
        assert!(
            matches!(proofs[0].verdict, Verdict::Proven { .. }),
            "{:?}",
            proofs[0]
        );
    }

    #[test]
    fn corrupted_signature_yields_mismatch_with_witness() {
        let (mut image, config) = synthetic_guarded();
        // Re-encode symbol word 1 with a different symbol: still guard
        // form, but the spelled signature changes.
        let old = decode_guard_symbol(image.text[3]);
        image.text[3] = encode_guard_inst(old ^ 0x01, 1).encode();
        let (flow, mem, windows) = windows_of(&image, &config);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        match &proofs[0].verdict {
            Verdict::Mismatch {
                claimed,
                computed,
                witness_addr,
            } => {
                assert_ne!(claimed, computed);
                assert_eq!(*witness_addr, image.text_base + 12, "symbol word 1");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_body_yields_mismatch() {
        let (mut image, config) = synthetic_guarded();
        image.text[1] ^= 1 << 3;
        let (flow, mem, windows) = windows_of(&image, &config);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        assert!(
            matches!(proofs[0].verdict, Verdict::Mismatch { .. }),
            "{:?}",
            proofs[0]
        );
    }

    #[test]
    fn non_structural_window_is_unproven_not_an_error() {
        let (image, config) = synthetic_guarded();
        let (flow, mem, mut windows) = windows_of(&image, &config);
        windows[0].structural = false;
        windows[0].sound = false;
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        assert!(
            matches!(proofs[0].verdict, Verdict::Unproven { .. }),
            "{:?}",
            proofs[0]
        );
    }

    #[test]
    fn store_that_may_hit_text_blocks_the_proof() {
        // A store with an unknown base register address inside the hashed
        // window: the static-text assumption is not provable.
        let mut image = flexprot_asm::assemble_or_panic(
            "main: lw $t2, 0($a0)\n sw $t0, 0($t2)\n nop\n nop\n nop\n nop\n li $v0, 10\n syscall\n",
        );
        let key = 0x1EE7;
        let base = image.text_base;
        let mut h = WindowHasher::new(key);
        h.absorb(base, image.text[0]);
        h.absorb(base + 4, image.text[1]);
        let sig = h.digest();
        for (k, sym) in signature_symbols(sig).iter().enumerate() {
            image.text[2 + k] = encode_guard_inst(*sym, k as u8).encode();
        }
        let mut config = SecMonConfig::transparent();
        config.guard_key = key;
        config.window_starts.insert(base);
        config.sites.insert(base + 8, Default::default());
        let (flow, mem, windows) = windows_of(&image, &config);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        match &proofs[0].verdict {
            Verdict::Unproven { reason } => {
                assert!(
                    matches!(reason, UnprovenReason::StoreMayAliasWindow { .. }),
                    "{reason}"
                );
            }
            other => panic!("expected unproven, got {other:?}"),
        }
    }

    #[test]
    fn store_with_provably_safe_address_does_not_block() {
        // The store base is a known constant pointing into data space.
        let mut image = flexprot_asm::assemble_or_panic(
            "main: li $t2, 0x10000000\n sw $zero, 0($t2)\n nop\n nop\n nop\n nop\n \
             li $v0, 10\n syscall\n",
        );
        let key = 0x1EE7;
        let base = image.text_base;
        let body_len = image.text.len() - 6;
        let mut h = WindowHasher::new(key);
        for i in 0..body_len {
            h.absorb(base + 4 * i as u32, image.text[i]);
        }
        let sig = h.digest();
        for (k, sym) in signature_symbols(sig).iter().enumerate() {
            image.text[body_len + k] = encode_guard_inst(*sym, k as u8).encode();
        }
        let site_addr = base + 4 * body_len as u32;
        let mut config = SecMonConfig::transparent();
        config.guard_key = key;
        config.window_starts.insert(base);
        config.sites.insert(site_addr, Default::default());
        let text = image.text.clone();
        let flow = Flow::recover(&image, &text);
        let mem = crate::memdom::analyze_memory(&image, &flow);
        let windows = vec![GuardWindow {
            site_addr,
            start: 0,
            site: body_len,
            symbols: SIG_SYMBOLS as usize,
            tail: 0,
            structural: true,
            sound: true,
        }];
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        assert!(
            matches!(proofs[0].verdict, Verdict::Proven { .. }),
            "{:?}",
            proofs[0]
        );
    }

    /// Signs a window over the first `body_len` words of `image` and
    /// returns everything `prove_guards` needs for it.
    fn sign_prefix_window(
        image: &mut Image,
        key: u64,
        body_len: usize,
    ) -> (
        SecMonConfig,
        Flow,
        crate::memdom::MemFacts,
        Vec<GuardWindow>,
    ) {
        let base = image.text_base;
        let mut h = WindowHasher::new(key);
        for i in 0..body_len {
            h.absorb(base + 4 * i as u32, image.text[i]);
        }
        let sig = h.digest();
        for (k, sym) in signature_symbols(sig).iter().enumerate() {
            image.text[body_len + k] = encode_guard_inst(*sym, k as u8).encode();
        }
        let site_addr = base + 4 * body_len as u32;
        let mut config = SecMonConfig::transparent();
        config.guard_key = key;
        config.window_starts.insert(base);
        config.sites.insert(site_addr, Default::default());
        let text = image.text.clone();
        let flow = Flow::recover(image, &text);
        let mem = crate::memdom::analyze_memory(image, &flow);
        let windows = vec![GuardWindow {
            site_addr,
            start: 0,
            site: body_len,
            symbols: SIG_SYMBOLS as usize,
            tail: 0,
            structural: true,
            sound: true,
        }];
        (config, flow, mem, windows)
    }

    #[test]
    fn stack_relative_store_in_window_is_discharged() {
        // The historical refusal driver: a frame spill inside the hashed
        // window. Region separation proves it disjoint from the window.
        let mut image = flexprot_asm::assemble_or_panic(
            "main: addi $sp, $sp, -16\n sw $t0, 8($sp)\n nop\n nop\n nop\n nop\n \
             li $v0, 10\n syscall\n",
        );
        let body_len = image.text.len() - 6;
        let (config, flow, mem, windows) = sign_prefix_window(&mut image, 0x1EE7, body_len);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        assert!(
            matches!(proofs[0].verdict, Verdict::Proven { .. }),
            "sp-relative store must not block the proof: {:?}",
            proofs[0]
        );
    }

    #[test]
    fn store_that_provably_rewrites_the_window_refuses_with_clobber() {
        // `la main` is the window's own first word: a must-alias rewrite.
        let mut image = flexprot_asm::assemble_or_panic(
            "main: la $t2, main\n sw $zero, 0($t2)\n nop\n nop\n nop\n nop\n \
             li $v0, 10\n syscall\n",
        );
        let body_len = image.text.len() - 6;
        let (config, flow, mem, windows) = sign_prefix_window(&mut image, 0x1EE7, body_len);
        let proofs = prove_guards(&image, &config, &image.text, &flow, &mem, &windows);
        match &proofs[0].verdict {
            Verdict::Unproven {
                reason:
                    UnprovenReason::StoreClobbersWindow {
                        store_addr,
                        target_addr,
                    },
            } => {
                assert_eq!(*target_addr, image.text_base, "rewrites word 0");
                assert!(*store_addr > image.text_base);
            }
            other => panic!("expected a clobber refusal, got {other:?}"),
        }
    }
}
