//! Value-set points-to classification: partitioning stores against a
//! byte interval (a checksum window, the text segment, a cipher region).
//!
//! [`crate::memdom`] gives every store target a provenance-carrying
//! abstract address; this module turns that address into a three-way
//! verdict against a concrete byte interval:
//!
//! * [`StoreClass::NoAlias`] — **no** concretisation of the target writes
//!   a byte of the interval. Stack-based targets are `NoAlias` with any
//!   interval below the stack region (memory-model assumption A1).
//! * [`StoreClass::MustAlias`] — **every** concretisation writes at least
//!   one byte of the interval, with a concrete witness address.
//! * [`StoreClass::MayAlias`] — the analysis cannot separate the two.
//!
//! The checksum prover ([`crate::absint`]) and the transparency prover
//! ([`crate::equiv`]) consume the partition to discharge their store
//! obligations: a `NoAlias` store inside a hashed window is harmless to
//! *that* window's proof, a `MustAlias` store is an honest refusal (the
//! static proof cannot order the rewrite against the hash), and only
//! `MayAlias` remains a precision refusal. `verify/tests/alias_props.rs`
//! checks the partition against brute-force store-target enumeration on
//! random MiniC programs.

use flexprot_isa::{Image, Inst, Reg};

use crate::coverage::GuardWindow;
use crate::memdom::{Base, MemState, MemVal, STACK_REGION_MAX, STACK_REGION_MIN};

/// The three-way points-to verdict for one store against one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreClass {
    /// No concretisation of the target touches the interval.
    NoAlias,
    /// Every concretisation touches the interval.
    MustAlias {
        /// A concrete target address inside the interval.
        addr: u32,
    },
    /// The partition is undecided; treat as a potential hit.
    MayAlias,
}

/// A store instruction with its resolved abstract target.
#[derive(Debug, Clone)]
pub struct StoreSite {
    /// Text-word index of the store.
    pub index: usize,
    /// Abstract target address (provenance-carrying).
    pub target: MemVal,
    /// Bytes written (1, 2 or 4).
    pub size: u32,
    /// Register whose value is stored.
    pub value: Reg,
}

/// Resolves `inst` (at text word `index`) as a store under `state`, or
/// `None` for non-store instructions.
pub fn store_site(index: usize, inst: Inst, state: &MemState) -> Option<StoreSite> {
    let (rt, off, base, size) = match inst {
        Inst::Sb { rt, off, base } => (rt, off, base, 1),
        Inst::Sh { rt, off, base } => (rt, off, base, 2),
        Inst::Sw { rt, off, base } => (rt, off, base, 4),
        _ => return None,
    };
    Some(StoreSite {
        index,
        target: state.effective_addr(base, off),
        size,
        value: rt,
    })
}

/// Whether one concrete store `[a, a+size)` writes a byte of `[lo, hi)`.
fn hits(a: u32, size: u32, lo: u32, hi: u32) -> bool {
    a.wrapping_add(size) > lo && a < hi
}

/// Classifies a store of `size` bytes at abstract address `target`
/// against the byte interval `[lo, hi)`.
pub fn classify(target: &MemVal, size: u32, lo: u32, hi: u32) -> StoreClass {
    match target.base {
        // A1: stack-based targets stay inside the stack region, so they
        // cannot alias an interval that lies entirely outside it.
        Base::Stack => {
            if hi <= STACK_REGION_MIN || lo >= STACK_REGION_MAX {
                StoreClass::NoAlias
            } else {
                StoreClass::MayAlias
            }
        }
        Base::Abs => match target.off.values() {
            None => StoreClass::MayAlias,
            Some(&[]) => StoreClass::NoAlias,
            Some(vs) => {
                let hit = vs.iter().filter(|&&a| hits(a, size, lo, hi)).count();
                if hit == 0 {
                    StoreClass::NoAlias
                } else if hit == vs.len() {
                    StoreClass::MustAlias {
                        addr: *vs.iter().find(|&&a| hits(a, size, lo, hi)).unwrap(),
                    }
                } else {
                    StoreClass::MayAlias
                }
            }
        },
    }
}

/// The byte interval `[lo, hi)` a guard window hashes and signs — body,
/// symbol and tail words alike (a rewrite of *any* of them changes what
/// the hardware will fetch and judge).
pub fn window_interval(image: &Image, w: &GuardWindow) -> (u32, u32) {
    (image.addr_of_index(w.start), image.addr_of_index(w.end()))
}

/// The partition of one window's in-window stores against its own
/// hashed interval.
#[derive(Debug, Clone, Default)]
pub struct WindowAliasing {
    /// Store word-indices provably disjoint from the window.
    pub no_alias: Vec<usize>,
    /// Stores provably rewriting the window, with witness addresses.
    pub must_alias: Vec<(usize, u32)>,
    /// Stores the partition could not decide.
    pub may_alias: Vec<usize>,
}

/// Partitions every reachable store inside `w` against `w`'s hashed
/// interval. Unreachable stores (no entering state) never execute and are
/// ignored, matching the prover's obligation.
pub fn partition_window(
    image: &Image,
    flow: &crate::flow::Flow,
    mem: &[crate::memdom::MemFact],
    w: &GuardWindow,
) -> WindowAliasing {
    let (lo, hi) = window_interval(image, w);
    let mut out = WindowAliasing::default();
    for b in w.start..w.end().min(flow.decoded.len()) {
        let Some(inst) = flow.decoded[b] else {
            continue;
        };
        let Some(state) = mem.get(b).and_then(|s| s.as_ref()) else {
            continue;
        };
        let Some(site) = store_site(b, inst, state) else {
            continue;
        };
        match classify(&site.target, site.size, lo, hi) {
            StoreClass::NoAlias => out.no_alias.push(b),
            StoreClass::MustAlias { addr } => out.must_alias.push((b, addr)),
            StoreClass::MayAlias => out.may_alias.push(b),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::AbsVal;

    #[test]
    fn scalar_targets_partition_exactly() {
        let lo = 0x0040_0000;
        let hi = 0x0040_0010;
        let inside = MemVal::abs(AbsVal::Const(0x0040_0008));
        let outside = MemVal::abs(AbsVal::Const(0x0040_0010));
        let straddle = MemVal::abs(AbsVal::Const(0x0040_000E));
        let before = MemVal::abs(AbsVal::Const(0x003F_FFFC));
        assert_eq!(
            classify(&inside, 4, lo, hi),
            StoreClass::MustAlias { addr: 0x0040_0008 }
        );
        assert_eq!(classify(&outside, 4, lo, hi), StoreClass::NoAlias);
        // A halfword at hi−2 still writes the last byte of the interval.
        assert_eq!(
            classify(&straddle, 4, lo, hi),
            StoreClass::MustAlias { addr: 0x0040_000E }
        );
        // A 4-byte store ending exactly at lo misses; one byte later hits.
        assert_eq!(classify(&before, 4, lo, hi), StoreClass::NoAlias);
        assert_eq!(
            classify(&MemVal::abs(AbsVal::Const(0x003F_FFFD)), 4, lo, hi),
            StoreClass::MustAlias { addr: 0x003F_FFFD }
        );
    }

    #[test]
    fn value_sets_split_into_may_alias() {
        let lo = 0x0040_0000;
        let hi = 0x0040_0010;
        let split = MemVal::abs(AbsVal::from_values([0x0040_0000u32, 0x1001_0000]));
        let all_in = MemVal::abs(AbsVal::from_values([0x0040_0000u32, 0x0040_0004]));
        let all_out = MemVal::abs(AbsVal::from_values([0x1001_0000u32, 0x1001_0004]));
        assert_eq!(classify(&split, 4, lo, hi), StoreClass::MayAlias);
        assert!(matches!(
            classify(&all_in, 4, lo, hi),
            StoreClass::MustAlias { .. }
        ));
        assert_eq!(classify(&all_out, 4, lo, hi), StoreClass::NoAlias);
        assert_eq!(
            classify(&MemVal::abs(AbsVal::Top), 4, lo, hi),
            StoreClass::MayAlias
        );
    }

    #[test]
    fn stack_targets_never_alias_text_intervals() {
        let sp_rel = MemVal::stack(AbsVal::Top);
        assert_eq!(
            classify(&sp_rel, 4, 0x0040_0000, 0x0040_1000),
            StoreClass::NoAlias
        );
        // …but remain undecided against the stack region itself.
        assert_eq!(
            classify(&sp_rel, 4, STACK_REGION_MIN, STACK_REGION_MAX),
            StoreClass::MayAlias
        );
    }
}
