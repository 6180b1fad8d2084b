//! Decoded-line store: the decode layer of the fetch/decode/execute split.
//!
//! The store shadows the I-cache way-for-way (indexed by [`Access::slot`]):
//! when the I-cache fills a line, the same slot here is filled with the
//! post-transform (plaintext) words and their decoded [`Inst`] values, so
//! the hot path fetches a ready-to-execute instruction with one bounds
//! check instead of re-reading sparse memory, re-applying the monitor
//! transform and re-running `Inst::decode` on every committed instruction.
//!
//! Invalidation rules (see DESIGN.md "fetch-path architecture v2"):
//!
//! * **eviction** — a fill overwrites the victim way's slot, so evicted
//!   lines vanish implicitly;
//! * **reset** — [`DecodeCache::clear`] drops everything, keeping a reset
//!   machine byte-identical to a fresh one;
//! * **rearm** — decoded lines are *retained* and revalidated against the
//!   raw memory contents at the next fill, so re-running a mutated image
//!   re-decodes only the mutated lines; a monitor with a different fetch
//!   transform clears them instead;
//! * **tamper response** — the machine clears the store when a run ends in
//!   tamper detection, so re-keyed monitors never see stale plaintext;
//! * **store to text** — [`DecodeCache::invalidate`] drops the line a
//!   store landed in, preserving self-modifying-code semantics (the
//!   reference engine re-reads memory on every fetch).
//!
//! The store is purely functional: it touches no counters and charges no
//! cycles, which is what keeps [`crate::Stats`] bit-identical between the
//! reference and predecoded engines.
//!
//! [`Access::slot`]: crate::cache::Access::slot

use flexprot_isa::Inst;

use crate::mem::Memory;
use crate::monitor::FetchMonitor;

/// One decoded I-cache line.
#[derive(Debug, Clone)]
struct DecodedLine {
    /// Base address of the line.
    line_addr: u32,
    /// Raw words as read from memory at fill time — the revalidation key.
    raw: Box<[u32]>,
    /// Post-transform (plaintext) words, for `observe_commit` and fault
    /// reporting.
    plain: Box<[u32]>,
    /// Decoded instructions; `None` marks a word that does not decode
    /// (faults only if actually fetched, like the reference engine).
    insts: Box<[Option<Inst>]>,
}

/// Decoded-instruction store parallel to the I-cache.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    /// One entry per I-cache way, indexed by global slot (`set * ways + way`).
    lines: Vec<Option<DecodedLine>>,
    /// I-cache line size, for mapping store addresses to line bases.
    line_bytes: u32,
    /// Fill-path scratch buffer (avoids a per-fill allocation on the
    /// revalidation fast path).
    scratch: Vec<u32>,
}

impl DecodeCache {
    /// Creates an empty store shadowing `sets * ways` cache slots.
    pub(crate) fn new(sets: u32, ways: u32, line_bytes: u32) -> DecodeCache {
        DecodeCache {
            lines: (0..sets * ways).map(|_| None).collect(),
            line_bytes,
            scratch: Vec::new(),
        }
    }

    /// Fills `slot` with the decoded contents of the line at `line_addr`.
    ///
    /// If the slot already holds that line and the raw memory contents are
    /// unchanged, the existing decode is revalidated and kept — this is the
    /// rearm fast path: only lines whose bytes actually changed pay the
    /// transform + decode again.
    pub(crate) fn fill<M: FetchMonitor>(
        &mut self,
        slot: usize,
        line_addr: u32,
        line_words: u32,
        mem: &Memory,
        monitor: &mut M,
    ) {
        self.scratch.clear();
        self.scratch
            .extend((0..line_words).map(|i| mem.read_u32(line_addr + 4 * i)));
        let revalidated = matches!(
            &self.lines[slot],
            Some(line) if line.line_addr == line_addr && line.raw[..] == self.scratch[..]
        );
        if revalidated {
            return;
        }
        let raw: Box<[u32]> = self.scratch.as_slice().into();
        let mut plain = raw.clone();
        monitor.transform_fill(line_addr, &mut plain);
        let insts = plain.iter().map(|&w| Inst::decode(w).ok()).collect();
        self.lines[slot] = Some(DecodedLine {
            line_addr,
            raw,
            plain,
            insts,
        });
    }

    /// Looks up the decoded instruction and plaintext word for `pc`.
    ///
    /// Returns `None` when the slot is empty or holds a different line
    /// (e.g. after a store-to-text invalidation while the I-cache still
    /// hits) — the caller then refills functionally, charging nothing.
    pub(crate) fn lookup(&self, slot: usize, pc: u32) -> Option<(Option<Inst>, u32)> {
        let line = self.lines[slot].as_ref()?;
        let offset = pc.wrapping_sub(line.line_addr);
        let index = (offset / 4) as usize;
        if offset % 4 != 0 || index >= line.plain.len() {
            return None;
        }
        Some((line.insts[index], line.plain[index]))
    }

    /// Drops the decoded line containing `addr`, wherever it resides.
    ///
    /// Called on stores into the text segment; rare, so a full scan is
    /// fine.
    pub(crate) fn invalidate(&mut self, addr: u32) {
        let line_addr = addr & !(self.line_bytes - 1);
        for entry in &mut self.lines {
            if matches!(entry, Some(line) if line.line_addr == line_addr) {
                *entry = None;
            }
        }
    }

    /// Drops every decoded line (machine reset, tamper response).
    pub(crate) fn clear(&mut self) {
        for entry in &mut self.lines {
            *entry = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    /// Pure XOR transform that counts invocations, to observe the
    /// revalidation fast path.
    #[derive(Debug)]
    struct CountingXor {
        key: u32,
        calls: u32,
    }
    impl FetchMonitor for CountingXor {
        fn transform_fetch(&mut self, _addr: u32, word: u32) -> u32 {
            self.calls += 1;
            word ^ self.key
        }
    }

    fn mem_with_line(line_addr: u32, words: &[u32]) -> Memory {
        let mut mem = Memory::new();
        for (i, &w) in words.iter().enumerate() {
            mem.write_u32(line_addr + 4 * i as u32, w);
        }
        mem
    }

    #[test]
    fn fill_decodes_and_lookup_returns_plaintext() {
        let key = 0x5A5A_5A5A;
        let nop_enc = key; // nop (0) xor key
        let mem = mem_with_line(0x100, &[nop_enc, nop_enc, !0u32 ^ key, nop_enc]);
        let mut dc = DecodeCache::new(2, 2, 16);
        let mut mon = CountingXor { key, calls: 0 };
        dc.fill(1, 0x100, 4, &mem, &mut mon);
        assert_eq!(mon.calls, 4);
        let (inst, word) = dc.lookup(1, 0x104).unwrap();
        assert_eq!(word, 0);
        assert!(inst.is_some());
        // 0xFFFF_FFFF does not decode: stored as None, word still reported.
        let (bad, bad_word) = dc.lookup(1, 0x108).unwrap();
        assert!(bad.is_none());
        assert_eq!(bad_word, !0u32);
    }

    #[test]
    fn refill_with_unchanged_memory_revalidates_without_transform() {
        let mem = mem_with_line(0x200, &[0, 0, 0, 0]);
        let mut dc = DecodeCache::new(2, 2, 16);
        let mut mon = CountingXor { key: 0, calls: 0 };
        dc.fill(0, 0x200, 4, &mem, &mut mon);
        assert_eq!(mon.calls, 4);
        dc.fill(0, 0x200, 4, &mem, &mut mon);
        assert_eq!(mon.calls, 4, "unchanged line must not be re-transformed");
    }

    #[test]
    fn refill_with_mutated_memory_redecodes() {
        let mut mem = mem_with_line(0x200, &[0, 0, 0, 0]);
        let mut dc = DecodeCache::new(2, 2, 16);
        let mut mon = CountingXor { key: 0, calls: 0 };
        dc.fill(0, 0x200, 4, &mem, &mut mon);
        mem.write_u32(0x208, 7);
        dc.fill(0, 0x200, 4, &mem, &mut mon);
        assert_eq!(mon.calls, 8, "mutated line must be re-transformed");
        assert_eq!(dc.lookup(0, 0x208).unwrap().1, 7);
    }

    #[test]
    fn invalidate_drops_only_the_matching_line() {
        let mem = mem_with_line(0x100, &[0; 4]);
        let mem2 = mem_with_line(0x200, &[0; 4]);
        let mut dc = DecodeCache::new(2, 2, 16);
        dc.fill(0, 0x100, 4, &mem, &mut NullMonitor);
        dc.fill(2, 0x200, 4, &mem2, &mut NullMonitor);
        dc.invalidate(0x10C); // inside the first line
        assert!(dc.lookup(0, 0x100).is_none());
        assert!(dc.lookup(2, 0x200).is_some());
    }

    #[test]
    fn lookup_rejects_wrong_line_and_unaligned_pc() {
        let mem = mem_with_line(0x100, &[0; 4]);
        let mut dc = DecodeCache::new(2, 2, 16);
        dc.fill(0, 0x100, 4, &mem, &mut NullMonitor);
        assert!(dc.lookup(0, 0x200).is_none());
        assert!(dc.lookup(0, 0x102).is_none());
        assert!(dc.lookup(1, 0x100).is_none());
    }
}
