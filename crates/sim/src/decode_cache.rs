//! Decoded-line store: the decode layer of the fetch/decode/execute split.
//!
//! The store holds one entry per I-cache line of the text segment, indexed
//! by text line (`(line_addr − aligned text base) / line_bytes`). When the
//! I-cache fills a line, its entry is filled with the post-transform
//! (plaintext) words and their decoded [`Inst`] values, so the hot path
//! fetches a ready-to-execute instruction with one bounds check instead of
//! re-reading sparse memory, re-applying the monitor transform and
//! re-running `Inst::decode` on every committed instruction.
//!
//! Entries outlive the I-cache residency of their line: timing comes only
//! from the I-cache tag model, and the store answers only "what does this
//! text word decode to". A store lives as long as its machine, and a
//! re-armed machine is a fresh one with a fresh store. Invalidation rules
//! (see DESIGN.md "Fetch-path architecture v2"):
//!
//! * **eviction** — keeps the entry; refilling the line within the same
//!   run costs nothing, because memory under a line only changes through a
//!   store to text, which drops the entry;
//! * **tamper response** — the machine clears the store when a run ends in
//!   tamper detection, as the hardware zeroises its plaintext;
//! * **store to text** — [`DecodeCache::invalidate`] drops the line a
//!   store landed in, in O(1), preserving self-modifying-code semantics
//!   (the reference engine re-reads memory on every fetch).
//!
//! The store is purely functional: it touches no counters and charges no
//! cycles, which is what keeps [`crate::Stats`] bit-identical between the
//! reference and predecoded engines.

use flexprot_isa::Inst;

use crate::mem::Memory;
use crate::monitor::FetchMonitor;

/// Decoded-instruction store indexed by text line.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// Base address of the first line that overlaps the text segment.
    base: u32,
    /// Per line: whether it holds the decode of its words.
    valid: Vec<bool>,
    /// Post-transform (plaintext) words, for `observe_commit` and fault
    /// reporting; one per word of every line, like the next one.
    plain: Vec<u32>,
    /// Decoded instructions; `None` marks a word that does not decode
    /// (faults only if actually fetched, like the reference engine).
    insts: Vec<Option<Inst>>,
}

impl DecodeCache {
    /// Creates an empty store for `line_bytes`-byte lines over the text
    /// segment `[text_base, text_end)`.
    pub(crate) fn new(line_bytes: u32, text_base: u32, text_end: u32) -> DecodeCache {
        let line_shift = line_bytes.trailing_zeros();
        let base = text_base >> line_shift << line_shift;
        let lines = if text_end > text_base {
            ((text_end - 1 - base) >> line_shift) as usize + 1
        } else {
            0
        };
        let words = lines << (line_shift - 2);
        DecodeCache {
            line_shift,
            base,
            valid: vec![false; lines],
            plain: vec![0; words],
            insts: vec![None; words],
        }
    }

    /// The entry index of the line holding `addr`, if it overlaps text.
    fn line_of(&self, addr: u32) -> Option<usize> {
        let line = (addr.wrapping_sub(self.base) >> self.line_shift) as usize;
        (line < self.valid.len()).then_some(line)
    }

    /// Makes the entry of the text line at `line_addr` valid: a line
    /// already valid is left alone, any other is read from memory,
    /// transformed and decoded into its buffers.
    pub(crate) fn fill<M: FetchMonitor>(&mut self, line_addr: u32, mem: &Memory, monitor: &mut M) {
        let Some(line) = self.line_of(line_addr) else {
            return;
        };
        if self.valid[line] {
            return;
        }
        let n = 1 << (self.line_shift - 2);
        let span = line * n..(line + 1) * n;
        let plain = &mut self.plain[span.clone()];
        for (i, word) in plain.iter_mut().enumerate() {
            *word = mem.read_u32(line_addr.wrapping_add(4 * i as u32));
        }
        monitor.transform_fill(line_addr, plain);
        for (inst, &word) in self.insts[span].iter_mut().zip(&*plain) {
            *inst = Inst::decode(word).ok();
        }
        self.valid[line] = true;
    }

    /// Looks up the decoded instruction and plaintext word for the
    /// word-aligned text address `pc`.
    ///
    /// Returns `None` when the line is not valid (e.g. after a
    /// store-to-text invalidation while the I-cache still hits) — the
    /// caller then refills functionally, charging nothing.
    pub(crate) fn lookup(&self, pc: u32) -> Option<(Option<Inst>, u32)> {
        let line = self.line_of(pc)?;
        if !self.valid[line] {
            return None;
        }
        let index = (pc.wrapping_sub(self.base) >> 2) as usize;
        Some((self.insts[index], self.plain[index]))
    }

    /// Drops the decoded line containing `addr`, if it overlaps text.
    pub(crate) fn invalidate(&mut self, addr: u32) {
        if let Some(line) = self.line_of(addr) {
            self.valid[line] = false;
        }
    }

    /// Drops every decoded line (tamper response).
    pub(crate) fn clear(&mut self) {
        self.valid.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    /// Pure XOR transform that counts invocations, to observe which
    /// fills transform their line.
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

    /// A store over text `[0x100, 0x140)` with 16-byte lines: 4 lines.
    fn store() -> DecodeCache {
        DecodeCache::new(16, 0x100, 0x140)
    }

    #[test]
    fn fill_decodes_and_lookup_returns_plaintext() {
        let key = 0x5A5A_5A5A;
        let nop_enc = key; // nop (0) xor key
        let mem = mem_with_line(0x110, &[nop_enc, nop_enc, !0u32 ^ key, nop_enc]);
        let mut dc = store();
        let mut mon = CountingXor { key, calls: 0 };
        dc.fill(0x110, &mem, &mut mon);
        assert_eq!(mon.calls, 4);
        let (inst, word) = dc.lookup(0x114).unwrap();
        assert_eq!(word, 0);
        assert!(inst.is_some());
        // 0xFFFF_FFFF does not decode: stored as None, word still reported.
        let (bad, bad_word) = dc.lookup(0x118).unwrap();
        assert!(bad.is_none());
        assert_eq!(bad_word, !0u32);
    }

    #[test]
    fn refill_after_eviction_does_not_retransform() {
        // An I-cache eviction leaves the entry alone; the refill within
        // the same run finds it current and reads nothing.
        let mem = mem_with_line(0x100, &[1, 2, 3, 4]);
        let mut dc = store();
        let mut mon = CountingXor { key: 0, calls: 0 };
        dc.fill(0x100, &mem, &mut mon);
        assert_eq!(mon.calls, 4);
        dc.fill(0x130, &mem, &mut mon); // another line, as an eviction would
        assert_eq!(mon.calls, 8);
        dc.fill(0x100, &mem, &mut mon);
        assert_eq!(mon.calls, 8, "unchanged line must not be re-transformed");
        assert_eq!(dc.lookup(0x108).unwrap().1, 3);
    }

    #[test]
    fn store_to_text_then_refill_redecodes() {
        let mut mem = mem_with_line(0x100, &[0; 4]);
        let mut dc = store();
        let mut mon = CountingXor { key: 0, calls: 0 };
        dc.fill(0x100, &mem, &mut mon);
        mem.write_u32(0x104, 9);
        dc.invalidate(0x104);
        assert!(dc.lookup(0x100).is_none());
        dc.fill(0x100, &mem, &mut mon);
        assert_eq!(mon.calls, 8, "the stored-to line must be re-transformed");
        assert_eq!(dc.lookup(0x104).unwrap().1, 9);
    }

    #[test]
    fn invalidate_drops_only_the_matching_line() {
        let mut mem = mem_with_line(0x100, &[0; 4]);
        mem.write_u32(0x130, 0);
        let mut dc = store();
        dc.fill(0x100, &mem, &mut NullMonitor);
        dc.fill(0x130, &mem, &mut NullMonitor);
        dc.invalidate(0x10C); // inside the first line
        dc.invalidate(0x9000); // outside text: ignored
        assert!(dc.lookup(0x100).is_none());
        assert!(dc.lookup(0x130).is_some());
    }

    #[test]
    fn lookup_rejects_unfilled_lines_and_addresses_outside_text() {
        let mem = mem_with_line(0x100, &[0; 4]);
        let mut dc = store();
        dc.fill(0x100, &mem, &mut NullMonitor);
        assert!(dc.lookup(0x100).is_some());
        assert!(dc.lookup(0x110).is_none(), "line never filled");
        assert!(dc.lookup(0x0F0).is_none(), "below text");
        assert!(dc.lookup(0x140).is_none(), "past text");
        dc.fill(0x140, &mem, &mut NullMonitor);
        assert!(dc.lookup(0x140).is_none(), "no entry past text");
    }

    #[test]
    fn new_indexes_partial_lines() {
        // Text [0x104, 0x124) touches lines 0x100, 0x110 and 0x120.
        let mut dc = DecodeCache::new(16, 0x104, 0x124);
        assert_eq!(dc.valid.len(), 3);
        let mem = mem_with_line(0x120, &[5, 6, 7, 8]);
        dc.fill(0x120, &mem, &mut NullMonitor);
        assert_eq!(dc.lookup(0x120).unwrap().1, 5);
        let empty = DecodeCache::new(16, 0x200, 0x200);
        assert!(empty.valid.is_empty(), "empty text needs no lines");
    }
}
