//! [`SecMon`] — the runtime secure-monitor model.
//!
//! The monitor is a small finite-state machine fed by the committed
//! instruction stream:
//!
//! * a rolling [`WindowHasher`] that resets on every pc discontinuity and at
//!   every registered window start (guarded block leader);
//! * when the pc reaches a guard site, the current digest is snapshotted and
//!   the next [`GuardSite::symbols`] committed words are parsed as signature
//!   symbols; any mismatch, or any control transfer that interrupts the
//!   sequence, raises a tamper event;
//! * an instruction counter bounds the distance between successful checks
//!   inside protected ranges, defeating guard stripping;
//! * fetched words passing through the monitor are decrypted per the region
//!   table, with latency charged on I-cache fills.
//!
//! Like the hardware, which indexes provisioned tables by fetch address,
//! the monitor compiles its schedule into one attribute byte per text word
//! when a machine binds it to a text segment
//! ([`FetchMonitor::bind_text`]), with the descriptors of the guard sites
//! beside it. A commit then costs one bounds check and one load, a guard
//! site entry one more read for its [`GuardSite`], and a line fill counts
//! its encrypted words from the same bytes; only a line's words outside
//! the text go to the region table's binary search.
//! The monitor also keeps its own run counters, as hardware status
//! registers would ([`FetchMonitor::export_metrics`] reports them).

use flexprot_sim::{FetchMonitor, TamperCause, TamperEvent};
use flexprot_trace::{Histogram, Metrics, SharedSink, TraceEvent};

use crate::cipher::RegionTable;
use crate::guard::{decode_guard_symbol, signature_from_symbols, WindowHasher, SIG_SYMBOLS};
use crate::schedule::{GuardSite, SecMonConfig};

/// Attribute bits of one instruction address.
const WINDOW_START: u8 = 1;
const RESET_POINT: u8 = 2;
const PROTECTED: u8 = 4;
const SITE: u8 = 8;
/// Set at run time, never compiled: the guard check at this site has
/// passed at least once.
const PASSED: u8 = 16;
/// The word lies in an encrypted region.
const ENCRYPTED: u8 = 32;

/// Text words per entry of [`AttrTable::site_rank`].
const RANK_WORDS: usize = 32;

/// The attribute bits of `pc`, read straight from the schedule: three
/// tree lookups, a scan of the protected ranges and a region lookup. The
/// reference the compiled [`AttrTable`] is tested against.
#[cfg(test)]
fn attrs_of(config: &SecMonConfig, pc: u32) -> u8 {
    let bit = |set: bool, flag: u8| if set { flag } else { 0 };
    bit(config.window_starts.contains(&pc), WINDOW_START)
        | bit(config.reset_points.contains(&pc), RESET_POINT)
        | bit(config.in_protected(pc), PROTECTED)
        | bit(config.sites.contains_key(&pc), SITE)
        | bit(config.regions.lookup(pc).is_some(), ENCRYPTED)
}

/// The schedule compiled over a text segment: the attribute bits of every
/// word-aligned address in `[base, base + 4 * flags.len())`, the only
/// place the monitor reads them at run time, and the descriptors of the
/// guard sites among those words.
#[derive(Debug, Clone, Default)]
struct AttrTable {
    /// Word-aligned address of `flags[0]`.
    base: u32,
    flags: Vec<u8>,
    /// The descriptor of every `SITE` word, in address order.
    sites: Vec<GuardSite>,
    /// Per [`RANK_WORDS`] words of `flags`: the number of `SITE` words
    /// before them, and a bit per `SITE` word among them. A site's
    /// ordinal in `sites` is one entry and a popcount away, and the index
    /// costs a quarter byte per word.
    site_rank: Vec<(u32, u32)>,
}

impl AttrTable {
    /// Compiles `config` over the text segment `[text_base, text_end)`.
    /// The table never outgrows the text, however far the schedule's keys
    /// and ranges reach.
    fn compile(config: &SecMonConfig, text_base: u32, text_end: u32) -> AttrTable {
        let base = text_base & !3;
        let len = (text_end.saturating_sub(base) as usize).div_ceil(4);
        let end = u64::from(base) + 4 * len as u64;
        let mut flags = vec![0u8; len];
        // Index of the first word at or after `addr`, clamped to the table.
        let index = |addr: u32| {
            let addr = u64::from(addr).clamp(u64::from(base), end);
            ((addr - u64::from(base)).div_ceil(4)) as usize
        };
        let in_table = |addr: u32| addr.is_multiple_of(4) && addr >= base && u64::from(addr) < end;
        let keys = (config
            .window_starts
            .iter()
            .map(|&addr| (addr, WINDOW_START)))
        .chain(config.reset_points.iter().map(|&addr| (addr, RESET_POINT)));
        for (addr, flag) in keys {
            if in_table(addr) {
                flags[index(addr)] |= flag;
            }
        }
        let mut sites = Vec::new();
        let mut site_rank: Vec<(u32, u32)> = vec![(0, 0); len.div_ceil(RANK_WORDS)];
        for (&addr, &site) in config.sites.range(base..) {
            if in_table(addr) {
                let i = index(addr);
                flags[i] |= SITE;
                site_rank[i / RANK_WORDS].1 |= 1 << (i % RANK_WORDS);
                sites.push(site);
            }
        }
        let mut before = 0;
        for (sites_before, bits) in &mut site_rank {
            *sites_before = before;
            before += bits.count_ones();
        }
        // The encrypted regions are sorted and disjoint: one pass marks
        // them, as it marks the protected ranges.
        let ranges = (config.protected.iter())
            .map(|range| (range.start, range.end, PROTECTED))
            .chain(
                (config.regions.regions().iter())
                    .map(|region| (region.start, region.end, ENCRYPTED)),
            );
        for (start, end, flag) in ranges {
            for word in flags.get_mut(index(start)..index(end)).unwrap_or_default() {
                *word |= flag;
            }
        }
        AttrTable {
            base,
            flags,
            sites,
            site_rank,
        }
    }

    /// The compiled attribute bits of `pc`, if the table covers it.
    fn get(&self, pc: u32) -> Option<u8> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        let index = (pc.wrapping_sub(self.base) >> 2) as usize;
        self.flags.get(index).copied()
    }

    /// The descriptor of the guard site at `pc`, a `SITE` word.
    fn site(&self, pc: u32) -> GuardSite {
        let index = (pc.wrapping_sub(self.base) >> 2) as usize;
        let (before, bits) = self.site_rank[index / RANK_WORDS];
        let below = bits & ((1 << (index % RANK_WORDS)) - 1);
        self.sites[(before + below.count_ones()) as usize]
    }

    /// The number of encrypted words in the line of `line_words` words at
    /// `line_addr`: counted from the table where it covers the line, and
    /// looked up in `regions` where the line runs past either end of it.
    fn encrypted_words_in_line(
        &self,
        regions: &RegionTable,
        line_addr: u32,
        line_words: u32,
    ) -> u32 {
        // The table indices of the line's first and last-plus-one words,
        // which may lie outside the table.
        let first = (i64::from(line_addr) - i64::from(self.base)) >> 2;
        let len = self.flags.len() as i64;
        let lo = first.clamp(0, len);
        let hi = (first + i64::from(line_words)).clamp(0, len);
        let inside = (self.flags[lo as usize..hi as usize].iter())
            .filter(|&&flag| flag & ENCRYPTED != 0)
            .count() as u32;
        if hi - lo == i64::from(line_words) {
            return inside;
        }
        let outside = (0..line_words)
            .filter(|&i| {
                let index = first + i64::from(i);
                (index < lo || index >= hi) && regions.lookup(line_addr + 4 * i).is_some()
            })
            .count() as u32;
        inside + outside
    }

    /// Marks `site` passed, if the table covers it.
    fn mark_passed(&mut self, site: u32) {
        let index = (site.wrapping_sub(self.base) >> 2) as usize;
        if let Some(flag) = self.flags.get_mut(index) {
            *flag |= PASSED;
        }
    }

    /// Number of distinct guard sites marked passed.
    fn sites_passed(&self) -> u64 {
        self.flags
            .iter()
            .filter(|&&flag| flag & PASSED != 0)
            .count() as u64
    }
}

/// The monitor's run counters.
#[derive(Debug, Clone, Default)]
struct Counters {
    windows_opened: u64,
    windows_closed: u64,
    checks_passed: u64,
    /// Spacing ticks before the last spacing reset.
    spacing_ticks: u64,
    /// Line fills with at least one encrypted word.
    decrypt_fills: u64,
    decrypted_words: u64,
    /// Decrypt-unit stall cycles of each fill that charged any.
    decrypt_stall: Histogram,
}

/// A guard sequence in progress.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Collect {
    site: u32,
    /// Guard symbols seen so far.
    seen: u32,
    /// The first symbols: all [`signature_from_symbols`] reads of them.
    head: [u8; SIG_SYMBOLS as usize],
    total: u32,
    tail_remaining: u32,
    next_pc: u32,
}

/// The secure monitor: plugs into [`flexprot_sim::Machine::with_monitor`].
///
/// # Example
///
/// ```
/// use flexprot_secmon::{SecMon, SecMonConfig};
/// use flexprot_sim::{Machine, Outcome, SimConfig};
///
/// let image = flexprot_asm::assemble("main: li $v0, 10\n syscall\n")?;
/// let monitor = SecMon::new(SecMonConfig::transparent());
/// let result = Machine::with_monitor(&image, SimConfig::default(), monitor).run();
/// assert_eq!(result.outcome, Outcome::Exit(0));
/// # Ok::<(), flexprot_asm::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SecMon {
    config: SecMonConfig,
    table: AttrTable,
    hasher: WindowHasher,
    collecting: Option<Collect>,
    spacing: u64,
    counters: Counters,
    tamper_log: Vec<TamperEvent>,
    sink: Option<SharedSink>,
}

impl SecMon {
    /// Creates a monitor provisioned with `config`.
    pub fn new(config: SecMonConfig) -> SecMon {
        let hasher = WindowHasher::new(config.guard_key);
        SecMon {
            config,
            table: AttrTable::default(),
            hasher,
            collecting: None,
            spacing: 0,
            counters: Counters::default(),
            tamper_log: Vec::new(),
            sink: None,
        }
    }

    /// Attaches an observability sink; guard window transitions, check
    /// outcomes, spacing-counter activity and decryption-unit work are
    /// reported to it as trace events. With no sink attached (the default)
    /// the monitor's behaviour and cost are unchanged.
    pub fn attach_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// The provisioned configuration.
    pub fn config(&self) -> &SecMonConfig {
        &self.config
    }

    /// Number of guard checks that passed.
    pub fn checks_passed(&self) -> u64 {
        self.counters.checks_passed
    }

    /// Tamper events seen so far (useful with `halt_on_tamper = false`).
    pub fn tamper_log(&self) -> &[TamperEvent] {
        &self.tamper_log
    }

    /// Zeroes the spacing counter. Every tick adds one to it and only this
    /// takes it back, so the ticks it held move to the run total here,
    /// off the per-commit path.
    fn reset_spacing(&mut self) {
        self.counters.spacing_ticks += self.spacing;
        self.spacing = 0;
    }

    fn trip(&mut self, pc: u32, cause: TamperCause) -> Option<TamperEvent> {
        let event = TamperEvent { pc, cause };
        self.tamper_log.push(event);
        // Recover to a clean state so non-halting mode can continue.
        self.collecting = None;
        self.hasher.reset();
        self.reset_spacing();
        self.config.halt_on_tamper.then_some(event)
    }

    /// Compares the embedded signature against the stream hash once a
    /// guard's symbols (and tail words) have all been observed.
    fn finish_check(&mut self, pc: u32, col: Collect) -> Option<TamperEvent> {
        let seen = (col.seen as usize).min(col.head.len());
        let claimed = signature_from_symbols(&col.head[..seen]);
        let computed = self.hasher.digest();
        if claimed != computed {
            self.emit(TraceEvent::GuardFail { site: col.site, pc });
            return self.trip(
                pc,
                TamperCause::SignatureMismatch {
                    site: col.site,
                    computed,
                    claimed,
                },
            );
        }
        self.emit(TraceEvent::GuardPass { site: col.site });
        self.counters.checks_passed += 1;
        self.table.mark_passed(col.site);
        self.reset_spacing();
        self.hasher.reset();
        None
    }

    /// Advances the guard collection in progress by one committed word,
    /// in place until the check completes or fails.
    fn advance_collect(&mut self, pc: u32, word: u32) -> Option<TamperEvent> {
        let col = self.collecting.as_mut()?;
        col.next_pc = pc.wrapping_add(4);
        if col.seen < col.total {
            // Symbol phase: guard words carry the signature and are NOT
            // hashed themselves — so their shape must be validated, or an
            // attacker could mutate the non-symbol fields freely.
            if !crate::guard::is_guard_form(word) {
                let site = col.site;
                self.emit(TraceEvent::GuardFail { site, pc });
                return self.trip(pc, TamperCause::MalformedGuard { site });
            }
            if let Some(symbol) = col.head.get_mut(col.seen as usize) {
                *symbol = decode_guard_symbol(word);
            }
            col.seen += 1;
        } else {
            // Tail phase: post-guard words (the terminator) are hashed. A
            // site with no symbols and no tail hashes its own word as the
            // tail and checks at once.
            self.hasher.absorb(pc, word);
            col.tail_remaining = col.tail_remaining.saturating_sub(1);
        }
        if col.seen == col.total && col.tail_remaining == 0 {
            let col = *col;
            self.collecting = None;
            return self.finish_check(pc, col);
        }
        None
    }

    #[inline]
    fn observe(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        if let Some(col) = &self.collecting {
            if !sequential || pc != col.next_pc {
                let (site, expected) = (col.site, col.next_pc);
                self.emit(TraceEvent::GuardFail { site, pc });
                return self.trip(pc, TamperCause::InterruptedGuard { site, expected });
            }
            return self.advance_collect(pc, word);
        }

        // A pc outside the bound text has no attributes (see
        // `FetchMonitor::bind_text`).
        let attrs = self.table.get(pc).unwrap_or(0);
        if !sequential || attrs & WINDOW_START != 0 {
            self.hasher.reset();
            if !sequential && attrs & RESET_POINT != 0 {
                self.reset_spacing();
            }
            if attrs & WINDOW_START != 0 {
                self.counters.windows_opened += 1;
                self.emit(TraceEvent::WindowOpen { pc });
            }
        }
        if attrs & SITE != 0 {
            let site = self.table.site(pc);
            self.counters.windows_closed += 1;
            self.emit(TraceEvent::WindowClose { site: pc });
            self.collecting = Some(Collect {
                site: pc,
                seen: 0,
                head: [0; SIG_SYMBOLS as usize],
                total: site.symbols,
                tail_remaining: site.tail,
                next_pc: pc,
            });
            return self.advance_collect(pc, word);
        }

        self.hasher.absorb(pc, word);
        if let Some(bound) = self.config.spacing_bound {
            if attrs & PROTECTED != 0 {
                self.spacing += 1;
                self.emit(TraceEvent::SpacingTick {
                    pc,
                    count: self.spacing,
                });
                if self.spacing > bound {
                    self.emit(TraceEvent::SpacingExceeded { pc, bound });
                    return self.trip(pc, TamperCause::SpacingBound { bound });
                }
            }
        }
        None
    }

    /// Charges the decrypt unit for a line fill with `encrypted` words to
    /// decrypt, and counts the fill.
    fn charge_fill(&mut self, line_addr: u32, encrypted: u32) -> u64 {
        let cycles = self.config.decrypt.fill_penalty(encrypted);
        if encrypted > 0 {
            self.counters.decrypt_fills += 1;
            self.counters.decrypted_words += u64::from(encrypted);
            if cycles > 0 {
                self.counters.decrypt_stall.record(cycles);
            }
            self.emit(TraceEvent::Decrypt {
                line_addr,
                encrypted_words: encrypted,
                cycles,
            });
        }
        cycles
    }
}

impl FetchMonitor for SecMon {
    fn transform_fetch(&mut self, addr: u32, word: u32) -> u32 {
        self.config.regions.apply(addr, word)
    }

    fn transform_fill(&mut self, line_addr: u32, words: &mut [u32]) {
        // Line-granularity decrypt, as the hardware does it: one pass over
        // the filled line. Functionally identical to per-word
        // `transform_fetch`; latency is charged by `fill_penalty`.
        self.config.regions.apply_line(line_addr, words);
    }

    fn fill_penalty(&mut self, line_addr: u32, line_words: u32) -> u64 {
        let encrypted =
            (self.table).encrypted_words_in_line(&self.config.regions, line_addr, line_words);
        self.charge_fill(line_addr, encrypted)
    }

    fn bind_text(&mut self, text_base: u32, text_end: u32) {
        self.table = AttrTable::compile(&self.config, text_base, text_end);
    }

    // Inlined, with `observe`, into the simulator's commit loop, which
    // calls it once per committed word.
    #[inline]
    fn observe_commit(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        self.observe(pc, word, sequential)
    }

    /// The `guard_*` and `spacing_*` counters once their event has
    /// happened (failures and spacing trips from the tamper log), and once
    /// a fill needed decryption the `decrypt_*` counters and the
    /// `decrypt_stall_cycles` histogram.
    fn export_metrics(&self, metrics: &mut Metrics) {
        let c = &self.counters;
        let spacing_trips = self
            .tamper_log
            .iter()
            .filter(|event| matches!(event.cause, TamperCause::SpacingBound { .. }))
            .count() as u64;
        metrics.tally("guard_windows_opened", c.windows_opened);
        metrics.tally("guard_windows_closed", c.windows_closed);
        metrics.tally("guard_checks_passed", c.checks_passed);
        metrics.tally("guard_sites_passed", self.table.sites_passed());
        metrics.tally(
            "guard_checks_failed",
            self.tamper_log.len() as u64 - spacing_trips,
        );
        metrics.tally("spacing_ticks", c.spacing_ticks + self.spacing);
        metrics.tally("spacing_exceeded", spacing_trips);
        if c.decrypt_fills > 0 {
            metrics.add("decrypt_fills", c.decrypt_fills);
            metrics.add("decrypted_words", c.decrypted_words);
            metrics.add("decrypt_unit_cycles", c.decrypt_stall.sum());
        }
        metrics.merge_histogram("decrypt_stall_cycles", &c.decrypt_stall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::{EncRegion, RegionTable};
    use crate::decrypt::DecryptModel;
    use crate::guard::{encode_guard_inst, signature_symbols};
    use crate::schedule::{GuardSite, ProtectedRange};
    use std::collections::{BTreeMap, BTreeSet};

    const KEY: u64 = 0x05EC_00D5;
    const BASE: u32 = 0x0040_0000;

    /// Builds (config, committed stream) for a window of `body` words
    /// followed by a correct guard sequence.
    fn guarded_stream(body: &[u32]) -> (SecMonConfig, Vec<(u32, u32, bool)>) {
        let site = BASE + 4 * body.len() as u32;
        let digest = WindowHasher::hash_window(KEY, BASE, body);
        let mut stream = Vec::new();
        for (i, &w) in body.iter().enumerate() {
            stream.push((BASE + 4 * i as u32, w, i != 0));
        }
        for (i, sym) in signature_symbols(digest).into_iter().enumerate() {
            let word = encode_guard_inst(sym, i as u8).encode();
            stream.push((site + 4 * i as u32, word, true));
        }
        let mut sites = BTreeMap::new();
        sites.insert(site, GuardSite::default());
        let mut window_starts = BTreeSet::new();
        window_starts.insert(BASE);
        let config = SecMonConfig {
            guard_key: KEY,
            sites,
            window_starts,
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        (config, stream)
    }

    /// Binds the monitor to the text the stream covers, as a machine
    /// would, then commits the stream until the monitor trips.
    pub(super) fn feed(mon: &mut SecMon, stream: &[(u32, u32, bool)]) -> Option<TamperEvent> {
        let pcs = stream.iter().map(|&(pc, _, _)| pc);
        if let (Some(first), Some(last)) = (pcs.clone().min(), pcs.max()) {
            mon.bind_text(first, last + 4);
        }
        for &(pc, word, seq) in stream {
            if let Some(e) = mon.observe_commit(pc, word, seq) {
                return Some(e);
            }
        }
        None
    }

    #[test]
    fn correct_guard_passes() {
        let (config, stream) = guarded_stream(&[0x1111_2222, 0x3333_4444, 0x5555_6666]);
        let mut mon = SecMon::new(config);
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.checks_passed(), 1);
        assert!(mon.tamper_log().is_empty());
    }

    #[test]
    fn tampered_window_word_is_detected() {
        let (config, mut stream) = guarded_stream(&[0x1111_2222, 0x3333_4444, 0x5555_6666]);
        stream[1].1 ^= 1 << 13;
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &stream).expect("must detect");
        let (site, computed, claimed) = (0x0040_000C, 0x6A6B_6F74, 0x51CA_E1CC);
        let cause = TamperCause::SignatureMismatch {
            site,
            computed,
            claimed,
        };
        assert_eq!(event.cause, cause);
        // `fprun` prints this line after `TAMPER: `.
        assert_eq!(
            event.to_string(),
            "tamper detected at 0x00400018: signature mismatch at site 0x0040000c: \
             stream hash 0x6a6b6f74, embedded signature 0x51cae1cc"
        );
        assert_eq!(mon.checks_passed(), 0);
    }

    #[test]
    fn tampered_guard_word_is_detected() {
        let (config, mut stream) = guarded_stream(&[0xAAAA_0001, 0xAAAA_0002]);
        let last = stream.len() - 1;
        // Replace the final guard instruction with a different symbol.
        stream[last].1 = encode_guard_inst(0x5A, 1).encode();
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &stream).expect("must detect");
        assert!(matches!(event.cause, TamperCause::SignatureMismatch { .. }));
    }

    #[test]
    fn malformed_guard_word_is_detected() {
        let (config, mut stream) = guarded_stream(&[0xAAAA_0001, 0xAAAA_0002]);
        // `addiu $t0, $zero, 1` in the second guard slot.
        stream[3].1 = 0x2408_0001;
        let event = feed(&mut SecMon::new(config), &stream).expect("must detect");
        assert_eq!(
            event.cause,
            TamperCause::MalformedGuard { site: 0x0040_0008 }
        );
        assert_eq!(
            event.to_string(),
            "tamper detected at 0x0040000c: malformed guard instruction at site 0x00400008"
        );
    }

    #[test]
    fn interrupted_guard_sequence_is_detected() {
        let (config, stream) = guarded_stream(&[0xAAAA_0001, 0xAAAA_0002]);
        // Cut the stream mid-guard, then jump somewhere else.
        let cut = stream.len() - 2;
        let mut truncated = stream[..cut].to_vec();
        truncated.push((BASE + 0x100, 0, false));
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &truncated).expect("must detect");
        let (site, expected) = (0x0040_0008, 0x0040_0010);
        assert_eq!(
            event.cause,
            TamperCause::InterruptedGuard { site, expected }
        );
        assert_eq!(
            event.to_string(),
            "tamper detected at 0x00400100: guard sequence at 0x00400008 interrupted \
             (expected 0x00400010)"
        );
    }

    #[test]
    fn reentry_passes_check_twice() {
        let (config, stream) = guarded_stream(&[0xBBBB_0001, 0xBBBB_0002, 0xBBBB_0003]);
        let mut mon = SecMon::new(config);
        assert_eq!(feed(&mut mon, &stream), None);
        // Second execution of the same window (e.g. a loop) — entered by a
        // taken branch (non-sequential first word).
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.checks_passed(), 2);
    }

    #[test]
    fn fallthrough_entry_resets_at_window_start() {
        let (config, mut stream) = guarded_stream(&[0xCCCC_0001, 0xCCCC_0002]);
        // Pretend the word before BASE fell through into the window:
        // window_start must reset the hash, so the prefix must not matter.
        stream[0].2 = true; // sequential entry into window start
        let mut mon = SecMon::new(config);
        mon.bind_text(BASE - 4, BASE);
        mon.observe_commit(BASE - 4, 0x7777_7777, false);
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.checks_passed(), 1);
    }

    /// The monitor's exported counters.
    fn metrics_of(mon: &SecMon) -> Metrics {
        let mut metrics = Metrics::new();
        mon.export_metrics(&mut metrics);
        metrics
    }

    #[test]
    fn monitor_counts_windows_checks_and_distinct_sites() {
        let (config, stream) = guarded_stream(&[0x1111_2222, 0x3333_4444, 0x5555_6666]);
        let mut mon = SecMon::new(config);
        // The stream twice over one binding: its first commit is not
        // sequential, so the window opens again.
        assert_eq!(feed(&mut mon, &[stream.clone(), stream].concat()), None);
        let m = metrics_of(&mon);
        assert_eq!(m.counter("guard_windows_opened"), 2);
        assert_eq!(m.counter("guard_windows_closed"), 2);
        assert_eq!(m.counter("guard_checks_passed"), mon.checks_passed());
        assert_eq!(m.counter("guard_sites_passed"), 1, "one site, passed twice");
        // Nothing failed and nothing was decrypted: those counters are
        // absent, not zero.
        let names: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "guard_checks_passed",
                "guard_sites_passed",
                "guard_windows_closed",
                "guard_windows_opened"
            ]
        );
    }

    #[test]
    fn monitor_counts_failures_and_spacing_trips_from_its_log() {
        let (mut config, mut stream) = guarded_stream(&[0x1111_2222, 0x3333_4444]);
        config.halt_on_tamper = false;
        config.protected = vec![ProtectedRange {
            start: BASE,
            end: BASE + 0x1000,
        }];
        config.spacing_bound = Some(1);
        stream[0].1 ^= 1 << 9;
        let mut mon = SecMon::new(config);
        assert_eq!(feed(&mut mon, &stream), None);
        let m = metrics_of(&mon);
        assert_eq!(m.counter("spacing_exceeded"), 1);
        assert_eq!(m.counter("guard_checks_failed"), 1);
        assert_eq!(mon.tamper_log().len(), 2);
        assert_eq!(m.counter("spacing_ticks"), 2);
    }

    #[test]
    fn monitor_counts_decrypt_work() {
        let regions = RegionTable::new(vec![EncRegion {
            start: BASE,
            end: BASE + 32,
            key: 1,
        }]);
        let config = SecMonConfig {
            regions,
            decrypt: DecryptModel {
                cycles_per_word: 2,
                startup: 4,
                pipelined: false,
            },
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        let charged = mon.fill_penalty(BASE, 8);
        assert_eq!(mon.fill_penalty(BASE + 32, 8), 0);
        let m = metrics_of(&mon);
        assert_eq!(m.counter("decrypt_fills"), 1);
        assert_eq!(m.counter("decrypted_words"), 8);
        assert_eq!(m.counter("decrypt_unit_cycles"), charged);
        let stalls = m.histogram("decrypt_stall_cycles").unwrap();
        assert_eq!((stalls.count(), stalls.sum()), (1, charged));

        // A free decrypt unit still counts its fills, at zero cycles, and
        // records no stall.
        let mut free = SecMon::new(SecMonConfig {
            decrypt: DecryptModel::free(),
            ..mon.config().clone()
        });
        assert_eq!(free.fill_penalty(BASE, 8), 0);
        let m = metrics_of(&free);
        assert_eq!(m.counter("decrypt_fills"), 1);
        assert!(m.counters().any(|(name, _)| name == "decrypt_unit_cycles"));
        assert!(m.histogram("decrypt_stall_cycles").is_none());
    }

    #[test]
    fn spacing_bound_trips_without_guards() {
        let config = SecMonConfig {
            guard_key: KEY,
            protected: vec![ProtectedRange {
                start: BASE,
                end: BASE + 0x1000,
            }],
            spacing_bound: Some(10),
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        mon.bind_text(BASE, BASE + 0x1000);
        let mut tripped = None;
        for i in 0..20u32 {
            tripped = mon.observe_commit(BASE + 4 * i, 0x0000_0000, i != 0);
            if tripped.is_some() {
                break;
            }
        }
        let event = tripped.expect("spacing bound must trip");
        assert_eq!(event.cause, TamperCause::SpacingBound { bound: 10 });
        assert_eq!(
            event.to_string(),
            "tamper detected at 0x00400028: guard spacing bound 10 exceeded in protected region"
        );
    }

    #[test]
    fn spacing_ignores_unprotected_addresses() {
        let config = SecMonConfig {
            guard_key: KEY,
            protected: vec![ProtectedRange {
                start: BASE + 0x8000,
                end: BASE + 0x9000,
            }],
            spacing_bound: Some(4),
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        mon.bind_text(BASE, BASE + 400);
        for i in 0..100u32 {
            assert_eq!(mon.observe_commit(BASE + 4 * i, 0, i != 0), None);
        }
    }

    #[test]
    fn non_halting_mode_logs_and_continues() {
        let (mut config, mut stream) = guarded_stream(&[0xDDDD_0001, 0xDDDD_0002]);
        config.halt_on_tamper = false;
        stream[0].1 ^= 4;
        let mut mon = SecMon::new(config);
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.tamper_log().len(), 1);
        assert_eq!(mon.checks_passed(), 0);
    }

    #[test]
    fn transform_decrypts_only_regions() {
        let key = 77;
        let regions = RegionTable::new(vec![EncRegion {
            start: BASE,
            end: BASE + 8,
            key,
        }]);
        let config = SecMonConfig {
            regions,
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        let plain = 0x2108_0001;
        let cipher = plain ^ crate::cipher::keystream(key, BASE);
        assert_eq!(mon.transform_fetch(BASE, cipher), plain);
        assert_eq!(mon.transform_fetch(BASE + 8, plain), plain);
    }

    #[test]
    fn fill_penalty_charges_only_encrypted_lines() {
        let regions = RegionTable::new(vec![EncRegion {
            start: BASE,
            end: BASE + 32,
            key: 1,
        }]);
        let config = SecMonConfig {
            regions,
            decrypt: DecryptModel {
                cycles_per_word: 2,
                startup: 4,
                pipelined: false,
            },
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        assert_eq!(mon.fill_penalty(BASE, 8), 4 + 2 * 8);
        assert_eq!(mon.fill_penalty(BASE + 32, 8), 0);
    }
}

#[cfg(test)]
mod reset_point_tests {
    use super::*;
    use crate::schedule::ProtectedRange;

    const BASE: u32 = 0x0040_0000;

    #[test]
    fn call_into_protected_entry_resets_spacing() {
        let entry = BASE + 0x40;
        let mut reset_points = std::collections::BTreeSet::new();
        reset_points.insert(entry);
        let config = SecMonConfig {
            guard_key: 1,
            protected: vec![ProtectedRange {
                start: BASE,
                end: BASE + 0x1000,
            }],
            spacing_bound: Some(8),
            reset_points,
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        mon.bind_text(BASE, BASE + 0x1000);
        // 6 protected instructions, then a call lands on the entry,
        // then 6 more: never exceeds the bound of 8.
        for i in 0..6u32 {
            assert_eq!(mon.observe_commit(BASE + 4 * i, 0, i != 0), None);
        }
        assert_eq!(mon.observe_commit(entry, 0, false), None);
        for i in 1..7u32 {
            assert_eq!(mon.observe_commit(entry + 4 * i, 0, true), None);
        }
        // Without the reset the 13th protected instruction would trip.
        assert!(mon.tamper_log().is_empty());
    }

    #[test]
    fn sequential_flow_through_entry_does_not_reset() {
        let entry = BASE + 0x10;
        let mut reset_points = std::collections::BTreeSet::new();
        reset_points.insert(entry);
        let config = SecMonConfig {
            guard_key: 1,
            protected: vec![ProtectedRange {
                start: BASE,
                end: BASE + 0x1000,
            }],
            spacing_bound: Some(8),
            reset_points,
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        let mut mon = SecMon::new(config);
        mon.bind_text(BASE, BASE + 0x1000);
        // Straight-line execution through the entry must keep counting: an
        // attacker cannot launder the counter by falling through.
        let mut tripped = false;
        for i in 0..20u32 {
            if mon.observe_commit(BASE + 4 * i, 0, i != 0).is_some() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "fall-through must not reset the spacing counter");
    }
}

#[cfg(test)]
mod tail_tests {
    use super::tests::feed;
    use super::*;
    use crate::guard::{encode_guard_inst, signature_symbols, WindowHasher};
    use crate::schedule::GuardSite;
    use std::collections::{BTreeMap, BTreeSet};

    const KEY: u64 = 0xF00D;
    const BASE: u32 = 0x0040_0000;

    /// Window: 2 body words, 4 guard words, 1 tail (terminator) word.
    fn tailed_stream(body: &[u32], terminator: u32) -> (SecMonConfig, Vec<(u32, u32, bool)>) {
        let site = BASE + 4 * body.len() as u32;
        let term_addr = site + 4 * 4;
        let mut hasher = WindowHasher::new(KEY);
        for (i, &w) in body.iter().enumerate() {
            hasher.absorb(BASE + 4 * i as u32, w);
        }
        hasher.absorb(term_addr, terminator);
        let digest = hasher.digest();
        let mut stream = Vec::new();
        for (i, &w) in body.iter().enumerate() {
            stream.push((BASE + 4 * i as u32, w, i != 0));
        }
        for (i, sym) in signature_symbols(digest).into_iter().enumerate() {
            stream.push((
                site + 4 * i as u32,
                encode_guard_inst(sym, i as u8).encode(),
                true,
            ));
        }
        stream.push((term_addr, terminator, true));
        let mut sites = BTreeMap::new();
        sites.insert(
            site,
            GuardSite {
                symbols: 4,
                tail: 1,
            },
        );
        let mut window_starts = BTreeSet::new();
        window_starts.insert(BASE);
        let config = SecMonConfig {
            guard_key: KEY,
            sites,
            window_starts,
            halt_on_tamper: true,
            ..SecMonConfig::transparent()
        };
        (config, stream)
    }

    #[test]
    fn tail_covered_window_passes() {
        let (config, stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        let mut mon = SecMon::new(config);
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.checks_passed(), 1);
    }

    #[test]
    fn tampered_terminator_is_detected() {
        let (config, mut stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        // Flip the terminator (e.g. beq -> bne is a single-bit opcode flip).
        let last = stream.len() - 1;
        stream[last].1 ^= 1 << 26;
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &stream).expect("terminator patch must be caught");
        assert!(matches!(event.cause, TamperCause::SignatureMismatch { .. }));
    }

    #[test]
    fn jump_away_before_tail_is_interrupted() {
        let (config, stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        let mut cut = stream[..stream.len() - 1].to_vec();
        cut.push((BASE + 0x200, 0, false));
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &cut).expect("skipping the tail must be caught");
        assert!(matches!(event.cause, TamperCause::InterruptedGuard { .. }));
    }

    #[test]
    fn site_without_symbols_or_tail_checks_at_once() {
        // The FPM1 decoder refuses such a site; one built in code must
        // still end in a typed outcome, not a counter underflow.
        let (mut config, stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        let site = stream[2].0;
        config.sites.insert(
            site,
            GuardSite {
                symbols: 0,
                tail: 0,
            },
        );
        let event = feed(&mut SecMon::new(config), &stream).expect("empty signature");
        assert!(
            matches!(event.cause, TamperCause::SignatureMismatch { site: s, claimed: 0, .. } if s == site)
        );
        assert_eq!(event.pc, site);
    }

    #[test]
    fn guard_collection_holds_no_buffer() {
        // A guard check in progress is plain data: even a hostile site of
        // u32::MAX symbols reserves nothing.
        fn copy<T: Copy>() {}
        copy::<Collect>();
        let (mut config, stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        let site = stream[2].0;
        config.sites.insert(
            site,
            GuardSite {
                symbols: u32::MAX,
                tail: 0,
            },
        );
        let event = feed(&mut SecMon::new(config), &stream).expect("never completes");
        assert!(matches!(event.cause, TamperCause::MalformedGuard { site: s } if s == site));
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::cipher::EncRegion;
    use crate::schedule::ProtectedRange;
    use flexprot_isa::Rng64;
    use flexprot_sim::{Machine, Outcome, RunResult, SimConfig, Stats};

    /// An address near the text segment, inside it, or anywhere; aligned
    /// or not.
    fn near(rng: &mut Rng64, text_base: u32, text_end: u32) -> u32 {
        let span = text_end.wrapping_sub(text_base) as u64 + 64;
        let addr = match rng.below(4) {
            0 => rng.next_u32(),
            1 => text_end.wrapping_add(rng.below(64) as u32),
            _ => text_base
                .wrapping_sub(32)
                .wrapping_add(rng.below(span) as u32),
        };
        if rng.chance(0.2) {
            addr
        } else {
            addr & !3
        }
    }

    /// A site descriptor: an empty, one-symbol, full or endless guard,
    /// with or without a tail.
    pub(super) fn any_site(rng: &mut Rng64) -> GuardSite {
        let symbols = [0, 1, SIG_SYMBOLS, SIG_SYMBOLS, u32::MAX][rng.index(5)];
        let tail = [0, 0, 1, 2][rng.index(4)];
        GuardSite { symbols, tail }
    }

    /// A valid region table around the text `[text_base, text_end)`:
    /// block-sized regions inside it, regions reaching past either end of
    /// it and regions wholly outside it.
    pub(super) fn any_regions(rng: &mut Rng64, text_base: u32, text_end: u32) -> RegionTable {
        let (base, end) = (u64::from(text_base & !3), u64::from(text_end));
        let mut candidates: Vec<(u64, u64)> = (0..rng.below(12))
            .map(|_| {
                let words = 1 + rng.below(16);
                let start = match rng.below(4) {
                    // Block-sized, inside the text.
                    0 | 1 => base + 4 * rng.below((end - base) / 4 + 1),
                    // Across the text's first word.
                    2 if rng.chance(0.5) => base.saturating_sub(4 * rng.below(words)),
                    // Across its end, or wholly past it.
                    2 => end.saturating_sub(4 * rng.below(words)) & !3,
                    // Wholly before it.
                    _ => base.saturating_sub(4 * (words + rng.below(8))),
                };
                (start, (start + 4 * words).min(0xFFFF_FFFC))
            })
            .collect();
        candidates.sort_unstable();
        let mut regions: Vec<EncRegion> = Vec::new();
        for (start, end) in candidates {
            let free = regions
                .last()
                .is_none_or(|last| u64::from(last.end) <= start);
            if start < end && free {
                let key = rng.next_u64();
                let (start, end) = (start as u32, end as u32);
                regions.push(EncRegion { start, end, key });
            }
        }
        RegionTable::new(regions)
    }

    /// A text segment: aligned or not, near the bottom or the top of the
    /// address space or at the usual base.
    fn any_text(rng: &mut Rng64) -> (u32, u32) {
        let words = rng.below(600) as u32;
        let text_base = match rng.below(4) {
            0 => 4 * rng.below(64) as u32,
            1 => 0xFFFF_FFFC - 4 * words - 4 * rng.below(16) as u32,
            2 => 0x0040_0000 + rng.below(4) as u32,
            _ => 0x0040_0000,
        };
        (text_base, text_base + 4 * words)
    }

    /// A schedule whose keys and ranges fall in, near and far from the
    /// text `[text_base, text_end)`.
    fn any_config(rng: &mut Rng64, text_base: u32, text_end: u32) -> SecMonConfig {
        let mut config = SecMonConfig::transparent();
        for _ in 0..rng.below(40) {
            (config.window_starts).insert(near(rng, text_base, text_end));
            (config.reset_points).insert(near(rng, text_base, text_end));
            let site = any_site(rng);
            config.sites.insert(near(rng, text_base, text_end), site);
        }
        for _ in 0..rng.below(5) {
            // Overlapping, empty and wrapping (`start > end`) ranges.
            let start = near(rng, text_base, text_end);
            let end = near(rng, text_base, text_end);
            config.protected.push(ProtectedRange { start, end });
        }
        config.regions = any_regions(rng, text_base, text_end);
        config
    }

    /// Checks every word of `table`, compiled from `config`, against the
    /// schedule: its attribute bits and, at a site, its descriptor.
    fn assert_table_matches(
        table: &AttrTable,
        config: &SecMonConfig,
        words: impl Iterator<Item = u32>,
    ) {
        for i in words {
            let pc = table.base + 4 * i;
            let attrs = attrs_of(config, pc);
            assert_eq!(table.get(pc), Some(attrs), "pc {pc:#010x}");
            if attrs & SITE != 0 {
                assert_eq!(table.site(pc), config.sites[&pc], "site {pc:#010x}");
            }
        }
    }

    #[test]
    fn compiled_table_matches_the_schedule_on_every_text_word() {
        let mut rng = Rng64::new(0x7AB1_E5EC);
        for _ in 0..400 {
            let (text_base, text_end) = any_text(&mut rng);
            let config = any_config(&mut rng, text_base, text_end);
            let table = AttrTable::compile(&config, text_base, text_end);
            // One word more than the text when its base is not word-aligned.
            let words = (text_end - text_base) / 4;
            assert!(table.flags.len() <= words as usize + 1);
            assert_table_matches(&table, &config, 0..table.flags.len() as u32);
            // The table holds a descriptor for each site inside it, no more.
            let sites = table.flags.iter().filter(|&&f| f & SITE != 0).count();
            assert_eq!(table.sites.len(), sites);
            let past = table.base.wrapping_add(4 * table.flags.len() as u32);
            assert_eq!(table.get(past), None);
            assert_eq!(table.get(table.base.wrapping_sub(4)), None);
            assert_eq!(table.get(table.base | 1), None);
        }
    }

    #[test]
    fn table_counts_a_lines_encrypted_words_as_the_region_table_does() {
        let mut rng = Rng64::new(0x11E5_C0DE);
        for _ in 0..300 {
            let (text_base, text_end) = any_text(&mut rng);
            let config = any_config(&mut rng, text_base, text_end);
            let table = AttrTable::compile(&config, text_base, text_end);
            let table_end = u64::from(table.base) + 4 * table.flags.len() as u64;
            for line_bytes in [16u32, 32, 64] {
                let line_words = line_bytes / 4;
                // Every line that overlaps the table, and the lines on
                // either side of it.
                let first = u64::from(table.base & !(line_bytes - 1));
                let lines = (first.saturating_sub(u64::from(line_bytes))..)
                    .step_by(line_bytes as usize)
                    .take_while(|&line| line <= table_end && line < 1 << 32);
                for line in lines.map(|line| line as u32) {
                    assert_eq!(
                        table.encrypted_words_in_line(&config.regions, line, line_words),
                        config.regions.encrypted_words_in_line(line, line_words),
                        "line {line:#010x} of {line_bytes} B, text [{text_base:#x}, {text_end:#x})"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_schedule_binds_a_table_that_matches_it() {
        // A 64k-word text with a one-word encrypted region and a guard site
        // on every word: the table holds them all and reads back the
        // schedule.
        const WORDS: u32 = 1 << 16;
        let base = 0x0040_0000;
        let mut config = SecMonConfig {
            decrypt: crate::decrypt::DecryptModel::baseline(),
            ..SecMonConfig::transparent()
        };
        config.regions = RegionTable::new(
            (0..WORDS)
                .map(|i| EncRegion {
                    start: base + 4 * i,
                    end: base + 4 * i + 4,
                    key: u64::from(i),
                })
                .collect(),
        );
        for i in 0..WORDS {
            let site = GuardSite {
                symbols: i,
                tail: i % 3,
            };
            config.sites.insert(base + 4 * i, site);
        }
        let mut mon = SecMon::new(config);
        mon.bind_text(base, base + 4 * WORDS);
        let table = &mon.table;
        assert_eq!((table.flags.len(), table.sites.len()), (65_536, 65_536));
        let sample = (0..WORDS).step_by(61).chain([WORDS - 1]);
        assert_table_matches(table, &mon.config, sample);
        // The last line's eight words are all encrypted: one pipelined
        // fill of the baseline unit.
        assert_eq!(mon.fill_penalty(base + 4 * (WORDS - 8), 8), 4 + 2);
    }

    #[test]
    fn hostile_span_compiles_a_text_sized_table() {
        // Keys at both ends of the address space and a protected range over
        // nearly all of it: the table covers the text and no more, and the
        // run is the one the tree-walking monitor produced.
        let image = flexprot_asm::assemble_or_panic(
            "main: li $t0, 30\nloop: addi $t0, $t0, -1\n bgtz $t0, loop\n li $v0, 10\n syscall\n",
        );
        let mut config = SecMonConfig {
            guard_key: 7,
            protected: vec![ProtectedRange {
                start: 0,
                end: 0xFFFF_FFFC,
            }],
            spacing_bound: Some(40),
            ..SecMonConfig::transparent()
        };
        for addr in [0, 0xFFFF_FFFC] {
            config.window_starts.insert(addr);
            config.reset_points.insert(addr);
            config.sites.insert(addr, GuardSite::default());
        }
        let mut machine = Machine::with_monitor(&image, SimConfig::default(), SecMon::new(config));
        assert_eq!(machine.monitor().table.flags.len(), image.text.len());
        let pinned = RunResult {
            outcome: Outcome::TamperDetected(TamperEvent {
                pc: 0x0040_0008,
                cause: TamperCause::SpacingBound { bound: 40 },
            }),
            stats: Stats {
                cycles: 75,
                instructions: 40,
                icache_accesses: 41,
                icache_misses: 1,
                taken_transfers: 19,
                ..Stats::default()
            },
            output: String::new(),
        };
        assert_eq!(machine.run(), pinned);
    }
}

/// A reference monitor that reads the schedule itself: attributes from
/// [`attrs_of`], the site descriptor from `sites`, a guard collection
/// taken out and written back on every word, and a line's encrypted words
/// counted by the region table. It shares the rest of [`SecMon`]; the
/// table-driven monitor is tested against it.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::decrypt::DecryptModel;
    use crate::guard::{encode_guard_inst, signature_symbols};
    use crate::schedule::ProtectedRange;
    use flexprot_isa::Rng64;
    use flexprot_trace::Recorder;
    use std::cell::RefCell;
    use std::io::{self, Write};
    use std::rc::Rc;

    impl SecMon {
        fn observe_reference(
            &mut self,
            pc: u32,
            word: u32,
            sequential: bool,
        ) -> Option<TamperEvent> {
            if let Some(col) = self.collecting.take() {
                if !sequential || pc != col.next_pc {
                    self.emit(TraceEvent::GuardFail { site: col.site, pc });
                    return self.trip(
                        pc,
                        TamperCause::InterruptedGuard {
                            site: col.site,
                            expected: col.next_pc,
                        },
                    );
                }
                return self.advance_collect_reference(col, pc, word);
            }

            // The table only says whether `pc` lies in the bound text.
            let attrs = match self.table.get(pc) {
                Some(_) => attrs_of(&self.config, pc),
                None => 0,
            };
            if !sequential || attrs & WINDOW_START != 0 {
                self.hasher.reset();
                if !sequential && attrs & RESET_POINT != 0 {
                    self.reset_spacing();
                }
                if attrs & WINDOW_START != 0 {
                    self.counters.windows_opened += 1;
                    self.emit(TraceEvent::WindowOpen { pc });
                }
            }
            if attrs & SITE != 0 {
                let site = self.config.sites[&pc];
                self.counters.windows_closed += 1;
                self.emit(TraceEvent::WindowClose { site: pc });
                let col = Collect {
                    site: pc,
                    seen: 0,
                    head: [0; SIG_SYMBOLS as usize],
                    total: site.symbols,
                    tail_remaining: site.tail,
                    next_pc: pc,
                };
                return self.advance_collect_reference(col, pc, word);
            }

            self.hasher.absorb(pc, word);
            if let Some(bound) = self.config.spacing_bound {
                if attrs & PROTECTED != 0 {
                    self.spacing += 1;
                    self.emit(TraceEvent::SpacingTick {
                        pc,
                        count: self.spacing,
                    });
                    if self.spacing > bound {
                        self.emit(TraceEvent::SpacingExceeded { pc, bound });
                        return self.trip(pc, TamperCause::SpacingBound { bound });
                    }
                }
            }
            None
        }

        fn advance_collect_reference(
            &mut self,
            mut col: Collect,
            pc: u32,
            word: u32,
        ) -> Option<TamperEvent> {
            col.next_pc = pc.wrapping_add(4);
            if col.seen < col.total {
                if !crate::guard::is_guard_form(word) {
                    let site = col.site;
                    self.emit(TraceEvent::GuardFail { site, pc });
                    return self.trip(pc, TamperCause::MalformedGuard { site });
                }
                if let Some(symbol) = col.head.get_mut(col.seen as usize) {
                    *symbol = decode_guard_symbol(word);
                }
                col.seen += 1;
            } else {
                self.hasher.absorb(pc, word);
                col.tail_remaining = col.tail_remaining.saturating_sub(1);
            }
            if col.seen == col.total && col.tail_remaining == 0 {
                self.finish_check(pc, col)
            } else {
                self.collecting = Some(col);
                None
            }
        }

        fn fill_penalty_reference(&mut self, line_addr: u32, line_words: u32) -> u64 {
            let encrypted = (self.config.regions).encrypted_words_in_line(line_addr, line_words);
            self.charge_fill(line_addr, encrypted)
        }
    }

    /// An in-memory trace the test reads after the recorder owns it.
    #[derive(Clone, Default)]
    struct Buffer(Rc<RefCell<Vec<u8>>>);

    impl Write for Buffer {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A monitor bound to `[text_base, text_end)` that traces into the
    /// returned buffer.
    fn traced(config: &SecMonConfig, text_base: u32, text_end: u32) -> (SecMon, Buffer) {
        let buffer = Buffer::default();
        let mut mon = SecMon::new(config.clone());
        mon.attach_sink(Recorder::with_writer(buffer.clone()).shared().0);
        mon.bind_text(text_base, text_end);
        (mon, buffer)
    }

    /// A schedule over `words` words at `base`: window starts, reset
    /// points, sites of every shape, protected ranges, encrypted regions,
    /// a spacing bound near the length of a straight-line stretch, either
    /// tamper mode.
    fn any_schedule(rng: &mut Rng64, base: u32, words: u32) -> SecMonConfig {
        let mut config = SecMonConfig {
            guard_key: rng.next_u64(),
            halt_on_tamper: rng.chance(0.5),
            spacing_bound: rng.chance(0.8).then(|| 1 + rng.below(24)),
            decrypt: DecryptModel {
                cycles_per_word: rng.below(4),
                startup: rng.below(8),
                pipelined: rng.chance(0.5),
            },
            ..SecMonConfig::transparent()
        };
        let word = |rng: &mut Rng64| base + 4 * rng.below(u64::from(words)) as u32;
        for _ in 0..words / 6 {
            config.window_starts.insert(word(rng));
        }
        for _ in 0..words / 16 {
            config.reset_points.insert(word(rng));
        }
        for _ in 0..words / 8 {
            let addr = word(rng);
            config.sites.insert(addr, super::table_tests::any_site(rng));
        }
        for _ in 0..rng.below(3) {
            let (a, b) = (word(rng), word(rng));
            let (start, end) = (a.min(b), a.max(b) + 4);
            config.protected.push(ProtectedRange { start, end });
        }
        config.regions = super::table_tests::any_regions(rng, base, base + 4 * words);
        config
    }

    #[test]
    fn monitor_matches_the_reference_on_random_commit_streams() {
        let mut rng = Rng64::new(0x5EC_0BE5);
        let mut passed = 0;
        for case in 0..600 {
            let base = 0x0040_0000 + 0x40 * rng.below(4) as u32;
            let words = 16 + rng.below(160) as u32;
            let config = any_schedule(&mut rng, base, words);
            let end = base + 4 * words;
            let line_words = [4, 8, 16][rng.index(3)];
            let (mut mon, trace) = traced(&config, base, end);
            let (mut oracle, oracle_trace) = traced(&config, base, end);
            // Words the stream commits next at the following pcs: a guard
            // sequence planned to pass.
            let mut planned: Vec<u32> = Vec::new();
            let mut pc = base;
            let mut sequential = false;
            for step in 0..400 {
                let word = if let Some(word) = planned.pop() {
                    word
                } else {
                    let symbols = config.sites.get(&pc).map(|site| site.symbols);
                    if symbols == Some(SIG_SYMBOLS)
                        && oracle.collecting.is_none()
                        && rng.chance(0.6)
                    {
                        // The signature the site checks: the window so
                        // far (reset as the monitor resets it), then the
                        // tail words.
                        let mut hasher = oracle.hasher;
                        if !sequential || config.window_starts.contains(&pc) {
                            hasher.reset();
                        }
                        let tail = config.sites[&pc].tail;
                        let tail_words: Vec<u32> = (0..tail).map(|_| rng.next_u32()).collect();
                        for (i, &word) in tail_words.iter().enumerate() {
                            hasher.absorb(pc + 4 * (SIG_SYMBOLS + i as u32), word);
                        }
                        let guard = signature_symbols(hasher.digest())
                            .into_iter()
                            .map(|sym| encode_guard_inst(sym, rng.next_u8()).encode());
                        planned = guard.chain(tail_words).rev().collect();
                        planned.pop().expect("four symbols")
                    } else if rng.chance(0.3) {
                        encode_guard_inst(rng.next_u8(), rng.next_u8()).encode()
                    } else {
                        rng.next_u32()
                    }
                };
                let got = mon.observe_commit(pc, word, sequential);
                let want = oracle.observe_reference(pc, word, sequential);
                let at = format!("case {case}, step {step}, pc {pc:#010x}");
                assert_eq!(got, want, "{at}");
                assert_eq!(mon.hasher, oracle.hasher, "{at}");
                assert_eq!(mon.collecting, oracle.collecting, "{at}");
                assert_eq!(mon.spacing, oracle.spacing, "{at}");
                if got.is_some() {
                    // A halting monitor ends the run.
                    break;
                }
                if rng.chance(0.05) {
                    let line = (base & !(4 * line_words - 1))
                        + 4 * line_words * rng.below(u64::from(words / line_words + 2)) as u32;
                    let line = line.wrapping_sub(4 * line_words * rng.below(2) as u32);
                    assert_eq!(
                        mon.fill_penalty(line, line_words),
                        oracle.fill_penalty_reference(line, line_words),
                        "{at}, line {line:#010x}"
                    );
                }
                // Step on, or break the sequence: a taken transfer, now
                // and then one the stream calls sequential anyway.
                let next = pc.wrapping_add(4);
                if planned.is_empty() && (rng.chance(0.12) || next >= end) {
                    pc = base + 4 * rng.below(u64::from(words)) as u32;
                    sequential = rng.chance(0.05);
                } else {
                    pc = next;
                    sequential = true;
                }
            }
            assert_eq!(mon.tamper_log, oracle.tamper_log, "case {case}");
            let (mut got, mut want) = (Metrics::new(), Metrics::new());
            mon.export_metrics(&mut got);
            oracle.export_metrics(&mut want);
            assert_eq!(got, want, "case {case}");
            assert!(
                *trace.0.borrow() == *oracle_trace.0.borrow(),
                "case {case}: traces differ"
            );
            passed += mon.checks_passed();
        }
        // The planned guards pass often enough to exercise the pass path.
        assert!(passed > 100, "only {passed} checks passed");
    }
}
