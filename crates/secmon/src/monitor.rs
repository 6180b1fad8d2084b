//! [`SecMon`] — the runtime secure-monitor model.
//!
//! The monitor is a small finite-state machine fed by the committed
//! instruction stream:
//!
//! * a rolling [`WindowHasher`] that resets on every pc discontinuity and at
//!   every registered window start (guarded block leader);
//! * when the pc reaches a guard site, the current digest is snapshotted and
//!   the next [`GuardSite::symbols`](crate::schedule::GuardSite::symbols) committed words are parsed as signature
//!   symbols; any mismatch, or any control transfer that interrupts the
//!   sequence, raises a tamper event;
//! * an instruction counter bounds the distance between successful checks
//!   inside protected ranges, defeating guard stripping;
//! * fetched words passing through the monitor are decrypted per the region
//!   table, with latency charged on I-cache fills.

use flexprot_sim::{FetchMonitor, TamperEvent};
use flexprot_trace::{SharedSink, TraceEvent};

use crate::guard::{decode_guard_symbol, signature_from_symbols, WindowHasher};
use crate::schedule::SecMonConfig;

#[derive(Debug, Clone)]
struct Collect {
    site: u32,
    symbols: Vec<u8>,
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
    hasher: WindowHasher,
    collecting: Option<Collect>,
    spacing: u64,
    checks_passed: u64,
    tamper_log: Vec<TamperEvent>,
    sink: Option<SharedSink>,
}

impl SecMon {
    /// Creates a monitor provisioned with `config`.
    pub fn new(config: SecMonConfig) -> SecMon {
        let hasher = WindowHasher::new(config.guard_key);
        SecMon {
            config,
            hasher,
            collecting: None,
            spacing: 0,
            checks_passed: 0,
            tamper_log: Vec::new(),
            sink: None,
        }
    }

    /// Attaches an observability sink; guard window transitions, check
    /// outcomes, spacing-counter activity and decryption-unit work are
    /// reported to it. With no sink attached (the default) the monitor's
    /// behaviour and cost are unchanged.
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
        self.checks_passed
    }

    /// Tamper events seen so far (useful with `halt_on_tamper = false`).
    pub fn tamper_log(&self) -> &[TamperEvent] {
        &self.tamper_log
    }

    fn trip(&mut self, pc: u32, reason: String) -> Option<TamperEvent> {
        let event = TamperEvent { pc, reason };
        self.tamper_log.push(event.clone());
        // Recover to a clean state so non-halting mode can continue.
        self.collecting = None;
        self.hasher.reset();
        self.spacing = 0;
        self.config.halt_on_tamper.then_some(event)
    }

    /// Compares the embedded signature against the stream hash once a
    /// guard's symbols (and tail words) have all been observed.
    fn finish_check(&mut self, pc: u32, col: &Collect) -> Option<TamperEvent> {
        let claimed = signature_from_symbols(&col.symbols);
        let computed = self.hasher.digest();
        if claimed != computed {
            self.emit(TraceEvent::GuardFail { site: col.site, pc });
            return self.trip(
                pc,
                format!(
                    "signature mismatch at site {:#010x}: stream hash {computed:#010x}, \
                     embedded signature {claimed:#010x}",
                    col.site
                ),
            );
        }
        self.emit(TraceEvent::GuardPass { site: col.site });
        self.checks_passed += 1;
        self.spacing = 0;
        self.hasher.reset();
        None
    }

    /// Advances an in-progress guard collection by one committed word.
    fn advance_collect(&mut self, mut col: Collect, pc: u32, word: u32) -> Option<TamperEvent> {
        col.next_pc = pc.wrapping_add(4);
        if (col.symbols.len() as u32) < col.total {
            // Symbol phase: guard words carry the signature and are NOT
            // hashed themselves — so their shape must be validated, or an
            // attacker could mutate the non-symbol fields freely.
            if !crate::guard::is_guard_form(word) {
                let site = col.site;
                self.emit(TraceEvent::GuardFail { site, pc });
                return self.trip(
                    pc,
                    format!("malformed guard instruction at site {site:#010x}"),
                );
            }
            col.symbols.push(decode_guard_symbol(word));
        } else {
            // Tail phase: post-guard words (the terminator) are hashed.
            self.hasher.absorb(pc, word);
            col.tail_remaining -= 1;
        }
        if col.symbols.len() as u32 == col.total && col.tail_remaining == 0 {
            self.finish_check(pc, &col)
        } else {
            self.collecting = Some(col);
            None
        }
    }

    fn observe(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        if let Some(col) = self.collecting.take() {
            if !sequential || pc != col.next_pc {
                self.emit(TraceEvent::GuardFail { site: col.site, pc });
                return self.trip(
                    pc,
                    format!(
                        "guard sequence at {:#010x} interrupted (expected {:#010x})",
                        col.site, col.next_pc
                    ),
                );
            }
            return self.advance_collect(col, pc, word);
        }

        if !sequential {
            self.hasher.reset();
            if self.config.reset_points.contains(&pc) {
                self.spacing = 0;
            }
            if self.config.window_starts.contains(&pc) {
                self.emit(TraceEvent::WindowOpen { pc });
            }
        } else if self.config.window_starts.contains(&pc) {
            self.hasher.reset();
            self.emit(TraceEvent::WindowOpen { pc });
        }
        if let Some(site) = self.config.sites.get(&pc).copied() {
            self.emit(TraceEvent::WindowClose { site: pc });
            let col = Collect {
                site: pc,
                symbols: Vec::with_capacity(site.symbols as usize),
                total: site.symbols,
                tail_remaining: site.tail,
                next_pc: pc,
            };
            return self.advance_collect(col, pc, word);
        }

        self.hasher.absorb(pc, word);
        if let Some(bound) = self.config.spacing_bound {
            if self.config.in_protected(pc) {
                self.spacing += 1;
                self.emit(TraceEvent::SpacingTick {
                    pc,
                    count: self.spacing,
                });
                if self.spacing > bound {
                    self.emit(TraceEvent::SpacingExceeded { pc, bound });
                    return self.trip(
                        pc,
                        format!("guard spacing bound {bound} exceeded in protected region"),
                    );
                }
            }
        }
        None
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

    fn same_transform(&self, other: &Self) -> bool {
        // The fetch transform is the region table and nothing else.
        self.config.regions == other.config.regions
    }

    fn fill_penalty(&mut self, line_addr: u32, line_words: u32) -> u64 {
        let encrypted = self
            .config
            .regions
            .encrypted_words_in_line(line_addr, line_words);
        let cycles = self.config.decrypt.fill_penalty(encrypted);
        if encrypted > 0 {
            self.emit(TraceEvent::Decrypt {
                line_addr,
                encrypted_words: encrypted,
                cycles,
            });
        }
        cycles
    }

    fn observe_commit(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        self.observe(pc, word, sequential)
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

    fn feed(mon: &mut SecMon, stream: &[(u32, u32, bool)]) -> Option<TamperEvent> {
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
        assert!(event.reason.contains("signature mismatch"), "{event}");
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
        assert!(event.reason.contains("signature mismatch"), "{event}");
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
        assert!(event.reason.contains("interrupted"), "{event}");
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
        mon.observe_commit(BASE - 4, 0x7777_7777, false);
        assert_eq!(feed(&mut mon, &stream), None);
        assert_eq!(mon.checks_passed(), 1);
    }

    #[test]
    fn sink_observes_window_and_check_events() {
        let (config, stream) = guarded_stream(&[0x1111_2222, 0x3333_4444, 0x5555_6666]);
        let (sink, recorder) = flexprot_trace::Recorder::new().shared();
        let mut mon = SecMon::new(config);
        mon.attach_sink(sink);
        assert_eq!(feed(&mut mon, &stream), None);
        let recorder = recorder.borrow();
        let m = recorder.metrics();
        assert_eq!(m.counter("guard_windows_opened"), 1);
        assert_eq!(m.counter("guard_windows_closed"), 1);
        assert_eq!(m.counter("guard_checks_passed"), mon.checks_passed());
        assert_eq!(m.counter("guard_checks_failed"), 0);
        assert!(recorder.first_failure().is_none());
    }

    #[test]
    fn sink_attributes_guard_failure() {
        let (config, mut stream) = guarded_stream(&[0x1111_2222, 0x3333_4444]);
        stream[0].1 ^= 1 << 9;
        let (sink, recorder) = flexprot_trace::Recorder::new().shared();
        let mut mon = SecMon::new(config);
        mon.attach_sink(sink);
        assert!(feed(&mut mon, &stream).is_some());
        let recorder = recorder.borrow();
        assert_eq!(recorder.metrics().counter("guard_checks_failed"), 1);
        assert!(matches!(
            recorder.first_failure(),
            Some(flexprot_trace::TraceEvent::GuardFail { .. })
        ));
    }

    #[test]
    fn sink_observes_decrypt_work() {
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
        let (sink, recorder) = flexprot_trace::Recorder::new().shared();
        let mut mon = SecMon::new(config);
        mon.attach_sink(sink);
        let charged = mon.fill_penalty(BASE, 8);
        assert_eq!(mon.fill_penalty(BASE + 32, 8), 0);
        let recorder = recorder.borrow();
        let m = recorder.metrics();
        assert_eq!(m.counter("decrypt_fills"), 1);
        assert_eq!(m.counter("decrypted_words"), 8);
        assert_eq!(m.counter("decrypt_unit_cycles"), charged);
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
        let mut tripped = None;
        for i in 0..20u32 {
            tripped = mon.observe_commit(BASE + 4 * i, 0x0000_0000, i != 0);
            if tripped.is_some() {
                break;
            }
        }
        let event = tripped.expect("spacing bound must trip");
        assert!(event.reason.contains("spacing"), "{event}");
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

    fn feed(mon: &mut SecMon, stream: &[(u32, u32, bool)]) -> Option<TamperEvent> {
        for &(pc, word, seq) in stream {
            if let Some(e) = mon.observe_commit(pc, word, seq) {
                return Some(e);
            }
        }
        None
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
        assert!(event.reason.contains("signature mismatch"), "{event}");
    }

    #[test]
    fn jump_away_before_tail_is_interrupted() {
        let (config, stream) = tailed_stream(&[0x1111, 0x2222], 0x1440_FFFE);
        let mut cut = stream[..stream.len() - 1].to_vec();
        cut.push((BASE + 0x200, 0, false));
        let mut mon = SecMon::new(config);
        let event = feed(&mut mon, &cut).expect("skipping the tail must be caught");
        assert!(event.reason.contains("interrupted"), "{event}");
    }
}
