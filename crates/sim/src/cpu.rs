//! The top-level [`Machine`]: configuration, lifecycle and the commit loop.
//!
//! The core is layered across three modules (the fetch/decode/execute
//! split):
//!
//! * `fetch` — the fetch path: I-cache lookup, miss timing, the
//!   monitor's fill-path transform, and instruction delivery from either
//!   engine;
//! * `decode_cache` — the decoded-line store, one entry per text line,
//!   that eliminates per-step `Inst::decode`;
//! * `exec` — the execute stage: ALU/memory/branch semantics,
//!   syscalls and D-cache timing.
//!
//! This module owns what ties them together: the machine state, the
//! per-commit loop with the `observe_commit` guard hook, its watched copy
//! that pauses at chosen text words (`crate::watch`), and reset/rearm
//! lifecycle.

use flexprot_isa::{Image, Reg, STACK_TOP};
use flexprot_trace::{Metrics, SharedSink, TraceEvent};

use crate::cache::{Cache, CacheConfig};
use crate::decode_cache::DecodeCache;
use crate::exec::Step;
use crate::mem::Memory;
use crate::monitor::{FetchMonitor, NullMonitor, TamperEvent};
use crate::stats::{Fault, Stats};
use crate::watch::TextWatch;

/// Which fetch/decode engine drives the simulation.
///
/// Both engines produce bit-identical [`RunResult`]s (outcome, stats and
/// output); they differ only in wall-clock speed. The reference engine is
/// kept for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Decrypt at I-cache fill, execute from the decoded-line store.
    #[default]
    Predecoded,
    /// Re-read memory, re-transform and re-decode on every fetch — the
    /// original interpreter, the semantic baseline.
    Reference,
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "predecoded" => Ok(EngineKind::Predecoded),
            "reference" => Ok(EngineKind::Reference),
            other => Err(format!(
                "unknown engine '{other}' (expected 'predecoded' or 'reference')"
            )),
        }
    }
}

/// Simulator parameters: cache geometries, latencies and limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Cycles for the first word of a memory access (miss latency).
    pub mem_latency: u64,
    /// Cycles per additional word of a burst fill.
    pub burst_word_cycles: u64,
    /// Extra cycles for `mul`.
    pub mul_extra: u64,
    /// Extra cycles for `div`/`rem`.
    pub div_extra: u64,
    /// Instruction budget; exceeding it yields [`Outcome::OutOfFuel`].
    pub max_instructions: u64,
    /// Fetch/decode engine selection (timing-neutral).
    pub engine: EngineKind,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            icache: CacheConfig::default_icache(),
            dcache: CacheConfig::default_dcache(),
            mem_latency: 20,
            burst_word_cycles: 2,
            mul_extra: 3,
            div_extra: 15,
            max_instructions: 200_000_000,
            engine: EngineKind::default(),
        }
    }
}

impl SimConfig {
    /// Returns a copy driven by the given engine.
    pub fn with_engine(mut self, engine: EngineKind) -> SimConfig {
        self.engine = engine;
        self
    }

    /// Memory cycles of one I-cache line fill: the miss latency plus the
    /// burst of the line's remaining words, before any monitor penalty.
    pub fn icache_fill_cycles(&self) -> u64 {
        let line_words = u64::from(self.icache.line_words());
        self.mem_latency + self.burst_word_cycles * (line_words - 1)
    }
}

/// How a simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program called the exit syscall with this code.
    Exit(i32),
    /// The secure monitor raised a tamper event.
    TamperDetected(TamperEvent),
    /// Execution faulted.
    Fault(Fault),
    /// The instruction budget was exhausted.
    OutOfFuel,
}

/// Everything a finished simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How execution ended.
    pub outcome: Outcome,
    /// Performance counters.
    pub stats: Stats,
    /// Captured console output.
    pub output: String,
}

/// A complete simulated system: CPU, caches, memory and a fetch monitor.
///
/// The monitor type parameter defaults to [`NullMonitor`] (no protection
/// hardware). The secure monitor from `flexprot-secmon` implements
/// [`FetchMonitor`] and slots in here.
#[derive(Debug, Clone)]
pub struct Machine<M: FetchMonitor = NullMonitor> {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) prev_pc: Option<u32>,
    pub(crate) mem: Memory,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) decode: DecodeCache,
    pub(crate) stats: Stats,
    pub(crate) output: String,
    pub(crate) config: SimConfig,
    pub(crate) monitor: M,
    pub(crate) text_base: u32,
    pub(crate) text_end: u32,
    pub(crate) sink: Option<SharedSink>,
}

impl Machine<NullMonitor> {
    /// Builds an unprotected machine loaded with `image`.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry in `config` is invalid.
    pub fn new(image: &Image, config: SimConfig) -> Machine<NullMonitor> {
        Machine::with_monitor(image, config, NullMonitor)
    }
}

impl<M: FetchMonitor> Machine<M> {
    /// Builds a machine with the given fetch-path monitor attached.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry in `config` is invalid.
    pub fn with_monitor(image: &Image, config: SimConfig, mut monitor: M) -> Machine<M> {
        let mut regs = [0u32; 32];
        regs[Reg::SP.index() as usize] = STACK_TOP;
        regs[Reg::FP.index() as usize] = STACK_TOP;
        let icache = Cache::new(config.icache);
        let mut decode = DecodeCache::new(config.icache.line_bytes);
        decode.bind(image.text_base, image.text_end());
        monitor.bind_text(image.text_base, image.text_end());
        Machine {
            regs,
            pc: image.entry,
            prev_pc: None,
            mem: Memory::load(image),
            icache,
            dcache: Cache::new(config.dcache),
            decode,
            stats: Stats::default(),
            output: String::new(),
            config,
            monitor,
            text_base: image.text_base,
            text_end: image.text_end(),
            sink: None,
        }
    }

    /// Attaches an observability sink; every fetch, cache fill, data
    /// access and commit is reported to it, plus a final
    /// [`TraceEvent::RunEnd`] carrying the [`Stats`] totals. With no sink
    /// attached (the default) the hot path pays one branch and timing is
    /// unchanged. A sink is for tracing only: [`Machine::metrics`] needs
    /// none.
    pub fn attach_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// The `flexprot-metrics-v1` registry of the run so far, built from
    /// [`Stats`] and the monitor's own counters
    /// ([`FetchMonitor::export_metrics`]). An event counter appears once
    /// its event has happened; the first I-cache miss adds
    /// `miss_fill_cycles`, `decrypt_stall_cycles` (zero without
    /// encryption) and the `icache_fill_cycles` histogram; the `sim_*`
    /// totals are always present.
    pub fn metrics(&self) -> Metrics {
        let stats = &self.stats;
        let mut m = Metrics::new();
        m.tally("icache_accesses", stats.icache_accesses);
        m.tally("icache_misses", stats.icache_misses);
        m.tally("dcache_accesses", stats.dcache_accesses);
        m.tally("dcache_misses", stats.dcache_misses);
        m.tally("dcache_writebacks", stats.dcache_writebacks);
        m.tally("instructions_committed", stats.instructions);
        if stats.icache_misses > 0 {
            let fill = self.config.icache_fill_cycles();
            m.add("miss_fill_cycles", fill * stats.icache_misses);
            m.add("decrypt_stall_cycles", stats.monitor_fill_cycles);
            m.observe_n("icache_fill_cycles", fill, stats.icache_misses);
        }
        m.set("sim_cycles", stats.cycles);
        m.set("sim_instructions", stats.instructions);
        m.set("sim_icache_misses", stats.icache_misses);
        m.set("sim_dcache_misses", stats.dcache_misses);
        m.set("sim_monitor_fill_cycles", stats.monitor_fill_cycles);
        self.monitor.export_metrics(&mut m);
        m
    }

    /// Read access to the monitor (e.g. to inspect verification counters).
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// Mutable access to the monitor (e.g. to attach an observability sink
    /// after [`Machine::rearm`]).
    pub fn monitor_mut(&mut self) -> &mut M {
        &mut self.monitor
    }

    /// Re-arms the machine to run `image` from scratch under a fresh
    /// monitor, reusing the cache and memory allocations of the previous
    /// run instead of reallocating.
    ///
    /// Registers, pc, memory, caches, stats, captured output and the
    /// observability sink are all restored to their just-constructed
    /// state, and the decoded-line store and the new monitor are bound to
    /// the image's text segment ([`FetchMonitor::bind_text`]), so a
    /// re-armed machine produces byte-identical results to a fresh
    /// [`Machine::with_monitor`] under the same config.
    ///
    /// When the new monitor has the same fetch transform as the previous
    /// one ([`FetchMonitor::same_transform`]) and the text segment keeps
    /// its bounds, the decoded-line store is *retained*: each retained
    /// line is revalidated against raw memory at its next I-cache fill, so
    /// re-running an image that differs in only a few lines (the attack
    /// harness's tamper trials) re-decrypts and re-decodes only those
    /// lines. A different transform (re-keying, different encryption
    /// regions) clears the store, because identical ciphertext bytes would
    /// otherwise replay a stale decrypt. Either way results are
    /// byte-identical to a fresh machine: the I-cache itself is fully
    /// reset, so miss patterns and timing do not change.
    pub fn rearm(&mut self, image: &Image, monitor: M) {
        if self.monitor.same_transform(&monitor) {
            self.decode.retain();
        } else {
            self.decode.clear();
        }
        self.monitor = monitor;
        self.regs = [0; 32];
        self.regs[Reg::SP.index() as usize] = STACK_TOP;
        self.regs[Reg::FP.index() as usize] = STACK_TOP;
        self.pc = image.entry;
        self.prev_pc = None;
        self.mem.reset(image);
        self.icache.reset();
        self.dcache.reset();
        self.stats = Stats::default();
        self.output.clear();
        self.text_base = image.text_base;
        self.text_end = image.text_end();
        self.decode.bind(self.text_base, self.text_end);
        self.monitor.bind_text(self.text_base, self.text_end);
        self.sink = None;
    }

    /// Runs until exit, fault, tamper detection or fuel exhaustion.
    pub fn run(&mut self) -> RunResult {
        let outcome = self
            .run_inner::<false>(None)
            .expect("an unwatched run never pauses");
        self.finish(outcome)
    }

    /// Runs like [`Machine::run`], but pauses just before the first fetch
    /// of each text word `watch` arms, and records in `watch` every armed
    /// word a load, a store or a print-string syscall touches before that
    /// fetch ([`TextWatch::take_touched`]).
    ///
    /// A pause disarms its word and leaves the machine as it was before
    /// that fetch, so cloning it there and patching the clone
    /// ([`Machine::poke_text`]) forks the run of a patched build; calling
    /// `run_watched` again resumes. The watch is checked in a copy of the
    /// commit loop of its own: [`Machine::run`] does not pay for it.
    pub fn run_watched(&mut self, watch: &mut TextWatch) -> Watched {
        match self.run_inner::<true>(Some(watch)) {
            Some(outcome) => Watched::End(self.finish(outcome)),
            None => Watched::Fetch(self.pc),
        }
    }

    /// Writes `word` over text word `index` as a store to text would: into
    /// memory, dropping the decoded line that holds it. No cycle is charged
    /// and no cache line moves, so the next fetch of the word reads the new
    /// word at the timing of the old one.
    ///
    /// # Panics
    ///
    /// Panics if `index` lies past the text segment.
    pub fn poke_text(&mut self, index: usize, word: u32) {
        let words = ((self.text_end - self.text_base) / 4) as usize;
        assert!(index < words, "text word {index} of {words}");
        let addr = self.text_base + 4 * index as u32;
        self.mem.write_u32(addr, word);
        self.decode.invalidate(addr);
    }

    fn finish(&mut self, outcome: Outcome) -> RunResult {
        if matches!(outcome, Outcome::TamperDetected(_)) {
            // Tamper response: drop decoded plaintext so a re-keyed or
            // re-provisioned monitor never executes stale decodes.
            self.decode.clear();
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::RunEnd {
                cycles: self.stats.cycles,
                instructions: self.stats.instructions,
                icache_misses: self.stats.icache_misses,
                dcache_misses: self.stats.dcache_misses,
                monitor_fill_cycles: self.stats.monitor_fill_cycles,
            });
        }
        RunResult {
            outcome,
            stats: self.stats,
            output: self.output.clone(),
        }
    }

    /// The commit loop. `WATCH` compiles the checks of `watch` in: `None`
    /// is a pause before fetching an armed word, which only a watched loop
    /// returns.
    fn run_inner<const WATCH: bool>(
        &mut self,
        mut watch: Option<&mut TextWatch>,
    ) -> Option<Outcome> {
        loop {
            if self.stats.instructions >= self.config.max_instructions {
                return Some(Outcome::OutOfFuel);
            }
            let pc = self.pc;
            if !pc.is_multiple_of(4) || pc < self.text_base || pc >= self.text_end {
                return Some(Outcome::Fault(Fault::WildPc { pc }));
            }
            if WATCH && watch.as_mut().is_some_and(|watch| watch.fetch(pc)) {
                return None;
            }

            // --- fetch + decode (crate::fetch) ---
            let (inst, word) = match self.fetch_decode(pc) {
                Ok(fetched) => fetched,
                Err(outcome) => return Some(outcome),
            };

            // --- commit observation (guard verification) ---
            let sequential = self.prev_pc == Some(pc.wrapping_sub(4));
            if let Some(event) = self.monitor.observe_commit(pc, word, sequential) {
                return Some(Outcome::TamperDetected(event));
            }
            self.stats.instructions += 1;
            if let Some(sink) = &self.sink {
                sink.emit(&TraceEvent::Commit { pc });
            }
            self.prev_pc = Some(pc);

            // --- execute (crate::exec) ---
            if WATCH {
                if let (Some(watch), Some((addr, len))) = (watch.as_mut(), self.data_span(inst)) {
                    watch.touch(addr, len);
                }
            }
            match self.execute(pc, inst) {
                Step::Next => self.pc = pc.wrapping_add(4),
                Step::Goto(target) => {
                    self.stats.taken_transfers += 1;
                    self.pc = target;
                }
                Step::Stop(outcome) => return Some(outcome),
            }
        }
    }
}

/// Where a [`Machine::run_watched`] call stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Watched {
    /// Just before the first fetch of the armed text word at this address.
    Fetch(u32),
    /// The run ended.
    End(RunResult),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::monitor::TamperCause;

    /// An in-memory trace writer the test reads back after the run.
    #[derive(Clone, Default)]
    struct Buffer(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for Buffer {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run(src: &str) -> RunResult {
        let image = flexprot_asm::assemble_or_panic(src);
        Machine::new(&image, SimConfig::default()).run()
    }

    #[test]
    fn arithmetic_and_print() {
        let r = run(r#"
main:   li  $t0, 21
        li  $t1, 2
        mul $a0, $t0, $t1
        li  $v0, 1
        syscall
        li  $v0, 10
        syscall
"#);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "42");
    }

    #[test]
    fn rearm_run_is_byte_identical_to_fresh_run() {
        // Rearm retains decoded lines; with an identity transform it must
        // still match a fresh machine exactly, whether the image changed
        // (content revalidation re-decodes mutated lines) or not, and
        // whatever the previous run left in registers, stack and caches.
        let a = flexprot_asm::assemble_or_panic(
            "main: li $a0, 7\n li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
        );
        let b = flexprot_asm::assemble_or_panic(
            "main: li $a0, 9\n li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
        );
        let sum = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 0
        li   $t1, 50
loop:   addu $t0, $t0, $t1
        addi $t1, $t1, -1
        bgtz $t1, loop
        addi $sp, $sp, -4
        sw   $t0, 0($sp)
        lw   $a0, 0($sp)
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
        );
        let fresh_a = Machine::new(&a, SimConfig::default()).run();
        let fresh_b = Machine::new(&b, SimConfig::default()).run();
        let fresh_sum = Machine::new(&sum, SimConfig::default()).run();
        let mut machine = Machine::new(&a, SimConfig::default());
        machine.run();
        machine.rearm(&b, NullMonitor);
        assert_eq!(machine.run(), fresh_b);
        machine.rearm(&a, NullMonitor);
        assert_eq!(machine.run(), fresh_a);
        // Rearm onto the same unchanged image: pure revalidation path.
        machine.rearm(&a, NullMonitor);
        assert_eq!(machine.run(), fresh_a);
        // A run that writes the stack, twice (a D-cache or memory left
        // warm would change its stats), then one that must not see it.
        for _ in 0..2 {
            machine.rearm(&sum, NullMonitor);
            assert_eq!(machine.run(), fresh_sum);
        }
        machine.rearm(&a, NullMonitor);
        assert_eq!(machine.run(), fresh_a);
    }

    #[test]
    fn engines_agree_including_stats() {
        let programs = [
            "main: li $a0, 7\n li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
            r#"
main:   li   $t0, 0
        li   $t1, 200
loop:   addu $t0, $t0, $t1
        addi $t1, $t1, -1
        bgtz $t1, loop
        move $a0, $t0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#,
            // Faulting program: illegal-fault parity (word reported too).
            "main: li $t0, 0x10010001\n lw $t1, 0($t0)\n",
        ];
        for src in programs {
            let image = flexprot_asm::assemble_or_panic(src);
            let reference = Machine::new(
                &image,
                SimConfig::default().with_engine(EngineKind::Reference),
            )
            .run();
            let predecoded = Machine::new(
                &image,
                SimConfig::default().with_engine(EngineKind::Predecoded),
            )
            .run();
            assert_eq!(predecoded, reference);
        }
    }

    #[test]
    fn store_to_text_invalidates_decoded_line() {
        // The program copies the instruction at `src` over the one at
        // `dst` before executing it; both engines must see the patched
        // instruction ("222"), not the stale decode ("111").
        let src = r#"
main:   la   $t0, patch
        la   $t1, dst
        lw   $t2, 0($t0)
        sw   $t2, 0($t1)
dst:    li   $a0, 111
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
patch:  li   $a0, 222
"#;
        let image = flexprot_asm::assemble_or_panic(src);
        for engine in [EngineKind::Reference, EngineKind::Predecoded] {
            let r = Machine::new(&image, SimConfig::default().with_engine(engine)).run();
            assert_eq!(r.outcome, Outcome::Exit(0), "{engine:?}");
            assert_eq!(r.output, "222", "{engine:?}");
        }
    }

    #[test]
    fn a_run_forked_at_a_watched_fetch_matches_the_patched_run() {
        // Patch the loop body and the exit code: the fork from each pause,
        // patched like a store to text, must equal a fresh patched run.
        let src = r#"
main:   li   $t0, 0
        li   $t1, 20
loop:   addu $t0, $t0, $t1
        addi $t1, $t1, -1
        bgtz $t1, loop
        move $a0, $t0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#;
        let image = flexprot_asm::assemble_or_panic(src);
        let loop_word = ((image.symbols["loop"] - image.text_base) / 4) as usize;
        let patches = [
            (loop_word + 1, image.text[loop_word + 1] ^ 1), // addi step -2
            (image.text.len() - 2, image.text[image.text.len() - 2] + 7), // exit service 17
        ];
        for engine in [EngineKind::Predecoded, EngineKind::Reference] {
            let config = SimConfig::default().with_engine(engine);
            let mut pristine = Machine::new(&image, config.clone());
            let mut watch = TextWatch::new(image.text_base, image.text.len());
            for &(index, _) in &patches {
                watch.arm(index);
            }
            let mut pauses = Vec::new();
            let end = loop {
                match pristine.run_watched(&mut watch) {
                    Watched::End(result) => break result,
                    Watched::Fetch(pc) => pauses.push(pc),
                }
                let index = ((pristine.pc - image.text_base) / 4) as usize;
                let &(_, word) = patches.iter().find(|(i, _)| *i == index).unwrap();
                let mut fork = pristine.clone();
                fork.poke_text(index, word);
                let mut patched = image.clone();
                patched.text[index] = word;
                let fresh = Machine::new(&patched, config.clone()).run();
                assert_eq!(fork.run(), fresh, "{engine:?}: patch at word {index}");
            };
            let at = |index: usize| image.text_base + 4 * index as u32;
            assert_eq!(pauses, [at(patches[0].0), at(patches[1].0)], "{engine:?}");
            assert_eq!(end, Machine::new(&image, config).run(), "{engine:?}");
            assert!(watch.take_touched().is_empty());
        }
    }

    #[test]
    fn a_watched_run_records_armed_words_that_data_touches_first() {
        let src = r#"
main:   la   $t0, word
        lw   $t1, 0($t0)
        li   $v0, 10
        syscall
word:   nop
"#;
        let image = flexprot_asm::assemble_or_panic(src);
        let index = ((image.symbols["word"] - image.text_base) / 4) as usize;
        let mut machine = Machine::new(&image, SimConfig::default());
        let mut watch = TextWatch::new(image.text_base, image.text.len());
        watch.arm(index);
        let Watched::End(result) = machine.run_watched(&mut watch) else {
            panic!("the word is loaded, never fetched");
        };
        assert_eq!(result.outcome, Outcome::Exit(0));
        assert_eq!(watch.take_touched(), [index]);
    }

    #[test]
    fn engine_kind_parses_from_str() {
        assert_eq!("predecoded".parse(), Ok(EngineKind::Predecoded));
        assert_eq!("reference".parse(), Ok(EngineKind::Reference));
        assert!("fast".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::default(), EngineKind::Predecoded);
    }

    #[test]
    fn exit_code_propagates() {
        let r = run("main: li $a0, 3\n li $v0, 17\n syscall\n");
        assert_eq!(r.outcome, Outcome::Exit(3));
    }

    #[test]
    fn loop_sums_to_n() {
        let r = run(r#"
main:   li   $t0, 0          # sum
        li   $t1, 1          # i
        li   $t2, 100        # n
loop:   bgt  $t1, $t2, done
        addu $t0, $t0, $t1
        addi $t1, $t1, 1
        b    loop
done:   move $a0, $t0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "5050");
    }

    #[test]
    fn memory_and_stack() {
        let r = run(r#"
        .data
arr:    .word 5, 6, 7
        .text
main:   la   $t0, arr
        lw   $t1, 4($t0)      # 6
        addi $sp, $sp, -4
        sw   $t1, 0($sp)
        lw   $a0, 0($sp)
        addi $sp, $sp, 4
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#);
        assert_eq!(r.output, "6");
    }

    #[test]
    fn function_call_and_return() {
        let r = run(r#"
main:   li   $a0, 5
        jal  double
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
double: addu $v0, $a0, $a0
        jr   $ra
"#);
        assert_eq!(r.output, "10");
    }

    #[test]
    fn recursion_factorial() {
        let r = run(r#"
main:   li   $a0, 6
        jal  fact
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
fact:   addi $sp, $sp, -8
        sw   $ra, 4($sp)
        sw   $a0, 0($sp)
        li   $v0, 1
        blez $a0, fact_done
        addi $a0, $a0, -1
        jal  fact
        lw   $a0, 0($sp)
        mul  $v0, $v0, $a0
fact_done:
        lw   $ra, 4($sp)
        addi $sp, $sp, 8
        jr   $ra
"#);
        assert_eq!(r.output, "720");
    }

    #[test]
    fn print_services() {
        let r = run(r#"
        .data
msg:    .asciiz "x="
        .text
main:   la  $a0, msg
        li  $v0, 4
        syscall
        li  $a0, -7
        li  $v0, 1
        syscall
        li  $a0, '\n'
        li  $v0, 11
        syscall
        li  $a0, 0xFF
        li  $v0, 34
        syscall
        li  $v0, 10
        syscall
"#);
        assert_eq!(r.output, "x=-7\n000000ff");
    }

    #[test]
    fn signed_ops() {
        let r = run(r#"
main:   li   $t0, -8
        li   $t1, 3
        div  $t2, $t0, $t1    # -2
        rem  $t3, $t0, $t1    # -2
        addu $a0, $t2, $t3    # -4
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#);
        assert_eq!(r.output, "-4");
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let r = run(r#"
main:   li  $t0, 9
        div $a0, $t0, $zero
        li  $v0, 1
        syscall
        li  $v0, 10
        syscall
"#);
        assert_eq!(r.output, "0");
    }

    #[test]
    fn zero_register_ignores_writes() {
        let r = run(r#"
main:   li   $t0, 5
        addu $zero, $t0, $t0
        move $a0, $zero
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#);
        assert_eq!(r.output, "0");
    }

    #[test]
    fn illegal_instruction_faults() {
        // `jr $ra` with ra=0 leaves text -> WildPc.
        let r = run("main: jr $ra\n");
        assert!(matches!(r.outcome, Outcome::Fault(Fault::WildPc { .. })));
    }

    #[test]
    fn break_faults() {
        let r = run("main: break\n");
        assert!(matches!(r.outcome, Outcome::Fault(Fault::Break { .. })));
    }

    #[test]
    fn unaligned_word_access_faults() {
        let r = run("main: li $t0, 0x10010001\n lw $t1, 0($t0)\n");
        assert!(matches!(r.outcome, Outcome::Fault(Fault::Unaligned { .. })));
    }

    #[test]
    fn bad_syscall_faults() {
        let r = run("main: li $v0, 99\n syscall\n");
        assert!(matches!(
            r.outcome,
            Outcome::Fault(Fault::BadSyscall { service: 99, .. })
        ));
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let image = flexprot_asm::assemble_or_panic("main: b main\n");
        let config = SimConfig {
            max_instructions: 1000,
            ..SimConfig::default()
        };
        let r = Machine::new(&image, config).run();
        assert_eq!(r.outcome, Outcome::OutOfFuel);
        assert_eq!(r.stats.instructions, 1000);
    }

    #[test]
    fn stats_count_instructions_and_caches() {
        let r = run("main: li $v0, 10\n li $a0, 0\n syscall\n");
        assert_eq!(r.stats.instructions, 3);
        assert_eq!(r.stats.icache_accesses, 3);
        // All three words share one line: exactly one cold miss.
        assert_eq!(r.stats.icache_misses, 1);
        assert!(r.stats.cycles > 3);
    }

    #[test]
    fn monitor_transform_and_penalty_are_applied() {
        #[derive(Debug)]
        struct XorMonitor {
            key: u32,
            fills: u32,
        }
        impl FetchMonitor for XorMonitor {
            fn transform_fetch(&mut self, _addr: u32, word: u32) -> u32 {
                word ^ self.key
            }
            fn fill_penalty(&mut self, _line_addr: u32, _line_words: u32) -> u64 {
                self.fills += 1;
                7
            }
        }

        let mut image = flexprot_asm::assemble_or_panic(
            "main: li $a0, 9\n li $v0, 1\n syscall\n li $v0, 10\n li $a0, 0\n syscall\n",
        );
        let key = 0x5A5A_5A5A;
        for word in &mut image.text {
            *word ^= key;
        }
        let monitor = XorMonitor { key, fills: 0 };
        let mut machine = Machine::with_monitor(&image, SimConfig::default(), monitor);
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "9");
        assert_eq!(machine.monitor().fills, 1);
        assert_eq!(r.stats.monitor_fill_cycles, 7);
    }

    #[test]
    fn monitor_tamper_event_aborts() {
        #[derive(Debug)]
        struct TripAtThird(u32);
        impl FetchMonitor for TripAtThird {
            fn observe_commit(&mut self, pc: u32, _w: u32, _seq: bool) -> Option<TamperEvent> {
                self.0 += 1;
                (self.0 == 3).then_some(TamperEvent {
                    pc,
                    cause: TamperCause::SpacingBound { bound: 2 },
                })
            }
        }
        let image =
            flexprot_asm::assemble_or_panic("main: nop\n nop\n nop\n nop\n li $v0, 10\n syscall\n");
        let r = Machine::with_monitor(&image, SimConfig::default(), TripAtThird(0)).run();
        match r.outcome {
            Outcome::TamperDetected(event) => {
                assert_eq!(event.pc, image.entry + 8);
                // Two instructions committed before the third was blocked.
                assert_eq!(r.stats.instructions, 2);
            }
            other => panic!("expected tamper, got {other:?}"),
        }
    }

    #[test]
    fn sequential_flag_tracks_control_flow() {
        #[derive(Debug, Default)]
        struct SeqLog(Vec<bool>);
        impl FetchMonitor for SeqLog {
            fn observe_commit(&mut self, _pc: u32, _w: u32, seq: bool) -> Option<TamperEvent> {
                self.0.push(seq);
                None
            }
        }
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   b   skip
        nop
skip:   nop
        li  $v0, 10
        li  $a0, 0
        syscall
"#,
        );
        let mut machine = Machine::with_monitor(&image, SimConfig::default(), SeqLog::default());
        let r = machine.run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        // entry: not sequential; skip: reached by taken branch -> not
        // sequential; the rest sequential.
        assert_eq!(machine.monitor().0, vec![false, false, true, true, true]);
    }

    #[test]
    fn metrics_come_from_stats_and_a_sink_perturbs_nothing() {
        let image = flexprot_asm::assemble_or_panic(
            r#"
        .data
arr:    .word 1, 2, 3, 4
        .text
main:   li   $t0, 4
        la   $t1, arr
        li   $a0, 0
loop:   lw   $t2, 0($t1)
        addu $a0, $a0, $t2
        addi $t1, $t1, 4
        addi $t0, $t0, -1
        bgtz $t0, loop
        sw   $a0, 0($t1)
        li   $v0, 1
        syscall
        li   $v0, 10
        li   $a0, 0
        syscall
"#,
        );
        let mut machine = Machine::new(&image, SimConfig::default());
        let baseline = machine.run();
        let m = machine.metrics();

        let buffer = Buffer::default();
        let (sink, recorder) = flexprot_trace::Recorder::with_writer(buffer.clone()).shared();
        let mut traced = Machine::new(&image, SimConfig::default());
        traced.attach_sink(sink);
        // Attaching a sink must not perturb timing, behaviour or metrics.
        assert_eq!(traced.run(), baseline);
        assert_eq!(traced.metrics(), m);

        let stats = &baseline.stats;
        assert_eq!(m.counter("icache_accesses"), stats.icache_accesses);
        assert_eq!(m.counter("icache_misses"), stats.icache_misses);
        assert_eq!(m.counter("dcache_accesses"), stats.dcache_accesses);
        assert_eq!(m.counter("dcache_misses"), stats.dcache_misses);
        assert_eq!(m.counter("instructions_committed"), stats.instructions);
        assert_eq!(m.counter("sim_cycles"), stats.cycles);
        assert_eq!(m.counter("sim_icache_misses"), stats.icache_misses);
        let fills = m.histogram("icache_fill_cycles").unwrap();
        assert_eq!(fills.count(), stats.icache_misses);
        assert_eq!(fills.sum(), m.counter("miss_fill_cycles"));
        // No writeback happened, so its counter is absent, not zero.
        assert!(m.counters().all(|(name, _)| name != "dcache_writebacks"));

        // The trace carries one event per fetch and per commit.
        recorder.borrow_mut().finish().unwrap();
        let trace = String::from_utf8(buffer.0.take()).unwrap();
        let count = |kind: &str| {
            let tag = format!("\"ev\":\"{kind}\"");
            trace.lines().filter(|line| line.contains(&tag)).count() as u64
        };
        assert_eq!(count("fetch"), stats.icache_accesses);
        assert_eq!(count("commit"), stats.instructions);
        assert_eq!(count("data_access"), stats.dcache_accesses);
    }

    #[test]
    fn larger_icache_reduces_misses() {
        let src = r#"
main:   li   $t0, 200
loop:   jal  far
        addi $t0, $t0, -1
        bgtz $t0, loop
        li   $v0, 10
        li   $a0, 0
        syscall
far:    jr   $ra
"#;
        let image = flexprot_asm::assemble_or_panic(src);
        let small = SimConfig {
            icache: CacheConfig {
                size_bytes: 64,
                line_bytes: 16,
                ways: 1,
            },
            ..SimConfig::default()
        };
        let big = SimConfig::default();
        let r_small = Machine::new(&image, small).run();
        let r_big = Machine::new(&image, big).run();
        assert_eq!(r_small.outcome, Outcome::Exit(0));
        assert!(r_small.stats.icache_misses >= r_big.stats.icache_misses);
        assert!(r_small.stats.cycles >= r_big.stats.cycles);
    }
}
