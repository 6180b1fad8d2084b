//! The fetch path: I-cache lookup, miss timing, fill-path decryption and
//! instruction delivery.
//!
//! Two engines share one timing model ([`EngineKind`]):
//!
//! * **Predecoded** — the monitor's transform runs once per I-cache line
//!   *fill* (via [`FetchMonitor::transform_fill`]), mirroring hardware
//!   that decrypts on the memory side of the cache; decoded instructions
//!   are served from the [`crate::decode_cache`] entry of the text line.
//! * **Reference** — the original interpreter: re-read memory, re-apply
//!   [`FetchMonitor::transform_fetch`] and re-run `Inst::decode` on every
//!   fetch. Kept as the semantic baseline for differential testing.
//!
//! Every counter update, trace event and monitor timing call
//! (`fill_penalty`) is shared between the engines, which is what keeps
//! [`crate::Stats`] bit-identical across them.

use flexprot_isa::Inst;
use flexprot_trace::TraceEvent;

use crate::cpu::{EngineKind, Machine, Outcome};
use crate::monitor::FetchMonitor;
use crate::stats::Fault;

impl<M: FetchMonitor> Machine<M> {
    /// Fetches and decodes the instruction at `pc`, charging fetch-path
    /// timing. Returns the decoded instruction and its plaintext word, or
    /// the outcome that aborts the run.
    pub(crate) fn fetch_decode(&mut self, pc: u32) -> Result<(Inst, u32), Outcome> {
        self.stats.cycles += 1;
        self.stats.icache_accesses += 1;
        let access = self.icache.access(pc, false);
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::Fetch {
                pc,
                hit: access.hit,
            });
        }
        if !access.hit {
            self.stats.icache_misses += 1;
            let line_words = u64::from(self.config.icache.line_words());
            let fill = self.config.mem_latency + self.config.burst_word_cycles * (line_words - 1);
            self.stats.cycles += fill;
            let penalty = self
                .monitor
                .fill_penalty(access.line_addr, line_words as u32);
            self.stats.monitor_fill_cycles += penalty;
            self.stats.cycles += penalty;
            if let Some(sink) = &self.sink {
                sink.emit(&TraceEvent::IcacheFill {
                    line_addr: access.line_addr,
                    words: line_words as u32,
                    fill_cycles: fill,
                    decrypt_cycles: penalty,
                });
            }
            if self.config.profile {
                *self.stats.imiss_counts.entry(access.line_addr).or_insert(0) += 1;
            }
            if self.config.engine == EngineKind::Predecoded {
                self.decode
                    .fill(access.line_addr, &self.mem, &mut self.monitor);
            }
        }
        match self.config.engine {
            EngineKind::Predecoded => {
                let (inst, word) = match self.decode.lookup(pc) {
                    Some(entry) => entry,
                    None => {
                        // I-cache hit on a line whose decode was dropped
                        // (store to text). Functional refill: no timing —
                        // the reference engine charges nothing here either.
                        self.decode
                            .fill(access.line_addr, &self.mem, &mut self.monitor);
                        self.decode.lookup(pc).expect("line was just filled")
                    }
                };
                match inst {
                    Some(inst) => Ok((inst, word)),
                    None => Err(Outcome::Fault(Fault::IllegalInstruction { pc, word })),
                }
            }
            EngineKind::Reference => {
                let raw = self.mem.read_u32(pc);
                let word = self.monitor.transform_fetch(pc, raw);
                match Inst::decode(word) {
                    Ok(inst) => Ok((inst, word)),
                    Err(_) => Err(Outcome::Fault(Fault::IllegalInstruction { pc, word })),
                }
            }
        }
    }
}
