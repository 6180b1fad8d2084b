//! The event taxonomy every instrumented component reports through.
//!
//! Each variant is one observation point of the codesign architecture:
//! the fetch path and caches (from `flexprot-sim`), the secure monitor's
//! guard machinery and decryption unit (from `flexprot-secmon`). Events
//! are small `Copy` values so the enabled path stays cheap and the
//! disabled path (no sink attached) costs one branch.

use crate::json::JsonObject;

/// One observability event.
///
/// See the crate docs for the taxonomy; producers are named per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction fetch probed the I-cache (simulator; one per
    /// committed-or-blocked instruction).
    Fetch {
        /// Fetch address.
        pc: u32,
        /// Whether the I-cache hit.
        hit: bool,
    },
    /// An I-cache miss filled a line (simulator). `decrypt_cycles` is the
    /// monitor's fill penalty — the decryption-unit latency attribution —
    /// and `fill_cycles` the plain memory burst.
    IcacheFill {
        /// Line base address.
        line_addr: u32,
        /// Words per line.
        words: u32,
        /// Memory-path cycles (miss latency + burst).
        fill_cycles: u64,
        /// Monitor stall cycles charged on this fill (decryption hardware).
        decrypt_cycles: u64,
    },
    /// The monitor's decryption unit processed a line fill (secure
    /// monitor; functional attribution of *which* words were ciphertext).
    Decrypt {
        /// Line base address.
        line_addr: u32,
        /// Encrypted words in the line.
        encrypted_words: u32,
        /// Cycles the decryption unit charged.
        cycles: u64,
    },
    /// A load or store probed the D-cache (simulator).
    DataAccess {
        /// Effective address.
        addr: u32,
        /// Store (`true`) or load.
        write: bool,
        /// Whether the D-cache hit.
        hit: bool,
        /// Whether a dirty line was written back.
        writeback: bool,
    },
    /// An instruction committed (simulator; after the monitor cleared it).
    Commit {
        /// Committed pc.
        pc: u32,
    },
    /// A guard window opened: the stream hash reset at a registered
    /// window-start address (secure monitor).
    WindowOpen {
        /// The window-start pc.
        pc: u32,
    },
    /// A guard window closed: execution reached its guard site and the
    /// signature-collection phase began (secure monitor).
    WindowClose {
        /// First guard-word address.
        site: u32,
    },
    /// A guard signature check passed (secure monitor).
    GuardPass {
        /// Guard site address.
        site: u32,
    },
    /// A guard check failed: signature mismatch, malformed guard word or
    /// interrupted sequence (secure monitor).
    GuardFail {
        /// Guard site address.
        site: u32,
        /// The pc that tripped the failure.
        pc: u32,
    },
    /// The spacing counter ticked on a protected-region instruction
    /// (secure monitor).
    SpacingTick {
        /// The counted pc.
        pc: u32,
        /// Counter value after the tick.
        count: u64,
    },
    /// The spacing bound was exceeded — a guard-stripping symptom (secure
    /// monitor).
    SpacingExceeded {
        /// The pc at which the bound was exceeded.
        pc: u32,
        /// The provisioned bound.
        bound: u64,
    },
    /// The simulation finished; final counter values from `flexprot-sim`'s
    /// own `Stats`, so a trace carries the run's totals.
    RunEnd {
        /// Total simulated cycles.
        cycles: u64,
        /// Committed instructions.
        instructions: u64,
        /// I-cache misses.
        icache_misses: u64,
        /// D-cache misses.
        dcache_misses: u64,
        /// Monitor fill-penalty cycles.
        monitor_fill_cycles: u64,
    },
}

impl TraceEvent {
    /// Stable, machine-readable event-kind name (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::IcacheFill { .. } => "icache_fill",
            TraceEvent::Decrypt { .. } => "decrypt",
            TraceEvent::DataAccess { .. } => "data_access",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::WindowOpen { .. } => "window_open",
            TraceEvent::WindowClose { .. } => "window_close",
            TraceEvent::GuardPass { .. } => "guard_pass",
            TraceEvent::GuardFail { .. } => "guard_fail",
            TraceEvent::SpacingTick { .. } => "spacing_tick",
            TraceEvent::SpacingExceeded { .. } => "spacing_exceeded",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str("ev", self.kind());
        match *self {
            TraceEvent::Fetch { pc, hit } => {
                obj.hex("pc", pc).bool("hit", hit);
            }
            TraceEvent::IcacheFill {
                line_addr,
                words,
                fill_cycles,
                decrypt_cycles,
            } => {
                obj.hex("line", line_addr)
                    .num("words", u64::from(words))
                    .num("fill_cycles", fill_cycles)
                    .num("decrypt_cycles", decrypt_cycles);
            }
            TraceEvent::Decrypt {
                line_addr,
                encrypted_words,
                cycles,
            } => {
                obj.hex("line", line_addr)
                    .num("encrypted_words", u64::from(encrypted_words))
                    .num("cycles", cycles);
            }
            TraceEvent::DataAccess {
                addr,
                write,
                hit,
                writeback,
            } => {
                obj.hex("addr", addr)
                    .bool("write", write)
                    .bool("hit", hit)
                    .bool("writeback", writeback);
            }
            TraceEvent::Commit { pc } => {
                obj.hex("pc", pc);
            }
            TraceEvent::WindowOpen { pc } => {
                obj.hex("pc", pc);
            }
            TraceEvent::WindowClose { site } => {
                obj.hex("site", site);
            }
            TraceEvent::GuardPass { site } => {
                obj.hex("site", site);
            }
            TraceEvent::GuardFail { site, pc } => {
                obj.hex("site", site).hex("pc", pc);
            }
            TraceEvent::SpacingTick { pc, count } => {
                obj.hex("pc", pc).num("count", count);
            }
            TraceEvent::SpacingExceeded { pc, bound } => {
                obj.hex("pc", pc).num("bound", bound);
            }
            TraceEvent::RunEnd {
                cycles,
                instructions,
                icache_misses,
                dcache_misses,
                monitor_fill_cycles,
            } => {
                obj.num("cycles", cycles)
                    .num("instructions", instructions)
                    .num("icache_misses", icache_misses)
                    .num("dcache_misses", dcache_misses)
                    .num("monitor_fill_cycles", monitor_fill_cycles);
            }
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_stable() {
        let events = [
            TraceEvent::Fetch { pc: 0, hit: true },
            TraceEvent::IcacheFill {
                line_addr: 0,
                words: 8,
                fill_cycles: 34,
                decrypt_cycles: 0,
            },
            TraceEvent::Decrypt {
                line_addr: 0,
                encrypted_words: 8,
                cycles: 20,
            },
            TraceEvent::DataAccess {
                addr: 0,
                write: false,
                hit: true,
                writeback: false,
            },
            TraceEvent::Commit { pc: 0 },
            TraceEvent::WindowOpen { pc: 0 },
            TraceEvent::WindowClose { site: 0 },
            TraceEvent::GuardPass { site: 0 },
            TraceEvent::GuardFail { site: 0, pc: 0 },
            TraceEvent::SpacingTick { pc: 0, count: 1 },
            TraceEvent::SpacingExceeded { pc: 0, bound: 64 },
            TraceEvent::RunEnd {
                cycles: 1,
                instructions: 1,
                icache_misses: 0,
                dcache_misses: 0,
                monitor_fill_cycles: 0,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        let before = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), before, "duplicate event kind");
    }

    #[test]
    fn jsonl_lines_parse_and_carry_kind() {
        let event = TraceEvent::GuardFail {
            site: 0x0040_0010,
            pc: 0x0040_0014,
        };
        let line = event.to_jsonl();
        let value = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("ev").and_then(|v| v.as_str()), Some("guard_fail"));
        assert_eq!(
            value.get("site").and_then(|v| v.as_str()),
            Some("0x00400010")
        );
    }

    #[test]
    fn run_end_jsonl_has_numeric_counters() {
        let line = TraceEvent::RunEnd {
            cycles: 1234,
            instructions: 567,
            icache_misses: 8,
            dcache_misses: 9,
            monitor_fill_cycles: 20,
        }
        .to_jsonl();
        let value = crate::json::parse(&line).unwrap();
        assert_eq!(value.get("cycles").and_then(|v| v.as_u64()), Some(1234));
        assert_eq!(
            value.get("instructions").and_then(|v| v.as_u64()),
            Some(567)
        );
    }
}
