//! The fetch-path monitor interface — where the secure hardware plugs in.
//!
//! The FPGA of the codesign architecture sits between the processor and
//! instruction memory and additionally snoops the committed instruction
//! stream (a trace-port connection). [`FetchMonitor`] captures exactly those
//! two observation points:
//!
//! * [`FetchMonitor::transform_fetch`] — the functional view: every
//!   instruction word passes through the monitor on its way from memory to
//!   the pipeline, giving the hardware the chance to decrypt it;
//! * [`FetchMonitor::fill_penalty`] — the timing view: decryption hardware
//!   latency is charged when the I-cache fills a line;
//! * [`FetchMonitor::observe_commit`] — the verification view: the monitor
//!   sees each retired instruction (post-decrypt) and may raise a tamper
//!   event;
//! * [`FetchMonitor::export_metrics`] — the accounting view: the monitor
//!   reports the counters it keeps into the run's metrics registry.

use std::fmt;

use flexprot_trace::Metrics;

/// Raised by a monitor when it detects tampering; aborts simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperEvent {
    /// Program counter of the instruction that triggered detection.
    pub pc: u32,
    /// Why the monitor tripped.
    pub cause: TamperCause,
}

impl fmt::Display for TamperEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tamper detected at {:#010x}: {}", self.pc, self.cause)
    }
}

/// The check a monitor failed, as decided by the monitor itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperCause {
    /// The stream hash of a guard's window disagrees with the signature
    /// the guard embeds.
    SignatureMismatch {
        site: u32,
        computed: u32,
        claimed: u32,
    },
    /// A word in a guard's symbol sequence is not a guard instruction.
    MalformedGuard { site: u32 },
    /// Control left a guard sequence before it completed; `expected` is
    /// the pc that should have come next.
    InterruptedGuard { site: u32, expected: u32 },
    /// More than `bound` protected instructions committed since the last
    /// passing check (guard stripping).
    SpacingBound { bound: u64 },
}

impl fmt::Display for TamperCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TamperCause::SignatureMismatch {
                site,
                computed,
                claimed,
            } => write!(
                f,
                "signature mismatch at site {site:#010x}: stream hash {computed:#010x}, \
                 embedded signature {claimed:#010x}"
            ),
            TamperCause::MalformedGuard { site } => {
                write!(f, "malformed guard instruction at site {site:#010x}")
            }
            TamperCause::InterruptedGuard { site, expected } => write!(
                f,
                "guard sequence at {site:#010x} interrupted (expected {expected:#010x})"
            ),
            TamperCause::SpacingBound { bound } => {
                write!(
                    f,
                    "guard spacing bound {bound} exceeded in protected region"
                )
            }
        }
    }
}

/// Hardware model attached to the instruction fetch path.
///
/// Implementations must be deterministic: the differential tests and the
/// attack harness re-run the same image and expect identical behaviour.
///
/// [`FetchMonitor::transform_fetch`] must additionally be a *pure function
/// of `(addr, word)`*: the predecoded engine decrypts whole lines at
/// I-cache fill time (via [`FetchMonitor::transform_fill`]) and caches the
/// result, so a transform may be invoked once per line fill instead of once
/// per fetch, for words the pipeline never executes, and again when an
/// invalidated line is functionally refilled. Per-call side effects in the
/// transform would diverge between the reference and predecoded engines.
/// Stateful accounting belongs in [`FetchMonitor::fill_penalty`] (timing)
/// and [`FetchMonitor::observe_commit`] (verification), which keep their
/// exact reference-path call discipline.
pub trait FetchMonitor {
    /// Transforms a fetched instruction word (e.g. decrypts it).
    ///
    /// Called functionally with the word as stored in memory — on every
    /// fetch by the reference engine, per filled word by the default
    /// [`FetchMonitor::transform_fill`]. The default is the identity.
    fn transform_fetch(&mut self, addr: u32, word: u32) -> u32 {
        let _ = addr;
        word
    }

    /// Transforms a whole line of fetched words in place at I-cache fill.
    ///
    /// `words[i]` holds the memory contents of `line_addr + 4 * i`. The
    /// default applies [`FetchMonitor::transform_fetch`] word by word;
    /// line-granularity hardware (a burst decryption unit) can override it
    /// to process the line in one pass. Overrides must stay functionally
    /// identical to the per-word default.
    fn transform_fill(&mut self, line_addr: u32, words: &mut [u32]) {
        for (i, word) in words.iter_mut().enumerate() {
            *word = self.transform_fetch(line_addr + 4 * i as u32, *word);
        }
    }

    /// Extra cycles charged when the I-cache fills the line at `line_addr`.
    ///
    /// This is where decryption-unit latency appears. The default is free.
    fn fill_penalty(&mut self, line_addr: u32, line_words: u32) -> u64 {
        let _ = (line_addr, line_words);
        0
    }

    /// Tells the monitor the bounds `[text_base, text_end)` of the text
    /// segment it guards. The machine calls this once, when it is built
    /// (or re-armed, which builds it afresh) with the monitor, before the
    /// first commit; every pc it then passes to
    /// [`FetchMonitor::observe_commit`] lies inside these bounds. A
    /// monitor can compile per-address state into a table over them. The
    /// default ignores the bounds.
    ///
    /// `observe_commit` is defined only for pcs inside the bound text: a
    /// monitor may treat any other pc as carrying no per-address state.
    fn bind_text(&mut self, text_base: u32, text_end: u32) {
        let _ = (text_base, text_end);
    }

    /// Observes one committed instruction.
    ///
    /// `word` is the post-transform (plaintext) instruction word.
    /// `sequential` is true when `pc` directly followed the previously
    /// committed instruction (no taken control transfer in between).
    ///
    /// Returning `Some` aborts execution with
    /// [`Outcome::TamperDetected`](crate::Outcome::TamperDetected).
    fn observe_commit(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        let _ = (pc, word, sequential);
        None
    }

    /// Adds the monitor's own run counters to `metrics` at run end
    /// ([`Machine::metrics`](crate::Machine::metrics)). The default adds
    /// nothing.
    fn export_metrics(&self, metrics: &mut Metrics) {
        let _ = metrics;
    }
}

/// A monitor that does nothing — the unprotected baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMonitor;

impl FetchMonitor for NullMonitor {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_monitor_is_transparent() {
        let mut m = NullMonitor;
        assert_eq!(m.transform_fetch(0x400000, 0xABCD), 0xABCD);
        assert_eq!(m.fill_penalty(0x400000, 8), 0);
        assert_eq!(m.observe_commit(0x400000, 0, true), None);
    }

    #[test]
    fn tamper_event_display() {
        let e = TamperEvent {
            pc: 0x0040_0010,
            cause: TamperCause::MalformedGuard { site: 0x0040_0008 },
        };
        assert_eq!(
            e.to_string(),
            "tamper detected at 0x00400010: malformed guard instruction at site 0x00400008"
        );
    }
}
