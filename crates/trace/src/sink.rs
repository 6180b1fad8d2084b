//! The event sink trait, the shared sink handle, and the standard
//! [`Recorder`] that aggregates events into a [`Metrics`] registry.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use crate::event::TraceEvent;
use crate::metrics::Metrics;

/// Anything that consumes trace events.
///
/// Producers hold an `Option<SharedSink>`; with `None` the only cost on
/// the hot path is one branch, and nothing is allocated.
pub trait EventSink {
    /// Receives one event.
    fn event(&mut self, event: &TraceEvent);
}

/// A cloneable handle to one shared sink.
///
/// The simulator, the monitor and the toolchain all hold clones of the
/// same handle, so one run's events land in one place. The caller keeps
/// its own `Rc` to the concrete sink (see [`Recorder::shared`]) to read
/// results after the run.
#[derive(Clone)]
pub struct SharedSink(Rc<RefCell<dyn EventSink>>);

impl SharedSink {
    /// Wraps an already-shared sink.
    pub fn new(sink: Rc<RefCell<dyn EventSink>>) -> Self {
        SharedSink(sink)
    }

    /// Delivers one event to the sink.
    pub fn emit(&self, event: &TraceEvent) {
        self.0.borrow_mut().event(event);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink")
    }
}

/// The standard aggregating sink: counts every event into named metrics
/// and optionally keeps the raw JSONL lines.
///
/// Counter names are part of the stable surface (tests and CI assert on
/// them): `icache_accesses`, `icache_misses`, `miss_fill_cycles`,
/// `decrypt_stall_cycles`, `decrypt_fills`, `decrypted_words`,
/// `decrypt_unit_cycles`, `dcache_accesses`, `dcache_misses`,
/// `dcache_writebacks`, `instructions_committed`, `guard_windows_opened`,
/// `guard_windows_closed`, `guard_checks_passed`, `guard_checks_failed`,
/// `guard_sites_passed`, `spacing_ticks`, `spacing_exceeded`,
/// `guard_sites_inserted`, `watermark_emissions`, `watermark_bytes`,
/// and the `sim_*` reconciliation set from [`TraceEvent::RunEnd`].
/// Histogram names: `icache_fill_cycles`, `decrypt_stall_cycles`.
#[derive(Debug, Default)]
pub struct Recorder {
    metrics: Metrics,
    sites_passed: BTreeSet<u32>,
    trace: Option<Vec<String>>,
}

impl Recorder {
    /// A recorder that aggregates metrics only.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder that additionally keeps every event as a JSONL line.
    pub fn with_trace() -> Self {
        Recorder {
            trace: Some(Vec::new()),
            ..Recorder::default()
        }
    }

    /// Moves the recorder behind a shared handle.
    ///
    /// Returns the [`SharedSink`] to attach to producers plus the `Rc`
    /// through which the caller reads the recorder after the run.
    pub fn shared(self) -> (SharedSink, Rc<RefCell<Recorder>>) {
        let shared = Rc::new(RefCell::new(self));
        (SharedSink::new(shared.clone()), shared)
    }

    /// The aggregated metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of *distinct* guard sites that passed at least once.
    pub fn distinct_sites_passed(&self) -> usize {
        self.sites_passed.len()
    }

    /// Captured JSONL lines (empty unless built [`Recorder::with_trace`]).
    pub fn trace_lines(&self) -> &[String] {
        self.trace.as_deref().unwrap_or(&[])
    }
}

impl EventSink for Recorder {
    fn event(&mut self, event: &TraceEvent) {
        if let Some(lines) = &mut self.trace {
            lines.push(event.to_jsonl());
        }
        let m = &mut self.metrics;
        match *event {
            TraceEvent::Fetch { hit, .. } => {
                m.incr("icache_accesses");
                if !hit {
                    m.incr("icache_misses");
                }
            }
            TraceEvent::IcacheFill {
                fill_cycles,
                decrypt_cycles,
                ..
            } => {
                m.add("miss_fill_cycles", fill_cycles);
                m.add("decrypt_stall_cycles", decrypt_cycles);
                m.observe("icache_fill_cycles", fill_cycles);
                if decrypt_cycles > 0 {
                    m.observe("decrypt_stall_cycles", decrypt_cycles);
                }
            }
            TraceEvent::Decrypt {
                encrypted_words,
                cycles,
                ..
            } => {
                m.incr("decrypt_fills");
                m.add("decrypted_words", u64::from(encrypted_words));
                m.add("decrypt_unit_cycles", cycles);
            }
            TraceEvent::DataAccess { hit, writeback, .. } => {
                m.incr("dcache_accesses");
                if !hit {
                    m.incr("dcache_misses");
                }
                if writeback {
                    m.incr("dcache_writebacks");
                }
            }
            TraceEvent::Commit { .. } => {
                m.incr("instructions_committed");
            }
            TraceEvent::WindowOpen { .. } => {
                m.incr("guard_windows_opened");
            }
            TraceEvent::WindowClose { .. } => {
                m.incr("guard_windows_closed");
            }
            TraceEvent::GuardPass { site } => {
                m.incr("guard_checks_passed");
                self.sites_passed.insert(site);
                let distinct = self.sites_passed.len() as u64;
                self.metrics.set("guard_sites_passed", distinct);
            }
            TraceEvent::GuardFail { .. } => {
                m.incr("guard_checks_failed");
            }
            TraceEvent::SpacingTick { .. } => {
                m.incr("spacing_ticks");
            }
            TraceEvent::SpacingExceeded { .. } => {
                m.incr("spacing_exceeded");
            }
            TraceEvent::GuardInsert { .. } => {
                m.incr("guard_sites_inserted");
            }
            TraceEvent::Watermark { bytes } => {
                m.incr("watermark_emissions");
                m.add("watermark_bytes", u64::from(bytes));
            }
            TraceEvent::RunEnd {
                cycles,
                instructions,
                icache_misses,
                dcache_misses,
                monitor_fill_cycles,
            } => {
                m.set("sim_cycles", cycles);
                m.set("sim_instructions", instructions);
                m.set("sim_icache_misses", icache_misses);
                m.set("sim_dcache_misses", dcache_misses);
                m.set("sim_monitor_fill_cycles", monitor_fill_cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(recorder: &mut Recorder, events: &[TraceEvent]) {
        for event in events {
            recorder.event(event);
        }
    }

    #[test]
    fn recorder_aggregates_fetch_and_fill() {
        let mut r = Recorder::new();
        drive(
            &mut r,
            &[
                TraceEvent::Fetch { pc: 0, hit: false },
                TraceEvent::IcacheFill {
                    line_addr: 0,
                    words: 8,
                    fill_cycles: 34,
                    decrypt_cycles: 16,
                },
                TraceEvent::Fetch { pc: 4, hit: true },
                TraceEvent::Commit { pc: 0 },
                TraceEvent::Commit { pc: 4 },
            ],
        );
        let m = r.metrics();
        assert_eq!(m.counter("icache_accesses"), 2);
        assert_eq!(m.counter("icache_misses"), 1);
        assert_eq!(m.counter("miss_fill_cycles"), 34);
        assert_eq!(m.counter("decrypt_stall_cycles"), 16);
        assert_eq!(m.counter("instructions_committed"), 2);
        assert_eq!(m.histogram("icache_fill_cycles").unwrap().count(), 1);
        assert_eq!(m.histogram("decrypt_stall_cycles").unwrap().sum(), 16);
    }

    #[test]
    fn guard_site_distinct_tracking() {
        let mut r = Recorder::new();
        drive(
            &mut r,
            &[
                TraceEvent::GuardPass { site: 0x100 },
                TraceEvent::GuardPass { site: 0x200 },
                TraceEvent::GuardPass { site: 0x100 },
            ],
        );
        assert_eq!(r.metrics().counter("guard_checks_passed"), 3);
        assert_eq!(r.metrics().counter("guard_sites_passed"), 2);
        assert_eq!(r.distinct_sites_passed(), 2);
    }

    #[test]
    fn trace_capture_renders_jsonl() {
        let mut r = Recorder::with_trace();
        drive(&mut r, &[TraceEvent::Watermark { bytes: 3 }]);
        assert_eq!(r.trace_lines().len(), 1);
        assert!(r.trace_lines()[0].contains("\"ev\":\"watermark\""));
        assert_eq!(r.metrics().counter("watermark_bytes"), 3);
    }

    #[test]
    fn shared_handle_feeds_the_same_recorder() {
        let (sink, shared) = Recorder::new().shared();
        let clone = sink.clone();
        sink.emit(&TraceEvent::Commit { pc: 0 });
        clone.emit(&TraceEvent::Commit { pc: 4 });
        assert_eq!(
            shared.borrow().metrics().counter("instructions_committed"),
            2
        );
    }
}
