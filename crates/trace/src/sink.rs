//! The event sink trait, the shared sink handle, and the standard
//! [`Recorder`] that captures events as JSONL lines.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::TraceEvent;

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
/// The simulator and the monitor hold clones of the same handle, so one
/// run's events land in one place. The caller keeps its own `Rc` to the
/// concrete sink (see [`Recorder::shared`]) to read results after the run.
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

/// The standard sink: captures every event as one JSONL line, the body
/// of `fprun --trace`.
///
/// A run's [`Metrics`](crate::Metrics) do not come from here: the
/// simulator and the monitor keep their own counters, and
/// `flexprot_sim::Machine::metrics` builds the document from them. A
/// recorder built with [`Recorder::new`] keeps nothing, so attaching one
/// costs the emission path and no more.
#[derive(Debug, Default)]
pub struct Recorder {
    trace: Option<Vec<String>>,
}

impl Recorder {
    /// A recorder that receives events and keeps none of them.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder that keeps every event as a JSONL line.
    pub fn with_trace() -> Self {
        Recorder {
            trace: Some(Vec::new()),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_capture_renders_jsonl() {
        let mut r = Recorder::with_trace();
        r.event(&TraceEvent::Commit { pc: 0x0040_0000 });
        assert_eq!(
            r.trace_lines(),
            [r#"{"ev":"commit","pc":"0x00400000"}"#.to_owned()]
        );
        let mut quiet = Recorder::new();
        quiet.event(&TraceEvent::Commit { pc: 0 });
        assert!(quiet.trace_lines().is_empty());
    }

    #[test]
    fn shared_handle_feeds_the_same_recorder() {
        let (sink, shared) = Recorder::with_trace().shared();
        let clone = sink.clone();
        sink.emit(&TraceEvent::Commit { pc: 0 });
        clone.emit(&TraceEvent::Commit { pc: 4 });
        assert_eq!(shared.borrow().trace_lines().len(), 2);
    }
}
