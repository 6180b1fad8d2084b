//! The shared sink handle and the [`Recorder`] that streams events as
//! JSONL lines to a writer.

use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;

use crate::event::TraceEvent;
use crate::json::JsonWriter;

/// A cloneable handle to one shared [`Recorder`].
///
/// Producers hold an `Option<SharedSink>`; with `None` the only cost on
/// the hot path is one branch, and nothing is allocated. The simulator and
/// the monitor hold clones of the same handle, so one run's events land
/// in one stream. The caller keeps its own `Rc` (see [`Recorder::shared`])
/// to [`finish`](Recorder::finish) the stream after the run.
#[derive(Clone)]
pub struct SharedSink(Rc<RefCell<Recorder>>);

impl SharedSink {
    /// Delivers one event to the recorder.
    pub fn emit(&self, event: &TraceEvent) {
        self.0.borrow_mut().event(event);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink")
    }
}

/// The trace sink: renders each event as one JSONL line and writes it as
/// the event arrives, the body of `fprun --trace`. The line is rendered
/// into one buffer the recorder clears and reuses, so a trace of any
/// length costs two buffers and no allocation per event.
///
/// A run's [`Metrics`](crate::Metrics) do not come from here: the
/// simulator and the monitor keep their own counters, and
/// `flexprot_sim::Machine::metrics` builds the document from them. A
/// recorder built with [`Recorder::new`] has no writer and renders
/// nothing, so attaching one costs the emission path and no more.
///
/// Writing never panics: the first write error is kept, later events are
/// dropped, and [`Recorder::finish`] reports the error.
#[derive(Default)]
pub struct Recorder {
    out: Option<Box<dyn Write>>,
    error: Option<io::Error>,
    /// The line being written, cleared and reused for every event.
    line: String,
}

impl Recorder {
    /// A recorder that receives events and renders none of them.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder that writes every event to `out` as a JSONL line.
    pub fn with_writer(out: impl Write + 'static) -> Self {
        Recorder {
            out: Some(Box::new(out)),
            ..Recorder::default()
        }
    }

    /// Moves the recorder behind a shared handle.
    ///
    /// Returns the [`SharedSink`] to attach to producers plus the `Rc`
    /// through which the caller finishes the recorder after the run.
    pub fn shared(self) -> (SharedSink, Rc<RefCell<Recorder>>) {
        let shared = Rc::new(RefCell::new(self));
        (SharedSink(shared.clone()), shared)
    }

    /// Flushes the writer.
    ///
    /// # Errors
    ///
    /// The first error any write or the flush returned.
    pub fn finish(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.as_mut().map_or(Ok(()), |out| out.flush()),
        }
    }

    fn event(&mut self, event: &TraceEvent) {
        if let Some(out) = &mut self.out {
            self.line.clear();
            event.write_json(&mut JsonWriter::new(&mut self.line));
            self.line.push('\n');
            if let Err(e) = out.write_all(self.line.as_bytes()) {
                self.error = Some(e);
                self.out = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory writer the test can read after the recorder owns it.
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

    /// Accepts `left` writes, then fails every one.
    struct Failing {
        left: usize,
        calls: Rc<RefCell<usize>>,
    }

    impl Write for Failing {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            *self.calls.borrow_mut() += 1;
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.left -= 1;
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_stream_as_jsonl_lines() {
        let buffer = Buffer::default();
        let (sink, recorder) = Recorder::with_writer(buffer.clone()).shared();
        let clone = sink.clone();
        sink.emit(&TraceEvent::Commit { pc: 0x0040_0000 });
        clone.emit(&TraceEvent::Commit { pc: 4 });
        recorder.borrow_mut().finish().unwrap();
        assert_eq!(
            String::from_utf8(buffer.0.take()).unwrap(),
            "{\"ev\":\"commit\",\"pc\":\"0x00400000\"}\n{\"ev\":\"commit\",\"pc\":\"0x00000004\"}\n"
        );
        let (quiet, recorder) = Recorder::new().shared();
        quiet.emit(&TraceEvent::Commit { pc: 0 });
        recorder.borrow_mut().finish().unwrap();
    }

    #[test]
    fn a_write_error_stops_the_stream_and_surfaces_at_finish() {
        let calls = Rc::new(RefCell::new(0));
        let failing = Failing {
            left: 1,
            calls: calls.clone(),
        };
        let (sink, recorder) = Recorder::with_writer(failing).shared();
        for pc in 0..4 {
            sink.emit(&TraceEvent::Commit { pc });
        }
        // The first line is written, the second fails, and no write is
        // attempted after that.
        assert_eq!(*calls.borrow(), 2);
        let err = recorder.borrow_mut().finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
