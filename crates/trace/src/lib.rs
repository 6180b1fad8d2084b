//! Cycle-level observability for the flexprot workspace.
//!
//! The DATE-2004 protection model attributes runtime cost to three
//! mechanisms — guard checking, line-fill decryption and the I-cache miss
//! path — and this crate makes those mechanisms observable event by
//! event as well as in end-of-run aggregates. Three pieces:
//!
//! * [`TraceEvent`] — the taxonomy of observation points reported by the
//!   simulator ([`Fetch`](TraceEvent::Fetch),
//!   [`IcacheFill`](TraceEvent::IcacheFill),
//!   [`DataAccess`](TraceEvent::DataAccess),
//!   [`Commit`](TraceEvent::Commit), [`RunEnd`](TraceEvent::RunEnd)) and
//!   the secure monitor ([`WindowOpen`](TraceEvent::WindowOpen),
//!   [`WindowClose`](TraceEvent::WindowClose),
//!   [`GuardPass`](TraceEvent::GuardPass),
//!   [`GuardFail`](TraceEvent::GuardFail),
//!   [`SpacingTick`](TraceEvent::SpacingTick),
//!   [`SpacingExceeded`](TraceEvent::SpacingExceeded),
//!   [`Decrypt`](TraceEvent::Decrypt)).
//! * [`Recorder`] / [`SharedSink`] — the sink that streams every event
//!   as one JSONL line to a writer (`fprun --trace` hands it a buffered
//!   file, so a trace never accumulates in memory), and the cloneable
//!   handle producers hold. Producers store an `Option<SharedSink>`: with
//!   `None` (the default everywhere) the hot path pays one branch and
//!   allocates nothing, so timing results are bit-identical to an
//!   uninstrumented build.
//! * [`Metrics`] — a registry of named counters and log2-bucketed latency
//!   [`Histogram`]s. A run's registry is built at run end from the
//!   counters the simulator and the monitor keep for themselves
//!   (`flexprot_sim::Machine::metrics`), not from the event stream, so it
//!   needs no sink.
//!
//! Emission formats are plain JSON written by the in-crate
//! [`json::JsonWriter`] — the workspace builds offline, so no serde. It
//! is the workspace's one JSON writer: the verifier's documents go
//! through it too. The metrics document is tagged [`METRICS_SCHEMA`]
//! (`flexprot-metrics-v1`).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::TraceEvent;
pub use metrics::{Histogram, Metrics, METRICS_SCHEMA};
pub use sink::{Recorder, SharedSink};
