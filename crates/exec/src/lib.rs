//! Batched parallel execution of protection-evaluation grids.
//!
//! The evaluation is a grid of simulations — guard density × decrypt
//! latency × I-cache geometry × workload × attack — and every sweep used
//! to re-compile and re-protect identical (workload, config) pairs
//! serially. This crate turns the evaluate-many-configurations loop into
//! an engineered subsystem:
//!
//! * a [`Job`] describes one (workload, [`ProtectionConfig`],
//!   [`SimConfig`], attack) cell; a sweep is a plain list of jobs;
//! * an [`Engine`] runs jobs on a scoped-thread worker pool (std-only;
//!   `--jobs N` or `FLEXPROT_JOBS`), collecting results in *job order* so
//!   output is deterministic whatever the thread count;
//! * an [`ArtifactCache`] memoizes compiled images, profiled baselines and
//!   protected binaries behind keys naming every input, shared via `Arc`
//!   across every cell that needs them;
//! * each run's [`Metrics`] (built by the simulator and monitor from
//!   their own counters) merge into one aggregate document (commutative
//!   counter/histogram merges), so the aggregate too is independent of
//!   scheduling;
//! * [`matrix`] defines the golden protection matrix (programs × cells)
//!   that the matrix sweeps, acceptance tests and CI baselines share;
//! * a [`Table`] is the one result-grid format: every driver writes its
//!   CSV files and aligned text through it.
//!
//! # Example
//!
//! ```
//! use flexprot_exec::{Engine, Job, ProtectionConfig};
//!
//! let engine = Engine::new(2);
//! let rle = flexprot_workloads::by_name("rle").expect("known kernel");
//! let jobs = [Job::new(rle, ProtectionConfig::new())];
//! let cells = engine.run_jobs(&jobs, |ctx, job| ctx.run_cell(job).run.stats.cycles);
//! assert_eq!(cells.len(), 1);
//! assert!(engine.metrics().counter("exec_jobs_completed") >= 1);
//! ```

mod cache;
mod engine;
pub mod matrix;
mod sweep;
mod table;

pub use cache::{ArtifactCache, Baseline, CacheStats};
pub use engine::{default_jobs, Engine, JobCtx};
pub use sweep::{AttackSpec, CellResult, Job};
pub use table::Table;

// Re-exported so engine users can build jobs without extra imports.
pub use flexprot_core::ProtectionConfig;
pub use flexprot_sim::SimConfig;
pub use flexprot_trace::Metrics;
