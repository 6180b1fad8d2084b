//! Cycle-approximate SP32 system simulator.
//!
//! This crate is the stand-in for the architectural simulator
//! (SimpleScalar-class) that the original evaluation used. It models:
//!
//! * an in-order CPU executing the SP32 ISA with a simple per-class latency
//!   model ([`cpu::Machine`]),
//! * parameterized set-associative write-back I- and D-caches
//!   ([`cache::Cache`]),
//! * a flat little-endian sparse memory ([`mem::Memory`]),
//! * console syscalls (print/exit) with captured output,
//! * a [`FetchMonitor`] hook on the fetch path, where the FPGA secure
//!   monitor from `flexprot-secmon` plugs in, and where `flexprot-core`
//!   attaches its profiler. The hook sees every committed instruction and
//!   every I-cache line fill, exactly like hardware placed between the
//!   processor and instruction memory.
//!
//! The timing model is deliberately simple — base CPI 1, extra latency for
//! multiply/divide, cache misses and monitor fill penalties — because the
//! protection-overhead experiments depend on *relative* cost (instruction
//! count inflation and I-cache miss-path latency), not absolute cycles.
//!
//! # Example
//!
//! ```
//! use flexprot_sim::{Machine, Outcome, SimConfig};
//!
//! let image = flexprot_asm::assemble(r#"
//! main:   li  $a0, 6
//!         li  $t0, 7
//!         mul $a0, $a0, $t0
//!         li  $v0, 1       # print_int
//!         syscall
//!         li  $v0, 10      # exit
//!         syscall
//! "#)?;
//! let result = Machine::new(&image, SimConfig::default()).run();
//! assert_eq!(result.outcome, Outcome::Exit(0));
//! assert_eq!(result.output, "42");
//! # Ok::<(), flexprot_asm::AsmError>(())
//! ```

pub mod cache;
pub mod cpu;
mod decode_cache;
mod exec;
mod fetch;
pub mod mem;
pub mod monitor;
pub mod stats;
mod watch;

pub use cache::{Cache, CacheConfig};
pub use cpu::{EngineKind, Machine, Outcome, RunResult, SimConfig, Watched};
pub use monitor::{FetchMonitor, NullMonitor, TamperCause, TamperEvent};
pub use stats::{Fault, Stats};
pub use watch::TextWatch;
