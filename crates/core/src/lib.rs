//! Flexible software protection via hardware/software codesign — the
//! software (toolchain) half.
//!
//! This crate implements the protection passes that the DATE-2004 approach
//! runs over compiled binaries, producing both a hardened binary and the
//! configuration for the FPGA secure monitor (`flexprot-secmon`):
//!
//! * [`mod@cfg`] — control-flow-graph recovery from program images;
//! * [`profile`] — baseline execution profiles (the codesign feedback loop);
//! * [`place`] — guard placement policies (uniform / random / coldest-first
//!   / loop-headers);
//! * [`guards`] — register-guard insertion: binary rewriting with full
//!   relocation fix-up, window signing, spacing-bound derivation;
//! * [`encrypt`] — instruction-stream encryption at program / function /
//!   block keying granularity;
//! * [`mod@estimate`] — static overhead prediction from profiles;
//! * [`mod@optimize`] — the profile-guided budget optimizer that makes the
//!   protection *flexible*: per-function protection levels chosen to fit an
//!   overhead budget;
//! * [`pipeline`] — the end-to-end [`protect`] entry point.
//!
//! # Example
//!
//! ```
//! use flexprot_core::{protect, GuardConfig, ProtectionConfig};
//! use flexprot_sim::{Outcome, SimConfig};
//!
//! let image = flexprot_asm::assemble(r#"
//! main:   li   $t0, 3
//!         mul  $a0, $t0, $t0
//!         li   $v0, 1
//!         syscall
//!         li   $v0, 10
//!         syscall
//! "#)?;
//! let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
//! let protected = protect(&image, &config, None)?;
//! let result = protected.run(SimConfig::default());
//! assert_eq!(result.outcome, Outcome::Exit(0));
//! assert_eq!(result.output, "9");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cfg;
pub mod encrypt;
pub mod error;
pub mod estimate;
pub mod guards;
pub mod optimize;
pub mod pipeline;
pub mod place;
pub mod profile;
pub mod watermark;

pub use cfg::{Block, Cfg, Function, Terminator};
pub use encrypt::{encrypt_text, EncryptConfig, EncryptOutcome, Granularity, DEFAULT_ENC_KEY};
pub use error::ProtectError;
pub use estimate::{estimate, OverheadEstimate};
pub use guards::{
    insert_guards, select_guard_blocks, GuardConfig, GuardOutcome, Selection, DEFAULT_GUARD_KEY,
};
pub use optimize::{optimize, FunctionPlan, OptimizerConfig, Plan};
pub use pipeline::{protect, ProtectReport, Protected, ProtectionConfig};
pub use place::Placement;
pub use profile::Profile;
