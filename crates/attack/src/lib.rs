//! Tamper-attack models and the detection-coverage harness.
//!
//! The attacker in the MATE threat model holds the shipped binary — after
//! protection, so possibly ciphertext — but not the keys or the monitor
//! schedule. Each [`Attack`] is a family of binary mutations; the
//! [`harness`] applies many randomized trials and classifies how each run
//! ends:
//!
//! * **detected** — the secure monitor raised a tamper event;
//! * **faulted** — the mutation crashed execution (illegal instruction,
//!   wild pc, …), which deployed systems also treat as a tamper signal;
//! * **wrong output** — the program ran to completion with corrupted
//!   semantics and nothing noticed: the attacker wins;
//! * **benign** — output unchanged (the mutation hit dead code or was
//!   semantically neutral);
//! * **timeout** — the fuel limit expired (e.g. a mutated loop bound).
//!
//! Experiment T3 builds its coverage matrix from these summaries.

pub mod analysis;
pub mod attacks;
pub mod crosscheck;
pub mod harness;
pub mod oracle;

pub use attacks::Attack;
pub use crosscheck::{classify, cross_check, Agreement, CrossCheckSummary};
pub use harness::{
    evaluate, evaluate_random_nop, evaluate_targeted, static_detects, AttackSummary,
    DetectionCause, TrialOutcome,
};
pub use oracle::StaticOracle;
