//! Application-level checkpoint/restart — the FTI substitute — plus a
//! BLCR-style whole-image checkpointer and the paper's §VI-B validation
//! harness.
//!
//! The paper validates AutoCheck by protecting the detected variables with
//! FTI (level L1, local checkpoints), killing the run mid-loop with
//! `raise(SIGTERM)`, restarting, and comparing outputs with a failure-free
//! execution; it then shows (Table IV) that checkpointing only the detected
//! variables costs orders of magnitude less storage than BLCR's
//! whole-process images. This crate rebuilds that experimental apparatus:
//!
//! * [`fti`] — a protect/checkpoint/recover library writing versioned,
//!   CRC-guarded, atomically-committed checkpoint files to a local
//!   directory (FTI's L1), with an optional duplicate directory (a stand-in
//!   for FTI's higher reliability levels);
//! * [`blcr`] — serialization of the interpreter's entire memory image,
//!   BLCR's "save everything" model, used for the Table IV comparison and
//!   as a second restart mechanism;
//! * [`driver`] — an interpreter hook implementing the paper's C/R
//!   insertion points: restore right before the main loop starts working,
//!   write one checkpoint per completed iteration;
//! * [`validate`] — the kill/restart/compare experiment, including the
//!   false-positive check (drop one protected variable and observe the
//!   restart diverge).

#![forbid(unsafe_code)]

pub mod blcr;
pub mod crc;
pub mod driver;
pub mod format;
pub mod fti;
pub mod validate;

pub use blcr::BlcrSim;
pub use driver::{CrDriver, DriverMode};
pub use fti::{Checkpoint, Fti, FtiConfig};
pub use validate::{validate_restart, CrSpec, ValidationOutcome};
