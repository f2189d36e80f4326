//! # mcsim-core — the multiprocessor machine
//!
//! Ties N out-of-order cores ([`mcsim_proc::Processor`]) to the coherent
//! memory system ([`mcsim_mem::MemorySystem`]) under a deterministic cycle
//! loop, and provides everything an experiment needs around them:
//!
//! * [`machine`] — [`Machine`] and [`MachineConfig`]: build, pre-load
//!   memory/caches, run to completion, get a [`RunReport`].
//! * [`event`] — [`EventQueue`], the calendar/bucket wake-up queue that
//!   drives the default discrete-event engine.
//! * [`report`] — serializable run results: cycle counts, per-core and
//!   memory statistics, final register files, event traces.
//! * [`oracle`] — re-export of `mcsim-oracle`, the per-model execution
//!   enumerator: the complete set of allowed final states under each
//!   consistency model (SC membership is the paper's §4.2 correctness
//!   statement; the conformance tests check every model against it).
//! * [`harness`] — experiment helpers: run a model × technique matrix
//!   (`mcsim-sweep`'s `table` module renders it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod harness;
pub mod machine;
pub mod report;
pub mod trace;

pub use mcsim_oracle as oracle;

pub use event::EventQueue;
pub use harness::{conformance_config, run_matrix, CellFailure, MatrixRow};
pub use machine::{Engine, Machine, MachineConfig, RunTelemetry};
pub use mcsim_guard::{
    FaultKind, GuardConfig, InvariantKind, SimError, SimErrorKind, StallClass, StallReport,
};
pub use mcsim_oracle::{sc_outcomes, OracleConfig, Outcome};
pub use report::RunReport;
pub use trace::{render_breakdown, render_timeline};
