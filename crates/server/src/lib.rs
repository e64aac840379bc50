//! `tilefused`: the optimizer as a supervised, long-lived service.
//!
//! The batch pipeline (`tilefuse_core::optimize`) already degrades
//! gracefully under resource pressure — the governor trips, the ladder
//! falls a rung, the caller still gets a correct plan. This crate wraps
//! that pipeline in the *operational* half of robustness: a persistent
//! daemon on a unix socket whose worker pool is supervised, so that no
//! single request — however adversarial — can take the service down or
//! wedge a worker forever.
//!
//! The moving parts, one module each:
//!
//! * [`protocol`] — length-prefixed JSON frames, request parsing, and the
//!   typed response vocabulary (`ok` / `error` / `overloaded` /
//!   `quarantined`), plus the [`protocol::SupervisionReport`] that
//!   accounts for every attempt of every job.
//! * [`daemon`] — the accept loop, the bounded admission queue with
//!   EWMA-predictive load shedding, and deadline propagation from
//!   admission through dequeue to mid-attempt revocation.
//! * [`supervisor`] — one optimize attempt per job under a
//!   [`tilefuse_trace::CancelToken`] that carries the job deadline (the
//!   worker observes it at its next governor checkpoint, mid-phase); every
//!   other budget trip is absorbed by `optimize`'s own ladder. A panicked
//!   attempt gets one retry at the ladder's floor, and a second panic
//!   means quarantine with worker recycling.
//! * [`quarantine`] — crash artifacts on disk (shrinkable fuzz repro
//!   format) plus the structural-hash fast-reject set.
//! * [`cache`] — the plan cache keyed by [`hash::plan_key`]; schedules
//!   are parametric in the problem size, so all size-variants of one
//!   pipeline share a single entry.
//!
//! The chaos soak (`tilefuse-fuzz --serve`) drives a live daemon with
//! thousands of random pipelines under probabilistic fault injection and
//! asserts the contract this crate exists to keep: the daemon never
//! crashes, every request gets exactly one typed response, and
//! quarantined inputs reproduce their crash deterministically offline.

pub mod cache;
pub mod daemon;
pub mod error;
pub mod hash;
pub mod protocol;
pub mod quarantine;
pub mod supervisor;

pub use cache::PlanCache;
pub use daemon::{Daemon, DaemonConfig};
pub use error::ServerError;
pub use hash::{plan_key, program_hash};
pub use protocol::{
    read_frame, write_frame, AttemptOutcome, AttemptRecord, CacheOutcome, OptimizeRequest, Request,
    SupervisionReport, MAX_FRAME,
};
pub use quarantine::Quarantine;
pub use supervisor::{JobVerdict, Supervisor};
