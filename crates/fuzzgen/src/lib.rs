//! Differential fuzzing for the tiling-then-fusion pipeline.
//!
//! This crate closes the loop on the optimizer's correctness story: a
//! seeded [generator](random_spec) draws random — but valid by
//! construction — affine producer/consumer programs (chains, diamonds,
//! shared intermediates, stencil/shifted/strided accesses, parametric
//! bounds), and a [differential oracle](run_oracle) pushes each through
//! the full pipeline (start-up fusion → live-out tiling → extension
//! schedules → Algorithm 2/3 grafting → interpretation), cross-checking
//! every result the repository can compute twice:
//!
//! * transformed vs. reference buffers, **bit-exactly**;
//! * the sequential interpreter vs. the bytecode VM and the tile-DAG
//!   pool at several thread counts, buffers and statistics;
//! * Scanner-enumerated instance counts vs. symbolic `count_points`;
//! * presburger memoization enabled vs. disabled;
//! * the paper's shared-intermediate rules, re-verified independently of
//!   the optimizer's own bookkeeping.
//!
//! Failures [shrink] to a minimal spec with the same failing
//! check and pretty-print via [`describe`]. The `tilefuse-fuzz` binary
//! wraps the loop with seed/iteration/time-budget flags; fixed-seed
//! corpus runs live in `tests/corpus.rs` and CI.
//!
//! Everything is deterministic: randomness comes from the in-tree
//! xorshift64* [`Rng`], never the environment.

mod gen;
mod oracle;
mod rng;
mod shrink;
pub mod soak;
mod spec;
mod wire;

pub use gen::{random_budget, random_spec};
pub use oracle::{run_oracle, Failure, OracleConfig};
pub use rng::Rng;
pub use shrink::shrink;
pub use soak::{replay_quarantine, run_soak, SoakConfig, SoakReport};
pub use spec::{
    build_program, describe, kind_extents, spec_extents, Ext, Extents, ProgramSpec, StageKind,
    StageSpec,
};
pub use wire::{output_digest, spec_from_json, spec_from_value, spec_to_json};
