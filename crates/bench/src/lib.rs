//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section VI).
//!
//! * [`versions`] — the compared compiler versions (heuristics, PolyMage,
//!   Halide, ours) and how each is modeled;
//! * [`tables`] — one generator per table/figure (Table I/II/III,
//!   Figures 8/9/10), returning [`tables::ResultTable`]s;
//! * the `experiments` binary prints everything and can rewrite
//!   `EXPERIMENTS.md`;
//! * benches under `benches/` wrap the same generators plus
//!   micro-benchmarks of the polyhedral substrate, driven by the
//!   self-contained [`microbench`] harness;
//! * [`par`] — a bounded worker pool used to fan the experiment
//!   configurations out over OS threads;
//! * [`backends`] — the measured interpreter-vs-bytecode-VM comparison
//!   behind `experiments … --backend vm`.

pub mod backends;
pub mod microbench;
pub mod par;
pub mod tables;
pub mod tune;
pub mod versions;
