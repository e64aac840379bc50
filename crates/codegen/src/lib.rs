//! Code generation and executable semantics for schedule trees.
//!
//! Three consumers of a transformed schedule tree live here:
//!
//! * the **interpreter** ([`execute_tree`], [`reference_execute`]) runs
//!   statement instances against real buffers in the order the tree
//!   prescribes — including extension-node recomputation and tile-local
//!   scratch storage — so every optimization in this repository is
//!   validated against the original program's output;
//! * the **AST generator + printers** ([`generate`], [`print()`]) render the
//!   tree as OpenMP-C or CUDA-flavoured pseudo-code, reproducing the shape
//!   of the paper's Fig. 1(b) and Fig. 5 listings;
//! * the **bytecode VM** ([`lower_tree`], [`execute_compiled`]) lowers the
//!   tree once to a register-based instruction stream and executes it
//!   bit-identically to the interpreter — same buffers, same statistics —
//!   but without per-instance set enumeration.
//!
//! The interpreter is sequential. Parallel execution is one runtime on
//! top of the VM: [`execute_tree_dag`] runs tiles as tasks of the
//! inter-tile dependence DAG on a work-stealing pool, and
//! [`execute_compiled`] with more than one thread runs a coincident
//! loop's iterations as edge-free tasks of the same pool.

mod ast;
mod bytecode;
mod dag;
mod error;
mod interp;
mod lower;
mod printer;
mod vm;

pub use ast::{generate, AstNode, ForView, StmtView};
pub use bytecode::{disasm, CompiledProgram};
pub use dag::{execute_tree_dag, execute_tree_dag_with};
pub use error::{Error, Result};
pub use interp::{
    check_outputs_match, default_threads, execute_tree, execute_tree_traced, reference_execute,
    Access, Buffer, ExecContext, ExecStats,
};
pub use lower::lower_tree;
pub use printer::{print, print_cuda_kernel, Target};
pub use vm::{execute_compiled, ExecBackend};
