//! # lssa-lambda: λpure and λrc
//!
//! Stand-in for the LEAN4 frontend of the paper: the functional intermediate
//! representations the SSA backend consumes.
//!
//! - [`ast`] — λpure/λrc terms (A-normal form, join points, constructors,
//!   pattern matching, closures; λrc adds explicit `inc`/`dec`), stored as
//!   blocks in per-function arenas,
//! - [`dense`] — the per-function id tables (bitsets, scopes, join
//!   arities) the checkers and passes update in place,
//! - [`parse`] — a small surface language and its ANF lowering (how the
//!   benchmark programs and the conformance corpus are written),
//! - [`wellformed`] — scoping/arity/join-point discipline checks,
//! - [`simplify`] — LEAN's λpure simplifier (the baseline optimizer of
//!   Figure 10, with `simpcase` separately toggleable),
//! - [`rc`] — reference-count insertion (λpure → λrc), balanced by
//!   construction and validated dynamically,
//! - [`interp`] — the reference interpreter over the `lssa-rt` heap (the
//!   semantic oracle for differential testing).
//!
//! ```
//! use lssa_lambda::{parse::parse_program, rc::insert_rc, interp::run_program};
//! let program = parse_program("def main() := 2 + 3 * 4").unwrap();
//! let rc = insert_rc(&program);
//! let out = run_program(&rc, "main", true, 1_000_000).unwrap();
//! assert_eq!(out.rendered, "14");
//! assert_eq!(out.stats.live, 0); // reference counting balanced
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod dense;
pub mod interp;
pub mod parse;
pub mod rc;
pub mod simplify;
pub mod wellformed;

pub use ast::{
    Arena, Block, BlockId, BodyBuilder, FnDef, Name, Names, Program, Stmt, Terminator, Value,
};
pub use interp::{run_program, Outcome};
pub use parse::{parse_program, MAX_DEPTH};
pub use rc::insert_rc;
pub use simplify::{simplify_program, SimplifyOptions};
pub use wellformed::check_program;
