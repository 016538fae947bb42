//! # lssa-core: λ the Ultimate SSA
//!
//! The paper's primary contribution — functional programs optimized in SSA
//! via *regions as values*:
//!
//! - [`lp`] — the λrc-in-SSA dialect (Figure 2) and the λrc → lp lowering
//!   (§III): data constructors, staged integer matching, join points,
//!   closures (`pap`/`papextend`), reference counting;
//! - [`rgn`] — the regions-as-SSA-values dialect (§IV): lowering from lp
//!   (Figure 8), the region optimizations of Figure 1 (dead region
//!   elimination, case elimination, common branch elimination), global
//!   region numbering (§IV-B.2), the flat-CFG lowering (§IV-C), and
//!   guaranteed tail calls (§III-E);
//! - [`pipeline`] — the end-to-end MLIR-style backend with the evaluation's
//!   ablation knobs.
//!
//! ```
//! use lssa_lambda::{parse_program, insert_rc};
//! use lssa_core::pipeline::{compile, PipelineOptions};
//!
//! let program = parse_program("def main() := if true then 1 else 2").unwrap();
//! let rc = insert_rc(&program);
//! let module = compile(&rc, PipelineOptions::full());
//! assert!(module.func_by_name("main").is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lp;
pub mod pipeline;
pub mod rgn;

pub use pipeline::{compile, compile_with_report, PipelineOptions, PipelineReport};
