//! # lssa-driver: end-to-end pipelines and the evaluation harness
//!
//! Everything the paper's evaluation needs, wired together:
//!
//! - [`baseline`] — the `leanc` model: direct λrc → CFG lowering with
//!   heuristic tail calls (the Figure 9 comparison target),
//! - [`pipelines`] — compiler configurations (λ simplifier on/off × backend
//!   × region optimizations) matching Figures 9 and 10,
//! - [`diff`] — differential testing against the reference interpreter,
//! - [`conformance`] — the ≥648-program corpus (§V-A's test-suite analogue),
//! - [`workloads`] — the eight benchmarks of §V-B,
//! - [`benchjson`] — the one measurement engine behind `lssa bench`: the
//!   six-rung ladder, Figures 9 and 10 over it, and the
//!   `BENCH_<scale>.json` records,
//! - [`jobs`] — resource-governed, fault-tolerant job execution with
//!   deterministic fault injection (the `gauntlet` harness),
//! - [`par`] — the parallel batch executor every sharded run shares (the
//!   `correctness` and `gauntlet` binaries and the integration-test
//!   harnesses).
//!
//! ```
//! use lssa_driver::pipelines::{compile_and_run, CompilerConfig};
//! let out = compile_and_run("def main() := 6 * 7", CompilerConfig::mlir(), 100_000).unwrap();
//! assert_eq!(out.rendered, "42");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod benchjson;
pub mod conformance;
pub mod diff;
pub mod jobs;
pub mod lint;
pub mod par;
pub mod pipelines;
pub mod workloads;

pub use pipelines::{compile, compile_and_run, Backend, CompilerConfig};
