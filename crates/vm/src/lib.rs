//! # lssa-vm: the execution engine
//!
//! Stand-in for the paper's LLVM backend: compiles fully-lowered flat-CFG IR
//! modules ([`compile`]) to a register bytecode ([`bytecode`]) in the VM's
//! one instruction set — compact, pointer-free 16-byte cells
//! ([`DecodedInstr`]) whose operand lists and switch tables live in
//! per-function pools — then fuses adjacent cells into superinstructions
//! and renumbers registers ([`decode`]), and executes the result ([`exec`])
//! over the shared `lssa-rt` heap.
//!
//! Three properties matter for the reproduction:
//!
//! - **Guaranteed tail calls** — `TailCall` reuses the current frame's
//!   register file in place, so `musttail`-annotated calls (§III-E) run in
//!   constant stack space with zero steady-state heap allocation;
//! - **Determinism** — instruction/call/allocation counters provide a
//!   noise-free performance metric next to wall-clock time, keeping the
//!   evaluation's *shape* reproducible on any machine;
//! - **Instrumentation** — [`VmStatistics`] reports per-opcode-class
//!   executed/allocation counts, frame-pool behaviour, and wall time: the
//!   run-side mirror of the compile-side per-pass statistics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytecode;
pub mod compile;
pub mod decode;
pub mod exec;

pub use bytecode::{CompiledProgram, DecodeCache, Reg};
pub use compile::{compile_module, CompileError};
pub use decode::{
    decode_program, decode_program_with, DecodeOptions, DecodedFn, DecodedInstr, DecodedProgram,
    FusionStats, OpClass, RenumberStats,
};
pub use exec::{
    run_decoded, run_decoded_with, run_program, run_program_opts, run_program_with, ExecOptions,
    ExecStats, FaultPlan, JobLimits, RunOutcome, Vm, VmError, VmErrorKind, VmStatistics,
};
