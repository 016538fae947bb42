//! # lssa-rt: the lambda-ssa runtime
//!
//! Stand-in for LEAN4's C runtime (`libleanrt`). Provides:
//!
//! - [`bignum`] — arbitrary-precision [`bignum::Nat`] / [`bignum::Int`]
//!   arithmetic (replaces GMP),
//! - [`object`] — the uniform tagged value representation
//!   ([`object::ObjRef`]): small scalars (and constructors without
//!   fields) stored in the reference bits, heap objects for constructors
//!   with fields, closures, arrays, strings and big integers,
//! - [`heap`] — the reference-counted slot heap with `inc`/`dec`, a flat
//!   arena for constructor fields, and allocation statistics,
//! - [`closure`] — partial-application (`pap`/`papextend`) saturation
//!   semantics shared by the interpreter and the VM,
//! - [`builtins`] — the `lean_*` runtime-call surface (natural/integer
//!   arithmetic, decidable comparisons, arrays, strings).
//!
//! Everything downstream (the reference interpreter in `lssa-lambda`, the
//! bytecode VM in `lssa-vm`) executes against this one runtime, so the
//! differential test harness compares pipelines over identical semantics.
//!
//! ```
//! use lssa_rt::{heap::Heap, object::ObjRef, builtins::Builtin};
//! let mut heap = Heap::new();
//! let sum = Builtin::NatAdd.call(&mut heap, &[ObjRef::scalar(40), ObjRef::scalar(2)]);
//! assert_eq!(sum.as_scalar(), Some(42));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bignum;
pub mod builtins;
pub mod closure;
pub mod heap;
pub mod object;

pub use bignum::{Int, Nat};
pub use builtins::Builtin;
pub use closure::{pap_extend, pap_new, ApplyOutcome};
pub use heap::{Heap, HeapStats};
pub use object::{FuncId, ObjData, ObjRef};

/// The shared non-termination diagnostic: the reference interpreter's fuel
/// counter and the VM's step budget both fail with this exact message, so
/// differential harnesses can compare the two engines' errors verbatim.
pub const STEP_BUDGET_MSG: &str = "step budget exhausted (likely non-termination)";
