//! # lssa-ir: an SSA+regions compiler IR
//!
//! Stand-in for the MLIR infrastructure the paper builds on: a minimal
//! SSA-based IR with *nested regions* as a first-class concept, a canonical
//! textual format with both a printer and a parser, a verifier enforcing
//! SSA dominance and the `rgn` dialect's use restrictions, and a pass /
//! pattern-rewrite framework with the classical optimizations the paper
//! reuses from MLIR (DCE, CSE, canonicalization, inlining).
//!
//! The operation set covers five dialects — `arith`, `cf`, `func`, `lp`,
//! `rgn` — see [`opcode::Opcode`].
//!
//! ```
//! use lssa_ir::prelude::*;
//!
//! let mut module = Module::new();
//! let (mut body, params) = Body::new(&[Type::I64]);
//! let entry = body.entry_block();
//! let mut b = Builder::at_end(&mut body, entry);
//! let one = b.const_i(1, Type::I64);
//! let sum = b.addi(params[0], one);
//! b.ret(sum);
//! module.add_function("inc", Signature::new(vec![Type::I64], Type::I64), body);
//! lssa_ir::verifier::verify_module(&module).unwrap();
//! let text = lssa_ir::printer::print_module(&module);
//! let reparsed = lssa_ir::parser::parse_module(&text).unwrap();
//! assert_eq!(text, lssa_ir::printer::print_module(&reparsed));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod attr;
pub mod body;
pub mod builder;
pub mod dom;
pub mod hash;
pub mod ids;
pub mod inline_vec;
pub mod module;
pub mod opcode;
pub mod parser;
pub mod pass;
pub mod passes;
pub mod printer;
pub mod rewrite;
pub mod types;
pub mod verifier;

pub use hash::{FxHashMap, FxHashSet};

/// Commonly used items.
pub mod prelude {
    pub use crate::analysis::{BlockGraph, Liveness, RcVerdict, UseDefChains};
    pub use crate::attr::{Attr, AttrKey, CmpPred};
    pub use crate::body::{Body, OpData, Successor, ValueDef, ROOT_REGION};
    pub use crate::builder::Builder;
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::ids::{BlockId, Interner, OpId, RegionId, Symbol, ValueId};
    pub use crate::inline_vec::InlineVec;
    pub use crate::module::{Function, Global, Module};
    pub use crate::opcode::{Opcode, Purity};
    pub use crate::pass::{Pass, PassManager, PassStatistics, PipelineRunReport};
    pub use crate::types::{Signature, Type};
}
