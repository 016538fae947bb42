//! The bytecode program.
//!
//! A register machine: each function body is a flat vector of
//! [`DecodedInstr`] cells with absolute jump targets, whose argument lists
//! and switch tables live in two pools per function ([`DecodedFn`]).
//! [`crate::compile_module`] emits these cells, and the VM runs the same
//! cells after [`crate::decode`] has fused and renumbered them. Registers
//! hold 64-bit words that are either raw machine integers (from `arith`
//! ops) or [`lssa_rt::ObjRef`] bit patterns (from `lp` ops) — the compiler
//! keeps the two apart statically, mirroring the IR's type system, so the
//! VM never needs tags.
//!
//! [`DecodedInstr`]: crate::decode::DecodedInstr

use crate::decode::{DecodeOptions, DecodedFn};
use lssa_rt::Nat;
use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary integer operations on raw words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Signed divide (traps on zero).
    Div,
    /// Signed remainder (traps on zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// Evaluates the operation.
    ///
    /// # Errors
    ///
    /// Returns `None` on division by zero.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b)?,
            BinOp::Rem => a.checked_rem(b)?,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
        })
    }
}

/// Comparison predicates on raw words (signed).
pub use lssa_ir::attr::CmpPred;

/// Memoized decoded forms of a [`CompiledProgram`] (one slot per
/// [`DecodeOptions`] mode), filled lazily by [`CompiledProgram::decoded`].
///
/// Cloning a program resets its cache (the clone may be mutated before it
/// first runs); equality and hashing ignore it by construction, since
/// `CompiledProgram` implements neither.
#[derive(Default)]
pub struct DecodeCache {
    slots: [std::sync::OnceLock<std::sync::Arc<crate::decode::DecodedProgram>>;
        crate::decode::DecodeOptions::CACHE_SLOTS],
}

impl Clone for DecodeCache {
    fn clone(&self) -> DecodeCache {
        DecodeCache::default()
    }
}

impl fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeCache")
            .field("unfused", &self.slots[0].get().is_some())
            .field("fused", &self.slots[1].get().is_some())
            .finish()
    }
}

/// A compiled program.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Functions, as the compiler emits them: unfused cells, inline-cache
    /// slots not yet assigned. Closure [`lssa_rt::FuncId`]s index into
    /// this.
    pub fns: Vec<DecodedFn>,
    /// Big-integer constant pool.
    pub big_pool: Vec<Nat>,
    /// String constant pool.
    pub str_pool: Vec<String>,
    /// Global slot names (`@kslot`-style top-level closures).
    pub globals: Vec<String>,
    /// Memoized decoded forms (implementation detail of
    /// [`CompiledProgram::decoded`]; present here so repeat executions of
    /// one program — conformance loops, differential reruns — skip
    /// re-decoding).
    pub decode_cache: DecodeCache,
}

impl CompiledProgram {
    /// Looks up a function index by name.
    pub fn fn_index(&self, name: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.name == name)
    }

    /// Total instruction count (static code size metric).
    pub fn code_size(&self) -> usize {
        self.fns.iter().map(|f| f.code.len()).sum()
    }

    /// The decoded execution form under `opts`, memoized: the first call
    /// per mode decodes ([`crate::decode::decode_program_with`]), repeat
    /// calls return the shared result. The program must not be mutated
    /// once decoded — treat construction as finished before the first run.
    pub fn decoded(&self, opts: DecodeOptions) -> std::sync::Arc<crate::decode::DecodedProgram> {
        self.decode_cache.slots[opts.cache_index()]
            .get_or_init(|| std::sync::Arc::new(crate::decode::decode_program_with(self, opts)))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodedInstr;

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
    }

    /// `main() = 1`.
    fn one() -> CompiledProgram {
        let mut f = DecodedFn::new("main", 0, 1);
        f.code.push(DecodedInstr::LpInt { dst: Reg(0), v: 1 });
        f.code.push(DecodedInstr::Ret { src: Reg(0) });
        CompiledProgram {
            fns: vec![f],
            ..CompiledProgram::default()
        }
    }

    #[test]
    fn program_lookup() {
        let p = one();
        assert_eq!(p.fn_index("main"), Some(0));
        assert_eq!(p.fn_index("other"), None);
        assert_eq!(p.code_size(), 2);
    }

    #[test]
    fn decoded_forms_are_memoized_per_mode() {
        let p = one();
        let fused = p.decoded(DecodeOptions::fused());
        assert!(
            std::sync::Arc::ptr_eq(&fused, &p.decoded(DecodeOptions::fused())),
            "repeat runs must reuse the decoded program"
        );
        let unfused = p.decoded(DecodeOptions::no_fuse());
        assert!(
            !std::sync::Arc::ptr_eq(&fused, &unfused),
            "the two modes are distinct programs"
        );
        assert!(std::sync::Arc::ptr_eq(
            &unfused,
            &p.decoded(DecodeOptions::no_fuse())
        ));
        assert_eq!(fused.fns[0].code.len(), 1, "fused: one ConstRet cell");
        assert_eq!(unfused.fns[0].code.len(), 2);
        // A clone starts with a cold cache: it may be mutated before its
        // first run.
        let q = p.clone();
        assert!(!std::sync::Arc::ptr_eq(
            &fused,
            &q.decoded(DecodeOptions::fused())
        ));
    }
}
