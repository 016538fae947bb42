//! The bytecode format.
//!
//! A register machine: each function body is a flat instruction vector with
//! absolute jump targets. Registers hold 64-bit words that are either raw
//! machine integers (from `arith` ops) or [`lssa_rt::ObjRef`] bit patterns
//! (from `lp` ops) — the compiler keeps the two apart statically, mirroring
//! the IR's type system, so the VM never needs tags.

use lssa_rt::{Builtin, Nat};
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

/// One instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst ← raw constant`.
    ConstInt {
        /// Destination.
        dst: Reg,
        /// The value.
        v: i64,
    },
    /// `dst ← scalar object` (`lp.int`).
    LpInt {
        /// Destination.
        dst: Reg,
        /// The (small) integer.
        v: i64,
    },
    /// `dst ← boxed bignum` from the constant pool (`lp.bigint`).
    LpBig {
        /// Destination.
        dst: Reg,
        /// Pool index.
        idx: u32,
    },
    /// `dst ← string object` from the pool (`lp.str`).
    LpStr {
        /// Destination.
        dst: Reg,
        /// Pool index.
        idx: u32,
    },
    /// `dst ← ctor{tag}(args…)` (`lp.construct`).
    Construct {
        /// Destination.
        dst: Reg,
        /// Variant tag.
        tag: u32,
        /// Field registers.
        args: Vec<Reg>,
    },
    /// `dst ← tag(src)` as a raw word (`lp.getlabel`).
    GetLabel {
        /// Destination (raw).
        dst: Reg,
        /// Source object.
        src: Reg,
    },
    /// `dst ← field idx of src` (`lp.project`).
    Project {
        /// Destination.
        dst: Reg,
        /// Source object.
        src: Reg,
        /// Field index.
        idx: u32,
    },
    /// Build a closure (`lp.pap`).
    Pap {
        /// Destination.
        dst: Reg,
        /// Target function (VM index).
        func: u32,
        /// Its arity.
        arity: u16,
        /// Captured arguments.
        args: Vec<Reg>,
    },
    /// Extend a closure, possibly invoking it (`lp.papextend`).
    PapExtend {
        /// Destination.
        dst: Reg,
        /// The closure.
        closure: Reg,
        /// Arguments to add.
        args: Vec<Reg>,
    },
    /// Retain (`lp.inc`).
    Inc {
        /// The object.
        src: Reg,
    },
    /// Release (`lp.dec`).
    Dec {
        /// The object.
        src: Reg,
    },
    /// Direct call of a user function.
    Call {
        /// Destination for the result.
        dst: Reg,
        /// VM function index.
        func: u32,
        /// Arguments.
        args: Vec<Reg>,
    },
    /// Call of a runtime builtin.
    CallBuiltin {
        /// Destination.
        dst: Reg,
        /// The builtin.
        builtin: Builtin,
        /// Arguments.
        args: Vec<Reg>,
        /// Borrowed argument positions (bit *i* = `args[i]`): the VM
        /// retains these as the first step of the call, standing in for
        /// an `lp.inc` the rc-opt pass folded away.
        mask: u8,
    },
    /// Guaranteed tail call: replaces the current frame.
    TailCall {
        /// VM function index.
        func: u32,
        /// Arguments.
        args: Vec<Reg>,
    },
    /// Return `src` to the caller.
    Ret {
        /// The result.
        src: Reg,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute target.
        target: usize,
    },
    /// Two-way branch on a raw word.
    Branch {
        /// Condition (0 = false).
        cond: Reg,
        /// Target when non-zero.
        then_t: usize,
        /// Target when zero.
        else_t: usize,
    },
    /// Jump table on a raw word.
    Switch {
        /// Scrutinee.
        idx: Reg,
        /// `(value, target)` pairs.
        cases: Vec<(i64, usize)>,
        /// Fallback target.
        default: usize,
    },
    /// `dst ← op(a, b)` on raw words.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst ← pred(a, b)` as 0/1.
    Cmp {
        /// The predicate.
        pred: CmpPred,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst ← c ? a : b` (bitwise copy; works for objects and raw words).
    Select {
        /// Destination.
        dst: Reg,
        /// Condition (raw).
        c: Reg,
        /// Taken when non-zero.
        a: Reg,
        /// Taken when zero.
        b: Reg,
    },
    /// `dst ← src & mask` (zero-extension casts).
    Mask {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
        /// Bit mask.
        mask: u64,
    },
    /// Register copy.
    Move {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// Read a module global.
    GlobalLoad {
        /// Destination.
        dst: Reg,
        /// Global slot index.
        idx: u32,
    },
    /// Write a module global.
    GlobalStore {
        /// Global slot index.
        idx: u32,
        /// Source.
        src: Reg,
    },
    /// `cf.unreachable` — executing this is a bug.
    Trap,
}

/// A compiled function.
#[derive(Debug, Clone)]
pub struct CompiledFn {
    /// Source-level name.
    pub name: String,
    /// Number of parameters (passed in registers `0..arity`).
    pub arity: u16,
    /// Total registers used.
    pub n_regs: u16,
    /// The code.
    pub code: Vec<Instr>,
}

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

use crate::decode::DecodeOptions;

/// A compiled program.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Functions; closure [`lssa_rt::FuncId`]s index into this.
    pub fns: Vec<CompiledFn>,
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

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
    }

    #[test]
    fn program_lookup() {
        let p = CompiledProgram {
            fns: vec![CompiledFn {
                name: "main".into(),
                arity: 0,
                n_regs: 1,
                code: vec![
                    Instr::LpInt { dst: Reg(0), v: 1 },
                    Instr::Ret { src: Reg(0) },
                ],
            }],
            ..CompiledProgram::default()
        };
        assert_eq!(p.fn_index("main"), Some(0));
        assert_eq!(p.fn_index("other"), None);
        assert_eq!(p.code_size(), 2);
    }

    #[test]
    fn decoded_forms_are_memoized_per_mode() {
        let p = CompiledProgram {
            fns: vec![CompiledFn {
                name: "main".into(),
                arity: 0,
                n_regs: 1,
                code: vec![
                    Instr::LpInt { dst: Reg(0), v: 1 },
                    Instr::Ret { src: Reg(0) },
                ],
            }],
            ..CompiledProgram::default()
        };
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
