//! The VM's instruction set, and the decode passes that ready a compiled
//! program for execution.
//!
//! The VM has one instruction set, [`DecodedInstr`]:
//!
//! - every instruction is a fixed-size, `Copy` cell with **no
//!   per-instruction heap data** (asserted at compile time to stay within
//!   16 bytes);
//! - variable-length register lists live in one shared side pool per
//!   function ([`DecodedFn::args`]), referenced by `(u32 offset, u16 len)`
//!   [`ArgSlice`]s; switch tables live in a second pool
//!   ([`DecodedFn::cases`]);
//! - jump targets are `u32` cell indices.
//!
//! [`crate::compile_module`] emits the base cells straight into each
//! function's code and pools through [`DecodedFn`]'s emission methods
//! (`DecodedFn::call`, `DecodedFn::switch`, …), which also build the
//! tests' hand-written programs. A `u16` counts a function's registers, a
//! cell's operands and a switch's entries, so the compiler refuses more
//! than 65,535 of any of them with a [`crate::CompileError`].
//! [`decode_program_with`] copies each function, fuses and renumbers the
//! copy unless told not to ([`DecodeOptions::no_fuse`]), and assigns its
//! inline-cache slots. Fusion writes the fused stream back into the copy's
//! code vector, and fusion's and renumbering's per-cell and per-register
//! tables are buffers one [`decode_program_with`] reuses for every
//! function.
//!
//! ## Superinstruction fusion
//!
//! On top of the base lowering, [`decode_program_with`] runs a peephole
//! **fusion pass** (on by default, disabled by
//! [`DecodeOptions::no_fuse`] / `--no-fuse`) that combines adjacent cells
//! into *superinstructions* — single cells executing what used to be two or
//! three dispatches. The fused shapes are the ones the compiled workloads
//! actually run hottest (see the dispatch arms in [`crate::exec`]):
//!
//! | superinstruction | replaces | dispatches saved |
//! |------------------|----------|------------------|
//! | [`DecodedInstr::ConstCmpBr`] | `ConstInt` + `Cmp` + `Branch` | 2 |
//! | [`DecodedInstr::ConstRet`] | `LpInt` + `Ret` | 1 |
//! | [`DecodedInstr::ProjInc`] | `Project` + `Inc` | 1 |
//! | [`DecodedInstr::CallBuiltinRet`] | `CallBuiltin` + `Ret` | 1 |
//! | [`DecodedInstr::ConstructRet`] | `Construct` + `Ret` | 1 |
//! | [`DecodedInstr::SwitchDense`] | `Switch` (contiguous keys) | scan → O(1) |
//! | [`DecodedInstr::Dec2`] | `Dec` + `Dec` | 1 |
//! | [`DecodedInstr::ProjInc2`] | `Project` + `Inc` + `Project` + `Inc` | 3 |
//! | [`DecodedInstr::Dec4`] | `Dec` × 4 | 3 |
//! | [`DecodedInstr::ProjInc2Dec`] | `Project` + `Inc` + `Project` + `Inc` + `Dec` | 4 |
//! | [`DecodedInstr::BuiltinBr`] | (`LpInt` +) decided `CallBuiltin` + `GetLabel` + `ConstInt` + `Cmp` + `Branch` (mlir) or + `Switch` (leanc) | 2–5 |
//! | [`DecodedInstr::BuiltinImm`] | `LpInt` + `CallBuiltin` | 1 |
//! | retain folding | `Inc` × n + `CallBuiltin` → `CallBuiltin` with n more borrow bits | n |
//!
//! `Dec2` and `ProjInc2` came out of the `--pairs` histogram in
//! `examples/dump_decoded.rs`: `dec+dec` and `projinc+projinc` were the
//! two most frequent fusible adjacencies left in the fused streams of the
//! benchmark suite (RC-heavy constructor code releases fields in bursts,
//! and pattern matches project-and-retain consecutive fields). A later
//! round of the same mining found `dec2+dec2` and `projinc2+dec` on top —
//! the rc-opt pass's dec sinking stacks releases even deeper, and a
//! pattern match that peels two fields immediately releases the
//! scrutinee — hence `Dec4` and `ProjInc2Dec`.
//!
//! The last three rows make every scalar builtin one dispatch. LEAN's C
//! backend branches on a decided comparison's unboxed `u8` directly; the
//! type-erased `lp` dialect instead boxes it (`CallBuiltin`), reads its
//! label (`GetLabel`) and compares that against a constant, and leanc
//! switches on it. `BuiltinBr` folds the whole chain into one cell whose
//! two targets decode works out from the swallowed predicate and
//! constant, or from the switch table; a right operand from an `LpInt`
//! rides along as an `i16` immediate. Retain folding moves `Inc`s of the
//! call's arguments into its borrow mask, as rc-opt does at IR level
//! (leanc runs no rc-opt), which also makes an `LpInt` adjacent to the
//! call reading it. Two choices of the bytecode compiler
//! ([`crate::compile`]) make these shapes adjacent in the first place: a
//! constant used only by compares and builtin calls is materialized in
//! front of each use, and the no-op `lp.inc`/`lp.dec` of a decided
//! result is not emitted.
//!
//! Fusion **bails** conservatively: a pair is only combined when the
//! swallowed instruction is not a jump target (control never enters the
//! middle of a fused cell) and any intermediate register the fusion stops
//! writing is read nowhere else in the function (whole-function read
//! counts, so register reuse across blocks is handled). Jump targets are
//! remapped over the shortened stream; `SwitchDense` additionally requires
//! the case keys to form a contiguous range (duplicates or gaps fall back
//! to the scanning `Switch`). Fused and unfused streams are differentially
//! tested to produce byte-identical results on every workload.
//!
//! A fused decode then **renumbers** each function's registers onto a
//! dense prefix, reclaiming the registers fusion orphaned; an unfused
//! decode runs the compiler's cells as they are.

use crate::bytecode::{BinOp, CmpPred, CompiledProgram, Reg};
use crate::compile::{over_limit, CompileError};
use lssa_rt::{Builtin, Nat};

/// Options controlling [`decode_program_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Run the superinstruction fusion pass and then register
    /// renumbering, which reclaims the registers fusion orphans (the
    /// default; `--no-fuse` disables both for fused-vs-unfused
    /// measurements).
    pub fuse: bool,
}

impl Default for DecodeOptions {
    fn default() -> DecodeOptions {
        DecodeOptions::fused()
    }
}

impl DecodeOptions {
    /// The default: fusion and renumbering on.
    pub fn fused() -> DecodeOptions {
        DecodeOptions { fuse: true }
    }

    /// The compiler's cells as emitted: no fusion, no renumbering.
    pub fn no_fuse() -> DecodeOptions {
        DecodeOptions { fuse: false }
    }

    /// Cache-slot index for [`crate::bytecode::DecodeCache`] (one slot per
    /// option value).
    pub(crate) fn cache_index(self) -> usize {
        usize::from(self.fuse)
    }

    /// Number of distinct option values ([`Self::cache_index`] range).
    pub(crate) const CACHE_SLOTS: usize = 2;
}

/// Sentinel for call-shaped instructions without an inline-cache slot
/// (functions with more than `u16::MAX - 1` call sites stop allocating).
pub const NO_CACHE: u16 = u16::MAX;

/// A `(offset, len)` window into a function's shared register pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgSlice {
    /// Offset into [`DecodedFn::args`] (or [`DecodedFn::cases`]).
    pub off: u32,
    /// Number of entries.
    pub len: u16,
}

impl ArgSlice {
    /// The corresponding `Range` for indexing the pool.
    pub fn range(self) -> std::ops::Range<usize> {
        let off = self.off as usize;
        off..off + self.len as usize
    }
}

/// Coarse instruction classes for per-opcode-class execution statistics
/// (the VM-side analogue of `lssa-ir`'s per-pass `PassStatistics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Constant materialization (`ConstInt`, `LpInt`).
    Const = 0,
    /// Heap-allocating data constructors (`LpBig`, `LpStr`, `Construct`).
    Alloc,
    /// Reads of constructor cells (`GetLabel`, `Project`).
    Project,
    /// Closure creation/extension (`Pap`, `PapExtend`).
    Closure,
    /// Reference counting (`Inc`, `Dec`).
    Rc,
    /// Direct calls of user functions.
    Call,
    /// Calls of runtime builtins.
    CallBuiltin,
    /// Guaranteed tail calls (frame-reusing).
    TailCall,
    /// Returns.
    Ret,
    /// Control flow (`Jump`, `Branch`, `Switch`).
    Branch,
    /// Raw-word arithmetic (`Bin`, `Cmp`, `Select`, `Mask`).
    Arith,
    /// Register copies.
    Move,
    /// Module-global loads/stores.
    Global,
    /// `Trap`.
    Trap,
    /// Fused `ConstInt` + `Cmp` + `Branch`.
    FusedConstCmpBr,
    /// Fused `LpInt` + `Ret`.
    FusedConstRet,
    /// Fused `Project` + `Inc`.
    FusedProjInc,
    /// Fused `CallBuiltin` + `Ret`.
    FusedCallBuiltinRet,
    /// Fused `Construct` + `Ret`.
    FusedConstructRet,
    /// Dense-range `Switch` (direct jump-table lookup).
    FusedSwitchDense,
    /// Fused `Dec` + `Dec`.
    FusedDec2,
    /// Fused `Project` + `Inc` + `Project` + `Inc`.
    FusedProjInc2,
    /// Fused `Dec` × 4.
    FusedDec4,
    /// Fused `Project` + `Inc` + `Project` + `Inc` + `Dec`.
    FusedProjInc2Dec,
    /// Fused decided comparison and branch ([`DecodedInstr::BuiltinBr`]).
    FusedBuiltinBr,
    /// Fused `LpInt` + `CallBuiltin` ([`DecodedInstr::BuiltinImm`]).
    FusedBuiltinImm,
}

impl OpClass {
    /// Number of classes (sizes the statistics arrays).
    pub const COUNT: usize = 26;

    /// All classes in display order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Const,
        OpClass::Alloc,
        OpClass::Project,
        OpClass::Closure,
        OpClass::Rc,
        OpClass::Call,
        OpClass::CallBuiltin,
        OpClass::TailCall,
        OpClass::Ret,
        OpClass::Branch,
        OpClass::Arith,
        OpClass::Move,
        OpClass::Global,
        OpClass::Trap,
        OpClass::FusedConstCmpBr,
        OpClass::FusedConstRet,
        OpClass::FusedProjInc,
        OpClass::FusedCallBuiltinRet,
        OpClass::FusedConstructRet,
        OpClass::FusedSwitchDense,
        OpClass::FusedDec2,
        OpClass::FusedProjInc2,
        OpClass::FusedDec4,
        OpClass::FusedProjInc2Dec,
        OpClass::FusedBuiltinBr,
        OpClass::FusedBuiltinImm,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Const => "const",
            OpClass::Alloc => "alloc",
            OpClass::Project => "project",
            OpClass::Closure => "closure",
            OpClass::Rc => "rc",
            OpClass::Call => "call",
            OpClass::CallBuiltin => "call-builtin",
            OpClass::TailCall => "tail-call",
            OpClass::Ret => "ret",
            OpClass::Branch => "branch",
            OpClass::Arith => "arith",
            OpClass::Move => "move",
            OpClass::Global => "global",
            OpClass::Trap => "trap",
            OpClass::FusedConstCmpBr => "fused const+cmp+br",
            OpClass::FusedConstRet => "fused const+ret",
            OpClass::FusedProjInc => "fused proj+inc",
            OpClass::FusedCallBuiltinRet => "fused builtin+ret",
            OpClass::FusedConstructRet => "fused construct+ret",
            OpClass::FusedSwitchDense => "fused switch-dense",
            OpClass::FusedDec2 => "fused dec+dec",
            OpClass::FusedProjInc2 => "fused proj+inc x2",
            OpClass::FusedDec4 => "fused dec x4",
            OpClass::FusedProjInc2Dec => "fused proj+inc x2+dec",
            OpClass::FusedBuiltinBr => "fused builtin+br",
            OpClass::FusedBuiltinImm => "fused const+builtin",
        }
    }

    /// Whether this class is a superinstruction produced by the fusion
    /// pass (the fused rows of `--vm-stats`).
    pub fn is_fused(self) -> bool {
        self as usize >= OpClass::FusedConstCmpBr as usize
    }
}

/// One instruction: fixed operands only, `Copy`, no heap data.
///
/// Variable-length payloads are [`ArgSlice`]s into the owning
/// [`DecodedFn`]'s pools. The bytecode compiler emits the cells up to
/// `Trap`; the superinstructions after it come only from the fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedInstr {
    /// `dst ← raw constant`.
    ConstInt {
        /// Destination.
        dst: Reg,
        /// The value.
        v: i64,
    },
    /// `dst ← scalar object`.
    LpInt {
        /// Destination.
        dst: Reg,
        /// The (small) integer.
        v: i64,
    },
    /// `dst ← boxed bignum` from the constant pool.
    LpBig {
        /// Destination.
        dst: Reg,
        /// Pool index.
        idx: u32,
    },
    /// `dst ← string object` from the pool.
    LpStr {
        /// Destination.
        dst: Reg,
        /// Pool index.
        idx: u32,
    },
    /// `dst ← ctor{tag}(args…)`.
    Construct {
        /// Destination.
        dst: Reg,
        /// Variant tag.
        tag: u32,
        /// Field registers (pool slice).
        args: ArgSlice,
    },
    /// `dst ← tag(src)` as a raw word.
    GetLabel {
        /// Destination (raw).
        dst: Reg,
        /// Source object.
        src: Reg,
    },
    /// `dst ← field idx of src`.
    Project {
        /// Destination.
        dst: Reg,
        /// Source object.
        src: Reg,
        /// Field index.
        idx: u32,
    },
    /// Build a closure. The argument slice is flattened into `args_off`/
    /// `args_len` (an [`ArgSlice`]'s padding would push this variant past
    /// the 16-byte cell).
    Pap {
        /// Destination.
        dst: Reg,
        /// Target function (VM index).
        func: u32,
        /// Its arity.
        arity: u16,
        /// Captured arguments: offset into the pool.
        args_off: u32,
        /// Captured arguments: count.
        args_len: u16,
    },
    /// Extend a closure, possibly invoking it.
    PapExtend {
        /// Destination.
        dst: Reg,
        /// The closure.
        closure: Reg,
        /// Arguments to add (pool slice).
        args: ArgSlice,
        /// Inline-cache slot (function-local; [`NO_CACHE`] when absent).
        cache: u16,
    },
    /// Retain.
    Inc {
        /// The object.
        src: Reg,
    },
    /// Release.
    Dec {
        /// The object.
        src: Reg,
    },
    /// Direct call of a user function. The argument slice is flattened
    /// (like [`DecodedInstr::Pap`]) to make room for the cache slot within
    /// the 16-byte cell.
    Call {
        /// Destination for the result.
        dst: Reg,
        /// VM function index.
        func: u32,
        /// Arguments: offset into the pool.
        args_off: u32,
        /// Arguments: count.
        args_len: u16,
        /// Inline-cache slot (function-local; [`NO_CACHE`] when absent).
        cache: u16,
    },
    /// Call of a runtime builtin.
    CallBuiltin {
        /// Destination.
        dst: Reg,
        /// The builtin.
        builtin: Builtin,
        /// Arguments (pool slice).
        args: ArgSlice,
        /// Borrowed argument positions (bit *i* = argument *i*): retained
        /// as the first step of the call (a folded `lp.inc`).
        mask: u8,
    },
    /// Guaranteed tail call: reuses the current frame in place. Flattened
    /// argument slice, as in [`DecodedInstr::Call`]. No inline-cache slot:
    /// the target is a static function index.
    TailCall {
        /// VM function index.
        func: u32,
        /// Arguments: offset into the pool.
        args_off: u32,
        /// Arguments: count.
        args_len: u16,
    },
    /// Return `src` to the caller.
    Ret {
        /// The result.
        src: Reg,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute target.
        target: u32,
    },
    /// Two-way branch on a raw word.
    Branch {
        /// Condition (0 = false).
        cond: Reg,
        /// Target when non-zero.
        then_t: u32,
        /// Target when zero.
        else_t: u32,
    },
    /// Jump table on a raw word; `(value, target)` pairs live in
    /// [`DecodedFn::cases`].
    Switch {
        /// Scrutinee.
        idx: Reg,
        /// Cases (slice of the case pool).
        cases: ArgSlice,
        /// Fallback target.
        default: u32,
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
    /// `dst ← c ? a : b`.
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
    /// `dst ← src & mask`.
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
    /// Executing this is a bug.
    Trap,

    // ---- superinstructions (emitted only by the fusion pass) ----
    /// Fused `ConstInt` + `Cmp` + `Branch`: branch on `pred(a, imm)`.
    /// When the constant was the *left* comparison operand the stored
    /// predicate is the swapped one, so the semantics stay `pred(a, imm)`.
    ConstCmpBr {
        /// The (possibly swapped) predicate.
        pred: CmpPred,
        /// The register operand.
        a: Reg,
        /// The immediate operand (fusion bails when it exceeds `i32`).
        imm: i32,
        /// Target when the predicate holds.
        then_t: u32,
        /// Target when it does not.
        else_t: u32,
    },
    /// Fused `LpInt` + `Ret`: return the scalar object `v`.
    ConstRet {
        /// The (small) integer.
        v: i64,
    },
    /// Fused `Project` + `Inc`: `dst ← field idx of src`, then retain it.
    ProjInc {
        /// Destination.
        dst: Reg,
        /// Source object.
        src: Reg,
        /// Field index.
        idx: u32,
    },
    /// Fused `CallBuiltin` + `Ret`: return the builtin's result.
    CallBuiltinRet {
        /// The builtin.
        builtin: Builtin,
        /// Arguments (pool slice).
        args: ArgSlice,
        /// Borrowed argument positions, as in [`DecodedInstr::CallBuiltin`].
        mask: u8,
    },
    /// Fused `Construct` + `Ret`: return `ctor{tag}(args…)`.
    ConstructRet {
        /// Variant tag.
        tag: u32,
        /// Field registers (pool slice).
        args: ArgSlice,
    },
    /// `Switch` whose case keys form a contiguous range: the (sorted) run
    /// in [`DecodedFn::cases`] is indexed directly by `value - first_key`
    /// instead of scanned.
    SwitchDense {
        /// Scrutinee.
        idx: Reg,
        /// Sorted contiguous cases (slice of the case pool).
        cases: ArgSlice,
        /// Fallback target.
        default: u32,
    },
    /// Fused `Dec` + `Dec`: release two objects in one dispatch.
    Dec2 {
        /// First object released.
        a: Reg,
        /// Second object released.
        b: Reg,
    },
    /// Fused `Project` + `Inc` + `Project` + `Inc`: two project-and-retain
    /// groups (pattern matches peel consecutive constructor fields this
    /// way). Field indices are narrowed to `u16` to fit the cell — fusion
    /// falls back to two [`DecodedInstr::ProjInc`]s on overflow. Executes
    /// strictly in order: `dst1 ← src1[idx1]`, retain, `dst2 ← src2[idx2]`,
    /// retain — so `src2` may name `dst1`.
    ProjInc2 {
        /// First destination.
        dst1: Reg,
        /// First source object.
        src1: Reg,
        /// First field index.
        idx1: u16,
        /// Second destination.
        dst2: Reg,
        /// Second source object.
        src2: Reg,
        /// Second field index.
        idx2: u16,
    },
    /// Fused `Dec` × 4: four releases in one dispatch. The rc-opt pass's
    /// dec sinking stacks a block's releases back to back, so runs of
    /// four and more are common ([`DecodedInstr::Dec2`] pairs showed up
    /// adjacent in the `--pairs` histogram more often than any other
    /// fused/rc mix).
    Dec4 {
        /// First object released.
        a: Reg,
        /// Second object released.
        b: Reg,
        /// Third object released.
        c: Reg,
        /// Fourth object released.
        d: Reg,
    },
    /// Fused `Project` + `Inc` + `Project` + `Inc` + `Dec`: a pattern
    /// match peeling two constructor fields and immediately releasing the
    /// scrutinee (the `Cons(h, t)` arm's canonical shape). Field order as
    /// in [`DecodedInstr::ProjInc2`]; the release runs last, so `dec` may
    /// name `src1`/`src2` but not `dst1`/`dst2` in well-formed streams.
    ProjInc2Dec {
        /// First destination.
        dst1: Reg,
        /// First source object.
        src1: Reg,
        /// First field index.
        idx1: u16,
        /// Second destination.
        dst2: Reg,
        /// Second source object.
        src2: Reg,
        /// Second field index.
        idx2: u16,
        /// Object released after both projections.
        dec: Reg,
    },
    /// A decided comparison and the branch on it in one cell: a
    /// `CallBuiltin` of a [`Builtin::returns_scalar`] builtin whose result
    /// only feeds the next `GetLabel`, whose label only feeds mlir's
    /// `ConstInt` + `Cmp` + `Branch` or leanc's `Switch` — optionally with
    /// the `LpInt` of its right operand in front, which `b` then holds as
    /// an immediate. Decode worked out where each result goes from the
    /// swallowed predicate and constant, or from the switch table.
    BuiltinBr {
        /// The comparison.
        builtin: Builtin,
        /// Borrowed argument positions, as in [`DecodedInstr::CallBuiltin`].
        mask: u8,
        /// Whether `b` is an `i16` immediate rather than a register.
        imm: bool,
        /// Left operand.
        a: Reg,
        /// Right operand: a register index, or the immediate's bits.
        b: u16,
        /// Target when the builtin returns 1.
        on_true: u32,
        /// Target when it returns 0.
        on_false: u32,
    },
    /// Fused `LpInt` + two-operand `CallBuiltin` (one with a scalar fast
    /// path, the only reader of the constant): `dst ← builtin(src, imm)`,
    /// or `builtin(imm, src)` when `imm_left`.
    BuiltinImm {
        /// The builtin.
        builtin: Builtin,
        /// Borrowed argument positions, as in [`DecodedInstr::CallBuiltin`]
        /// (bit 0 is the left operand, whichever side the immediate is on).
        mask: u8,
        /// Whether the immediate is the left operand.
        imm_left: bool,
        /// Destination.
        dst: Reg,
        /// The register operand.
        src: Reg,
        /// The scalar immediate operand.
        imm: i32,
    },
}

// The whole point of the decoded form: every instruction is one compact,
// pointer-free cell. A grown variant breaks this at compile time.
const _: () = assert!(std::mem::size_of::<DecodedInstr>() <= 16);

impl DecodedInstr {
    /// The statistics class of this instruction.
    pub fn class(self) -> OpClass {
        match self {
            DecodedInstr::ConstInt { .. } | DecodedInstr::LpInt { .. } => OpClass::Const,
            DecodedInstr::LpBig { .. }
            | DecodedInstr::LpStr { .. }
            | DecodedInstr::Construct { .. } => OpClass::Alloc,
            DecodedInstr::GetLabel { .. } | DecodedInstr::Project { .. } => OpClass::Project,
            DecodedInstr::Pap { .. } | DecodedInstr::PapExtend { .. } => OpClass::Closure,
            DecodedInstr::Inc { .. } | DecodedInstr::Dec { .. } => OpClass::Rc,
            DecodedInstr::Call { .. } => OpClass::Call,
            DecodedInstr::CallBuiltin { .. } => OpClass::CallBuiltin,
            DecodedInstr::TailCall { .. } => OpClass::TailCall,
            DecodedInstr::Ret { .. } => OpClass::Ret,
            DecodedInstr::Jump { .. }
            | DecodedInstr::Branch { .. }
            | DecodedInstr::Switch { .. } => OpClass::Branch,
            DecodedInstr::Bin { .. }
            | DecodedInstr::Cmp { .. }
            | DecodedInstr::Select { .. }
            | DecodedInstr::Mask { .. } => OpClass::Arith,
            DecodedInstr::Move { .. } => OpClass::Move,
            DecodedInstr::GlobalLoad { .. } | DecodedInstr::GlobalStore { .. } => OpClass::Global,
            DecodedInstr::Trap => OpClass::Trap,
            DecodedInstr::ConstCmpBr { .. } => OpClass::FusedConstCmpBr,
            DecodedInstr::ConstRet { .. } => OpClass::FusedConstRet,
            DecodedInstr::ProjInc { .. } => OpClass::FusedProjInc,
            DecodedInstr::CallBuiltinRet { .. } => OpClass::FusedCallBuiltinRet,
            DecodedInstr::ConstructRet { .. } => OpClass::FusedConstructRet,
            DecodedInstr::SwitchDense { .. } => OpClass::FusedSwitchDense,
            DecodedInstr::Dec2 { .. } => OpClass::FusedDec2,
            DecodedInstr::ProjInc2 { .. } => OpClass::FusedProjInc2,
            DecodedInstr::Dec4 { .. } => OpClass::FusedDec4,
            DecodedInstr::ProjInc2Dec { .. } => OpClass::FusedProjInc2Dec,
            DecodedInstr::BuiltinBr { .. } => OpClass::FusedBuiltinBr,
            DecodedInstr::BuiltinImm { .. } => OpClass::FusedBuiltinImm,
        }
    }
}

/// What the fusion pass did to a function (or, summed, to a program):
/// superinstructions emitted per kind, plus the net shrink of the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `ConstInt`+`Cmp`+`Branch` triples fused.
    pub const_cmp_br: u32,
    /// `LpInt`+`Ret` pairs fused.
    pub const_ret: u32,
    /// `Project`+`Inc` pairs fused.
    pub proj_inc: u32,
    /// `CallBuiltin`+`Ret` pairs fused.
    pub call_builtin_ret: u32,
    /// `Construct`+`Ret` pairs fused.
    pub construct_ret: u32,
    /// Dense-range `Switch` rewrites (same cell count, O(1) dispatch).
    pub switch_dense: u32,
    /// `Dec`+`Dec` pairs fused.
    pub dec2: u32,
    /// `Project`+`Inc`+`Project`+`Inc` quads fused.
    pub proj_inc2: u32,
    /// `Dec` quad runs fused.
    pub dec4: u32,
    /// `Project`+`Inc`+`Project`+`Inc`+`Dec` groups fused.
    pub proj_inc2_dec: u32,
    /// Decided comparisons fused with their branch.
    pub builtin_br: u32,
    /// `LpInt`+`CallBuiltin` pairs fused.
    pub builtin_imm: u32,
    /// `Inc` cells folded into a following `CallBuiltin`'s borrow mask.
    pub retains_folded: u32,
    /// Original cells eliminated by fusion (static code shrink).
    pub cells_saved: u32,
}

impl FusionStats {
    /// Total superinstruction cells emitted.
    pub fn superinstructions(&self) -> u64 {
        u64::from(self.const_cmp_br)
            + u64::from(self.const_ret)
            + u64::from(self.proj_inc)
            + u64::from(self.call_builtin_ret)
            + u64::from(self.construct_ret)
            + u64::from(self.switch_dense)
            + u64::from(self.dec2)
            + u64::from(self.proj_inc2)
            + u64::from(self.dec4)
            + u64::from(self.proj_inc2_dec)
            + u64::from(self.builtin_br)
            + u64::from(self.builtin_imm)
    }

    /// Folds another function's statistics into this record.
    pub fn absorb(&mut self, other: &FusionStats) {
        self.const_cmp_br += other.const_cmp_br;
        self.const_ret += other.const_ret;
        self.proj_inc += other.proj_inc;
        self.call_builtin_ret += other.call_builtin_ret;
        self.construct_ret += other.construct_ret;
        self.switch_dense += other.switch_dense;
        self.dec2 += other.dec2;
        self.proj_inc2 += other.proj_inc2;
        self.dec4 += other.dec4;
        self.proj_inc2_dec += other.proj_inc2_dec;
        self.builtin_br += other.builtin_br;
        self.builtin_imm += other.builtin_imm;
        self.retains_folded += other.retains_folded;
        self.cells_saved += other.cells_saved;
    }
}

/// What the register-renumbering pass did (per function, or summed over a
/// program): register-file sizes before/after compaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenumberStats {
    /// Σ register-file sizes before compaction.
    pub regs_before: u64,
    /// Σ register-file sizes after compaction.
    pub regs_after: u64,
    /// Functions whose register file actually shrank.
    pub fns_compacted: u32,
}

impl RenumberStats {
    /// Folds another function's statistics into this record.
    pub fn absorb(&mut self, other: &RenumberStats) {
        self.regs_before += other.regs_before;
        self.regs_after += other.regs_after;
        self.fns_compacted += other.fns_compacted;
    }

    /// Register-file words eliminated by compaction.
    pub fn regs_saved(&self) -> u64 {
        self.regs_before.saturating_sub(self.regs_after)
    }
}

/// A function: flat code plus its two side pools, as the compiler emits it
/// or as decode readies it for the VM.
#[derive(Debug, Clone, Default)]
pub struct DecodedFn {
    /// Source-level name.
    pub name: String,
    /// Number of parameters (passed in registers `0..arity`).
    pub arity: u16,
    /// Size of the register file. In a fused decode, which is renumbered,
    /// this is the *referenced* register count, not the compiler's
    /// maximum register id.
    pub n_regs: u16,
    /// The code.
    pub code: Vec<DecodedInstr>,
    /// Shared register-list pool (`Construct`/`Pap`/`Call`/… operands).
    pub args: Vec<Reg>,
    /// Shared switch-table pool: `(value, target)` pairs.
    pub cases: Vec<(i64, u32)>,
    /// This function's first slot in the program-wide inline-cache pool;
    /// a call site's global slot is `cache_base + its local cache id`
    /// (decode assigns both; the compiler leaves them at zero).
    pub cache_base: u32,
    /// Number of inline-cache slots this function owns.
    pub cache_sites: u16,
}

impl DecodedFn {
    /// The registers of an [`ArgSlice`].
    pub fn arg_regs(&self, s: ArgSlice) -> &[Reg] {
        &self.args[s.range()]
    }

    /// An empty function, to emit cells into: no code, empty pools, no
    /// inline-cache slots.
    pub(crate) fn new(name: impl Into<String>, arity: u16, n_regs: u16) -> DecodedFn {
        DecodedFn {
            name: name.into(),
            arity,
            n_regs,
            ..DecodedFn::default()
        }
    }

    // The emission methods. Each appends one cell and interns its operand
    // list or switch table at the end of the pool; each refuses a list or
    // table longer than the `u16` an `ArgSlice` counts it in.

    /// Appends `regs` to the argument pool for the cell emitted next.
    fn intern_args(&mut self, regs: &[Reg]) -> Result<ArgSlice, CompileError> {
        let len = u16::try_from(regs.len())
            .map_err(|_| over_limit(&self.name, "operands in one cell"))?;
        let off = u32::try_from(self.args.len()).expect("argument pool exhausted");
        self.args.extend_from_slice(regs);
        Ok(ArgSlice { off, len })
    }

    /// Emits `dst ← ctor{tag}(args…)`.
    pub(crate) fn construct(
        &mut self,
        dst: Reg,
        tag: u32,
        args: &[Reg],
    ) -> Result<(), CompileError> {
        let args = self.intern_args(args)?;
        self.code.push(DecodedInstr::Construct { dst, tag, args });
        Ok(())
    }

    /// Emits a closure of `func`, of arity `arity`, capturing `args`.
    pub(crate) fn pap(
        &mut self,
        dst: Reg,
        func: u32,
        arity: u16,
        args: &[Reg],
    ) -> Result<(), CompileError> {
        let s = self.intern_args(args)?;
        self.code.push(DecodedInstr::Pap {
            dst,
            func,
            arity,
            args_off: s.off,
            args_len: s.len,
        });
        Ok(())
    }

    /// Emits the extension of `closure` by `args`.
    pub(crate) fn pap_extend(
        &mut self,
        dst: Reg,
        closure: Reg,
        args: &[Reg],
    ) -> Result<(), CompileError> {
        let args = self.intern_args(args)?;
        self.code.push(DecodedInstr::PapExtend {
            dst,
            closure,
            args,
            cache: NO_CACHE,
        });
        Ok(())
    }

    /// Emits `dst ← func(args…)`.
    pub(crate) fn call(&mut self, dst: Reg, func: u32, args: &[Reg]) -> Result<(), CompileError> {
        let s = self.intern_args(args)?;
        self.code.push(DecodedInstr::Call {
            dst,
            func,
            args_off: s.off,
            args_len: s.len,
            cache: NO_CACHE,
        });
        Ok(())
    }

    /// Emits `dst ← builtin(args…)`, retaining the arguments `mask` names
    /// first.
    pub(crate) fn call_builtin(
        &mut self,
        dst: Reg,
        builtin: Builtin,
        args: &[Reg],
        mask: u8,
    ) -> Result<(), CompileError> {
        let args = self.intern_args(args)?;
        self.code.push(DecodedInstr::CallBuiltin {
            dst,
            builtin,
            args,
            mask,
        });
        Ok(())
    }

    /// Emits the tail call `func(args…)`.
    pub(crate) fn tail_call(&mut self, func: u32, args: &[Reg]) -> Result<(), CompileError> {
        let s = self.intern_args(args)?;
        self.code.push(DecodedInstr::TailCall {
            func,
            args_off: s.off,
            args_len: s.len,
        });
        Ok(())
    }

    /// Emits a jump table on `idx` over `(value, target)` pairs.
    pub(crate) fn switch(
        &mut self,
        idx: Reg,
        cases: impl IntoIterator<Item = (i64, u32)>,
        default: u32,
    ) -> Result<(), CompileError> {
        let start = self.cases.len();
        self.cases.extend(cases);
        let len = u16::try_from(self.cases.len() - start)
            .map_err(|_| over_limit(&self.name, "entries in one switch"))?;
        let off = u32::try_from(start).expect("case pool exhausted");
        self.code.push(DecodedInstr::Switch {
            idx,
            cases: ArgSlice { off, len },
            default,
        });
        Ok(())
    }

    /// Per-register read counts over the whole function (pool operand
    /// lists included). The fusion pass uses these to prove an intermediate
    /// register dead: a register read exactly once — by the instruction
    /// that swallows its def — can safely stop being written, whatever
    /// block structure or register reuse surrounds the pair.
    fn count_reads(&self, reads: &mut Vec<u32>) {
        reads.clear();
        reads.resize(self.n_regs as usize, 0);
        for instr in &self.code {
            let mut singles: [Option<Reg>; 4] = [None, None, None, None];
            let mut slice: Option<ArgSlice> = None;
            match *instr {
                DecodedInstr::ConstInt { .. }
                | DecodedInstr::LpInt { .. }
                | DecodedInstr::LpBig { .. }
                | DecodedInstr::LpStr { .. }
                | DecodedInstr::Jump { .. }
                | DecodedInstr::GlobalLoad { .. }
                | DecodedInstr::ConstRet { .. }
                | DecodedInstr::Trap => {}
                DecodedInstr::GetLabel { src, .. }
                | DecodedInstr::Project { src, .. }
                | DecodedInstr::ProjInc { src, .. }
                | DecodedInstr::Inc { src }
                | DecodedInstr::Dec { src }
                | DecodedInstr::Ret { src }
                | DecodedInstr::Mask { src, .. }
                | DecodedInstr::Move { src, .. }
                | DecodedInstr::GlobalStore { src, .. } => singles[0] = Some(src),
                DecodedInstr::Construct { args, .. }
                | DecodedInstr::CallBuiltin { args, .. }
                | DecodedInstr::CallBuiltinRet { args, .. }
                | DecodedInstr::ConstructRet { args, .. } => slice = Some(args),
                DecodedInstr::Pap {
                    args_off, args_len, ..
                }
                | DecodedInstr::Call {
                    args_off, args_len, ..
                }
                | DecodedInstr::TailCall {
                    args_off, args_len, ..
                } => {
                    slice = Some(ArgSlice {
                        off: args_off,
                        len: args_len,
                    });
                }
                DecodedInstr::PapExtend { closure, args, .. } => {
                    singles[0] = Some(closure);
                    slice = Some(args);
                }
                DecodedInstr::Branch { cond, .. } => singles[0] = Some(cond),
                DecodedInstr::Switch { idx, .. } | DecodedInstr::SwitchDense { idx, .. } => {
                    singles[0] = Some(idx);
                }
                DecodedInstr::Bin { a, b, .. } | DecodedInstr::Cmp { a, b, .. } => {
                    singles[0] = Some(a);
                    singles[1] = Some(b);
                }
                DecodedInstr::ConstCmpBr { a, .. } => singles[0] = Some(a),
                DecodedInstr::BuiltinImm { src, .. } => singles[0] = Some(src),
                DecodedInstr::BuiltinBr { a, b, imm, .. } => {
                    singles[0] = Some(a);
                    singles[1] = (!imm).then_some(Reg(b));
                }
                DecodedInstr::Select { c, a, b, .. } => singles = [Some(c), Some(a), Some(b), None],
                DecodedInstr::Dec2 { a, b } => {
                    singles[0] = Some(a);
                    singles[1] = Some(b);
                }
                DecodedInstr::ProjInc2 { src1, src2, .. } => {
                    singles[0] = Some(src1);
                    singles[1] = Some(src2);
                }
                DecodedInstr::Dec4 { a, b, c, d } => {
                    singles = [Some(a), Some(b), Some(c), Some(d)];
                }
                DecodedInstr::ProjInc2Dec {
                    src1, src2, dec, ..
                } => {
                    singles[0] = Some(src1);
                    singles[1] = Some(src2);
                    singles[2] = Some(dec);
                }
            }
            // Malformed code may reference registers beyond `n_regs`
            // (decodable; a runtime failure only if executed) — grow the
            // table rather than panic during decode.
            let bump = |reads: &mut Vec<u32>, r: Reg| {
                let i = r.0 as usize;
                if i >= reads.len() {
                    reads.resize(i + 1, 0);
                }
                reads[i] += 1;
            };
            for r in singles.into_iter().flatten() {
                bump(reads, r);
            }
            if let Some(s) = slice {
                for &r in self.arg_regs(s) {
                    bump(reads, r);
                }
            }
        }
    }

    /// Whether any jump target points past the end of the code (legal to
    /// decode; a recoverable error if executed).
    fn has_out_of_range_target(&self) -> bool {
        let n = self.code.len() as u32;
        self.code.iter().any(|instr| match *instr {
            DecodedInstr::Jump { target } => target >= n,
            DecodedInstr::Branch { then_t, else_t, .. } => then_t >= n || else_t >= n,
            DecodedInstr::Switch { cases, default, .. } => {
                default >= n || self.cases[cases.range()].iter().any(|&(_, t)| t >= n)
            }
            _ => false,
        })
    }

    /// Which instruction indices are jump targets. Control can only enter
    /// the *first* cell of a fused group, so fusion bails when a would-be
    /// swallowed instruction appears here. Public so fusion-tuning tools
    /// (`examples/dump_decoded.rs --pairs`) can apply the same fusibility
    /// filter the pass itself uses. `targets` is overwritten, one flag per
    /// cell.
    pub fn jump_targets(&self, targets: &mut Vec<bool>) {
        targets.clear();
        targets.resize(self.code.len(), false);
        for instr in &self.code {
            match *instr {
                DecodedInstr::Jump { target } => targets[target as usize] = true,
                DecodedInstr::Branch { then_t, else_t, .. }
                | DecodedInstr::ConstCmpBr { then_t, else_t, .. }
                | DecodedInstr::BuiltinBr {
                    on_true: then_t,
                    on_false: else_t,
                    ..
                } => {
                    targets[then_t as usize] = true;
                    targets[else_t as usize] = true;
                }
                DecodedInstr::Switch { cases, default, .. }
                | DecodedInstr::SwitchDense { cases, default, .. } => {
                    targets[default as usize] = true;
                    for &(_, t) in &self.cases[cases.range()] {
                        targets[t as usize] = true;
                    }
                }
                _ => {}
            }
        }
    }

    /// The peephole fusion pass: combines adjacent cells into the
    /// superinstructions documented at module level, rewrites contiguous
    /// switches to dense dispatch, and remaps every jump target over the
    /// shortened stream. Swallowed pool runs stay in the pools (they are
    /// small and decode happens once per program). The fused stream is
    /// written back into the function's own code vector, and the pass's
    /// tables are `bufs`, shared by every function of a program.
    fn fuse(&mut self, bufs: &mut DecodeBuffers) -> FusionStats {
        let mut stats = FusionStats::default();
        // A malformed function can carry out-of-range jump targets; the
        // unfused VM reports those as a recoverable "pc out of range"
        // error when (and if) they execute. Skip fusion rather than
        // introduce a decode-time panic for them.
        if self.has_out_of_range_target() {
            return stats;
        }
        let DecodeBuffers {
            reads,
            targets,
            old,
            map,
            ..
        } = bufs;
        self.count_reads(reads);
        self.jump_targets(targets);
        old.clear();
        old.extend_from_slice(&self.code);
        // Fused cells replace the cells they swallow, so the stream only
        // shrinks and fits the vector it is written back into.
        self.code.clear();
        // Retain folding first: it is what makes an `LpInt` adjacent to
        // the `CallBuiltin` reading it. `folded` maps each cell of the
        // original stream onto the shortened one.
        let folded = self.fold_retains(old, targets, reads);
        if let Some(f) = &folded {
            stats.retains_folded = (f.len() - old.len()) as u32;
            stats.cells_saved = stats.retains_folded;
        }
        map.clear();
        map.resize(old.len(), 0);
        let mut i = 0usize;
        while i < old.len() {
            let ni = u32::try_from(self.code.len()).expect("fused stream too large");
            let (cell, consumed) = self.try_fuse(old, i, targets, reads).unwrap_or((old[i], 1));
            // Swallowed cells map to the fused cell; nothing jumps at them
            // (guaranteed by the `targets` bail), this is belt and braces.
            for slot in &mut map[i..i + consumed] {
                *slot = ni;
            }
            match cell {
                DecodedInstr::ConstCmpBr { .. } => stats.const_cmp_br += 1,
                DecodedInstr::ConstRet { .. } => stats.const_ret += 1,
                DecodedInstr::ProjInc { .. } => stats.proj_inc += 1,
                DecodedInstr::CallBuiltinRet { .. } => stats.call_builtin_ret += 1,
                DecodedInstr::ConstructRet { .. } => stats.construct_ret += 1,
                DecodedInstr::SwitchDense { .. } => stats.switch_dense += 1,
                DecodedInstr::Dec2 { .. } => stats.dec2 += 1,
                DecodedInstr::ProjInc2 { .. } => stats.proj_inc2 += 1,
                DecodedInstr::Dec4 { .. } => stats.dec4 += 1,
                DecodedInstr::ProjInc2Dec { .. } => stats.proj_inc2_dec += 1,
                DecodedInstr::BuiltinBr { .. } => stats.builtin_br += 1,
                DecodedInstr::BuiltinImm { .. } => stats.builtin_imm += 1,
                _ => {}
            }
            stats.cells_saved += consumed as u32 - 1;
            self.code.push(cell);
            i += consumed;
        }
        if let Some(mut folded) = folded {
            for m in &mut folded {
                *m = map[*m as usize];
            }
            *map = folded;
        }
        // Remap jump targets onto the shortened stream. Case-pool runs are
        // remapped through the one instruction referencing them (decode and
        // `densify` both append a fresh run per switch, so no run is shared
        // or visited twice).
        for instr in &mut self.code {
            match instr {
                DecodedInstr::Jump { target } => *target = map[*target as usize],
                DecodedInstr::Branch { then_t, else_t, .. }
                | DecodedInstr::ConstCmpBr { then_t, else_t, .. }
                | DecodedInstr::BuiltinBr {
                    on_true: then_t,
                    on_false: else_t,
                    ..
                } => {
                    *then_t = map[*then_t as usize];
                    *else_t = map[*else_t as usize];
                }
                DecodedInstr::Switch { cases, default, .. }
                | DecodedInstr::SwitchDense { cases, default, .. } => {
                    *default = map[*default as usize];
                    for (_, t) in &mut self.cases[cases.range()] {
                        *t = map[*t as usize];
                    }
                }
                _ => {}
            }
        }
        stats
    }

    /// Retain folding: `Inc x` cells directly in front of a `CallBuiltin`
    /// fold into its borrow mask when `x` is an argument whose bit is
    /// still clear — one bit per `Inc`, so a register passed twice can
    /// take two. The retain then runs as the call's first step instead of
    /// one dispatch earlier. Only the run's first cell may be a jump
    /// target. (rc-opt already folds these retains at IR level, so this
    /// matters for code compiled without it, such as leanc's.)
    ///
    /// Shortens `code` in place and updates `targets` and `reads` to
    /// match. Returns `None` when nothing folded, else the map from each
    /// original cell to its index in the shortened stream (a folded cell
    /// maps to the cell after it).
    fn fold_retains(
        &self,
        code: &mut Vec<DecodedInstr>,
        targets: &mut Vec<bool>,
        reads: &mut [u32],
    ) -> Option<Vec<u32>> {
        let mut keep: Vec<bool> = Vec::new();
        for j in 0..code.len() {
            let DecodedInstr::CallBuiltin {
                dst,
                builtin,
                args,
                mut mask,
            } = code[j]
            else {
                continue;
            };
            let regs = self.arg_regs(args);
            let mut k = j;
            while k > 0 && !targets[k] {
                let DecodedInstr::Inc { src } = code[k - 1] else {
                    break;
                };
                k -= 1;
                let Some(bit) =
                    (0..regs.len().min(8)).find(|&b| regs[b] == src && mask & (1 << b) == 0)
                else {
                    continue;
                };
                mask |= 1 << bit;
                if keep.is_empty() {
                    keep = vec![true; code.len()];
                }
                keep[k] = false;
                reads[src.0 as usize] -= 1;
            }
            code[j] = DecodedInstr::CallBuiltin {
                dst,
                builtin,
                args,
                mask,
            };
        }
        if keep.is_empty() {
            return None;
        }
        let mut map = Vec::with_capacity(code.len());
        let mut next = 0usize;
        for i in 0..code.len() {
            map.push(next as u32);
            if keep[i] {
                code[next] = code[i];
                next += 1;
            }
        }
        code.truncate(next);
        let mut shortened = vec![false; next];
        for (i, _) in targets.iter().enumerate().filter(|&(_, &t)| t) {
            shortened[map[i] as usize] = true;
        }
        *targets = shortened;
        Some(map)
    }

    /// The branch a decided comparison feeds, when `old[at]` is a
    /// `CallBuiltin` whose result only the next `GetLabel` reads, and the
    /// label only mlir's `ConstInt` + `Cmp` + `Branch` or leanc's `Switch`
    /// after it, with no jump target among those cells. Returns the
    /// targets for results 1 and 0, and how many cells follow the call.
    fn decided_branch(
        &self,
        old: &[DecodedInstr],
        at: usize,
        targets: &[bool],
        reads: &[u32],
    ) -> Option<(u32, u32, usize)> {
        let dead = |r: Reg| reads.get(r.0 as usize).copied().unwrap_or(0) == 1;
        let free = |k: usize| k < old.len() && !targets[k];
        let DecodedInstr::CallBuiltin { dst: result, .. } = old[at] else {
            return None;
        };
        if !(dead(result) && free(at + 1) && free(at + 2)) {
            return None;
        }
        let DecodedInstr::GetLabel { dst: label, src } = old[at + 1] else {
            return None;
        };
        if src != result || !dead(label) {
            return None;
        }
        match old[at + 2] {
            DecodedInstr::Switch {
                idx,
                cases,
                default,
            } if idx == label => {
                let run = &self.cases[cases.range()];
                let target = |v: i64| run.iter().find(|&&(c, _)| c == v).map_or(default, |c| c.1);
                Some((target(1), target(0), 2))
            }
            DecodedInstr::ConstInt { dst: k, v } if dead(k) && free(at + 3) && free(at + 4) => {
                let (
                    DecodedInstr::Cmp { pred, dst, a, b },
                    DecodedInstr::Branch {
                        cond,
                        then_t,
                        else_t,
                    },
                ) = (old[at + 3], old[at + 4])
                else {
                    return None;
                };
                if cond != dst || !dead(dst) {
                    return None;
                }
                let holds = |r: i64| match (a, b) {
                    _ if (a, b) == (label, k) => Some(pred.eval(r, v)),
                    _ if (a, b) == (k, label) => Some(pred.eval(v, r)),
                    _ => None,
                };
                let target = |r: i64| holds(r).map(|h| if h { then_t } else { else_t });
                Some((target(1)?, target(0)?, 4))
            }
            _ => None,
        }
    }

    /// Tries to fuse the instruction group starting at `i` of the unfused
    /// stream `old`. Returns the superinstruction and how many original
    /// cells it consumes.
    fn try_fuse(
        &mut self,
        old: &[DecodedInstr],
        i: usize,
        targets: &[bool],
        reads: &[u32],
    ) -> Option<(DecodedInstr, usize)> {
        // "Dead": read exactly once in the whole function — by the
        // consuming instruction of the group under inspection. (`get`:
        // malformed code may name registers the read table never saw.)
        let dead = |r: Reg| reads.get(r.0 as usize).copied().unwrap_or(0) == 1;
        let next = old.get(i + 1).copied();
        let next_free = i + 1 < old.len() && !targets[i + 1];
        match old[i] {
            // ConstInt + Cmp + Branch → ConstCmpBr.
            DecodedInstr::ConstInt { dst: c, v }
                if dead(c) && i + 2 < old.len() && !targets[i + 1] && !targets[i + 2] =>
            {
                let (
                    DecodedInstr::Cmp { pred, dst, a, b },
                    DecodedInstr::Branch {
                        cond,
                        then_t,
                        else_t,
                    },
                ) = (old[i + 1], old[i + 2])
                else {
                    return None;
                };
                if cond != dst || !dead(dst) || (a == c) == (b == c) {
                    return None;
                }
                let imm = i32::try_from(v).ok()?;
                // Keep the register operand on the left, swapping the
                // predicate when the constant was the left operand.
                let (pred, a) = if b == c {
                    (pred, a)
                } else {
                    (pred.swapped(), b)
                };
                Some((
                    DecodedInstr::ConstCmpBr {
                        pred,
                        a,
                        imm,
                        then_t,
                        else_t,
                    },
                    3,
                ))
            }
            // For every `*Ret` tail shape the group ends the frame's life:
            // registers do not survive a return, so the swallowed def needs
            // no dead-register proof (unlike the branch-ending fusions,
            // whose targets could observe the eliminated write).
            DecodedInstr::LpInt { dst, v } if next_free => match next {
                Some(DecodedInstr::Ret { src }) if src == dst => {
                    Some((DecodedInstr::ConstRet { v }, 2))
                }
                // The constant becomes an immediate of the builtin reading
                // it — or, for a decided comparison branched on, of the
                // BuiltinBr cell.
                Some(DecodedInstr::CallBuiltin {
                    dst: out,
                    builtin,
                    args,
                    mask,
                }) if dead(dst) => {
                    let &[x, y] = self.arg_regs(args) else {
                        return None;
                    };
                    let branch = builtin
                        .returns_scalar()
                        .then(|| self.decided_branch(old, i + 1, targets, reads))
                        .flatten();
                    if let Some((on_true, on_false, n)) = branch {
                        // The call fuses with its branch either way; the
                        // constant rides along only as a right-hand `i16`.
                        let imm = i16::try_from(v).ok().filter(|_| y == dst)?;
                        let cell = DecodedInstr::BuiltinBr {
                            builtin,
                            mask,
                            imm: true,
                            a: x,
                            b: imm as u16,
                            on_true,
                            on_false,
                        };
                        return Some((cell, 2 + n));
                    }
                    let imm = i32::try_from(v).ok()?;
                    let (imm_left, src) = match (x == dst, y == dst) {
                        (true, false) => (true, y),
                        (false, true) => (false, x),
                        _ => return None,
                    };
                    crate::exec::has_scalar_fast_path(builtin).then_some((
                        DecodedInstr::BuiltinImm {
                            builtin,
                            mask,
                            imm_left,
                            dst: out,
                            src,
                            imm,
                        },
                        2,
                    ))
                }
                _ => None,
            },
            // Project + Inc keeps both effects (the projected value is
            // still written), so no dead-register requirement applies.
            // When *two* project-and-retain groups sit back to back (the
            // shape pattern matches compile to when peeling consecutive
            // constructor fields), fuse all four into one quad cell.
            DecodedInstr::Project { dst, src, idx } if next_free => match next {
                Some(DecodedInstr::Inc { src: inced }) if inced == dst => {
                    if i + 3 < old.len() && !targets[i + 2] && !targets[i + 3] {
                        if let (
                            DecodedInstr::Project {
                                dst: dst2,
                                src: src2,
                                idx: idx2,
                            },
                            DecodedInstr::Inc { src: inced2 },
                        ) = (old[i + 2], old[i + 3])
                        {
                            if inced2 == dst2 {
                                if let (Ok(idx1), Ok(idx2)) =
                                    (u16::try_from(idx), u16::try_from(idx2))
                                {
                                    // A trailing release (the scrutinee of
                                    // the match whose fields were just
                                    // peeled) rides along in the same cell.
                                    if i + 4 < old.len() && !targets[i + 4] {
                                        if let DecodedInstr::Dec { src: rel } = old[i + 4] {
                                            return Some((
                                                DecodedInstr::ProjInc2Dec {
                                                    dst1: dst,
                                                    src1: src,
                                                    idx1,
                                                    dst2,
                                                    src2,
                                                    idx2,
                                                    dec: rel,
                                                },
                                                5,
                                            ));
                                        }
                                    }
                                    return Some((
                                        DecodedInstr::ProjInc2 {
                                            dst1: dst,
                                            src1: src,
                                            idx1,
                                            dst2,
                                            src2,
                                            idx2,
                                        },
                                        4,
                                    ));
                                }
                            }
                        }
                    }
                    Some((DecodedInstr::ProjInc { dst, src, idx }, 2))
                }
                _ => None,
            },
            // Releases in one dispatch; pure effects, no liveness
            // concerns. RC-heavy code drops a constructor's fields in
            // bursts (and rc-opt's dec sinking stacks them deeper), so
            // fuse runs of four when the whole run is fusible, else two.
            DecodedInstr::Dec { src: a } if next_free => match next {
                Some(DecodedInstr::Dec { src: b }) => {
                    if i + 3 < old.len() && !targets[i + 2] && !targets[i + 3] {
                        if let (DecodedInstr::Dec { src: c }, DecodedInstr::Dec { src: d }) =
                            (old[i + 2], old[i + 3])
                        {
                            return Some((DecodedInstr::Dec4 { a, b, c, d }, 4));
                        }
                    }
                    Some((DecodedInstr::Dec2 { a, b }, 2))
                }
                _ => None,
            },
            DecodedInstr::CallBuiltin {
                dst,
                builtin,
                args,
                mask,
            } if next_free => match next {
                Some(DecodedInstr::Ret { src }) if src == dst => Some((
                    DecodedInstr::CallBuiltinRet {
                        builtin,
                        args,
                        mask,
                    },
                    2,
                )),
                _ if builtin.returns_scalar() => {
                    let &[a, b] = self.arg_regs(args) else {
                        return None;
                    };
                    let (on_true, on_false, n) = self.decided_branch(old, i, targets, reads)?;
                    let cell = DecodedInstr::BuiltinBr {
                        builtin,
                        mask,
                        imm: false,
                        a,
                        b: b.0,
                        on_true,
                        on_false,
                    };
                    Some((cell, 1 + n))
                }
                _ => None,
            },
            DecodedInstr::Construct { dst, tag, args } if next_free => match next {
                Some(DecodedInstr::Ret { src }) if src == dst => {
                    Some((DecodedInstr::ConstructRet { tag, args }, 2))
                }
                _ => None,
            },
            DecodedInstr::Switch {
                idx,
                cases,
                default,
            } => self.densify(idx, cases, default).map(|cell| (cell, 1)),
            _ => None,
        }
    }

    /// Rewrites a `Switch` whose case keys form a contiguous range into
    /// [`DecodedInstr::SwitchDense`], appending a key-sorted copy of the
    /// run to the case pool. Returns `None` — keep the scanning `Switch` —
    /// on gaps, duplicate keys, or fewer than two cases.
    fn densify(&mut self, idx: Reg, cases: ArgSlice, default: u32) -> Option<DecodedInstr> {
        let run = &self.cases[cases.range()];
        if run.len() < 2 {
            return None;
        }
        let min = run.iter().map(|&(v, _)| v).min()?;
        let max = run.iter().map(|&(v, _)| v).max()?;
        // Span == len - 1 with no duplicates ⇔ keys are contiguous.
        if max.checked_sub(min) != Some(run.len() as i64 - 1) {
            return None;
        }
        let mut sorted = run.to_vec();
        sorted.sort_by_key(|&(v, _)| v);
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let off = u32::try_from(self.cases.len()).expect("case pool exhausted");
        self.cases.extend_from_slice(&sorted);
        Some(DecodedInstr::SwitchDense {
            idx,
            cases: ArgSlice {
                off,
                len: cases.len,
            },
            default,
        })
    }

    /// Applies `f` to every register operand of every instruction,
    /// including the pool runs they reference. Orphaned pool runs (left
    /// behind by fusion-swallowed cells) are not visited: each live run is
    /// reached through the single instruction referencing it.
    fn for_each_reg_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        for i in 0..self.code.len() {
            let mut instr = self.code[i];
            let mut slice: Option<ArgSlice> = None;
            match &mut instr {
                DecodedInstr::ConstInt { dst, .. }
                | DecodedInstr::LpInt { dst, .. }
                | DecodedInstr::LpBig { dst, .. }
                | DecodedInstr::LpStr { dst, .. }
                | DecodedInstr::GlobalLoad { dst, .. } => f(dst),
                DecodedInstr::Construct { dst, args, .. } => {
                    f(dst);
                    slice = Some(*args);
                }
                DecodedInstr::GetLabel { dst, src }
                | DecodedInstr::Project { dst, src, .. }
                | DecodedInstr::ProjInc { dst, src, .. }
                | DecodedInstr::Move { dst, src }
                | DecodedInstr::Mask { dst, src, .. }
                | DecodedInstr::BuiltinImm { dst, src, .. } => {
                    f(dst);
                    f(src);
                }
                DecodedInstr::Pap {
                    dst,
                    args_off,
                    args_len,
                    ..
                } => {
                    f(dst);
                    slice = Some(ArgSlice {
                        off: *args_off,
                        len: *args_len,
                    });
                }
                DecodedInstr::Call {
                    dst,
                    args_off,
                    args_len,
                    ..
                } => {
                    f(dst);
                    slice = Some(ArgSlice {
                        off: *args_off,
                        len: *args_len,
                    });
                }
                DecodedInstr::TailCall {
                    args_off, args_len, ..
                } => {
                    slice = Some(ArgSlice {
                        off: *args_off,
                        len: *args_len,
                    });
                }
                DecodedInstr::PapExtend {
                    dst, closure, args, ..
                } => {
                    f(dst);
                    f(closure);
                    slice = Some(*args);
                }
                DecodedInstr::CallBuiltin { dst, args, .. } => {
                    f(dst);
                    slice = Some(*args);
                }
                DecodedInstr::CallBuiltinRet { args, .. }
                | DecodedInstr::ConstructRet { args, .. } => slice = Some(*args),
                DecodedInstr::Inc { src }
                | DecodedInstr::Dec { src }
                | DecodedInstr::Ret { src }
                | DecodedInstr::GlobalStore { src, .. } => f(src),
                DecodedInstr::Jump { .. } | DecodedInstr::Trap | DecodedInstr::ConstRet { .. } => {}
                DecodedInstr::Branch { cond, .. } => f(cond),
                DecodedInstr::Switch { idx, .. } | DecodedInstr::SwitchDense { idx, .. } => f(idx),
                DecodedInstr::Bin { dst, a, b, .. } | DecodedInstr::Cmp { dst, a, b, .. } => {
                    f(dst);
                    f(a);
                    f(b);
                }
                DecodedInstr::Select { dst, c, a, b } => {
                    f(dst);
                    f(c);
                    f(a);
                    f(b);
                }
                DecodedInstr::ConstCmpBr { a, .. } => f(a),
                DecodedInstr::BuiltinBr { a, b, imm, .. } => {
                    f(a);
                    if !*imm {
                        let mut r = Reg(*b);
                        f(&mut r);
                        *b = r.0;
                    }
                }
                DecodedInstr::Dec2 { a, b } => {
                    f(a);
                    f(b);
                }
                DecodedInstr::ProjInc2 {
                    dst1,
                    src1,
                    dst2,
                    src2,
                    ..
                } => {
                    f(dst1);
                    f(src1);
                    f(dst2);
                    f(src2);
                }
                DecodedInstr::Dec4 { a, b, c, d } => {
                    f(a);
                    f(b);
                    f(c);
                    f(d);
                }
                DecodedInstr::ProjInc2Dec {
                    dst1,
                    src1,
                    dst2,
                    src2,
                    dec,
                    ..
                } => {
                    f(dst1);
                    f(src1);
                    f(dst2);
                    f(src2);
                    f(dec);
                }
            }
            self.code[i] = instr;
            if let Some(s) = slice {
                for r in &mut self.args[s.range()] {
                    f(r);
                }
            }
        }
    }

    /// Decode-time register renumbering: compacts the registers this
    /// function actually references onto a dense prefix (parameters keep
    /// `0..arity` — the frame-pool calling convention depends on it),
    /// shrinking the pooled frame's register file. Post-fusion streams
    /// profit most: every register whose only read was swallowed by a
    /// superinstruction stops occupying a frame word.
    fn renumber(&mut self, bufs: &mut DecodeBuffers) -> RenumberStats {
        let n = self.n_regs as usize;
        let mut stats = RenumberStats {
            regs_before: n as u64,
            regs_after: n as u64,
            fns_compacted: 0,
        };
        let DecodeBuffers {
            used, regs: map, ..
        } = bufs;
        used.clear();
        used.resize(n, false);
        let mut out_of_range = false;
        self.for_each_reg_mut(|r| match used.get_mut(r.0 as usize) {
            Some(u) => *u = true,
            None => out_of_range = true,
        });
        // Malformed code may reference registers beyond `n_regs` — a
        // recoverable runtime error if executed. Renumbering would
        // silently legalise such an access, so leave the function alone.
        if out_of_range {
            return stats;
        }
        // Parameters are live on entry whether or not the body reads them
        // (`decode_program_with` asserts `arity <= n_regs`).
        for u in used.iter_mut().take(self.arity as usize) {
            *u = true;
        }
        let live = used.iter().filter(|&&u| u).count();
        if live == n {
            return stats;
        }
        map.clear();
        map.resize(n, Reg(0));
        let mut next: u16 = 0;
        for (i, &u) in used.iter().enumerate() {
            if u {
                map[i] = Reg(next);
                next += 1;
            }
        }
        self.for_each_reg_mut(|r| *r = map[r.0 as usize]);
        self.n_regs = next;
        stats.regs_after = u64::from(next);
        stats.fns_compacted = 1;
        stats
    }

    /// Assigns function-local inline-cache slot ids to the call-shaped
    /// cells ([`DecodedInstr::Call`]/[`DecodedInstr::PapExtend`]).
    /// Tail-call cells have no slot: a `TailCall`'s target is a static
    /// function index, so all a hit ever bought was skipping one
    /// bounds-checked `fns` lookup and an arity compare — on `binarytrees`
    /// the tail sites hit 94% of the time for zero measurable payoff,
    /// leaving the probe itself as pure overhead. Sites past
    /// `u16::MAX - 1` keep the [`NO_CACHE`] sentinel and execute uncached.
    fn assign_cache_slots(&mut self) {
        let mut next: u32 = 0;
        for instr in &mut self.code {
            if let DecodedInstr::Call { cache, .. } | DecodedInstr::PapExtend { cache, .. } = instr
            {
                *cache = if next < u32::from(NO_CACHE) {
                    next as u16
                } else {
                    NO_CACHE
                };
                next = next.saturating_add(1);
            }
        }
        self.cache_sites = next.min(u32::from(NO_CACHE)) as u16;
    }
}

/// A whole program in decoded form. Owns copies of the constant pools so
/// it is self-contained (a [`CompiledProgram`] can be dropped after
/// decoding).
#[derive(Debug, Clone, Default)]
pub struct DecodedProgram {
    /// Functions; closure [`lssa_rt::FuncId`]s index into this.
    pub fns: Vec<DecodedFn>,
    /// Big-integer constant pool.
    pub big_pool: Vec<Nat>,
    /// String constant pool.
    pub str_pool: Vec<String>,
    /// Global slot names.
    pub globals: Vec<String>,
    /// What the fusion pass did, summed over all functions (all zeros for
    /// an unfused decode).
    pub fusion: FusionStats,
    /// What the register-renumbering pass did, summed over all functions
    /// (all zeros for an unfused decode).
    pub renumber: RenumberStats,
    /// Total inline-cache slots across all functions (sizes the VM's
    /// per-instance cache pool).
    pub cache_slots: u32,
}

impl DecodedProgram {
    /// Looks up a function index by name.
    pub fn fn_index(&self, name: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.name == name)
    }
}

/// Readies a compiled program for execution under the given options:
/// copies every function, fuses and renumbers the copy when `opts.fuse`,
/// and assigns its inline-cache slots. Linear in code size; done once per
/// program, not once per executed instruction (see
/// [`CompiledProgram::decoded`] for the memoized entry point).
///
/// # Panics
///
/// When a hand-built function's arity exceeds its register file: the
/// frame-pool calling convention writes `arity` argument words, then
/// resizes to `n_regs`, which would silently drop arguments.
pub fn decode_program_with(program: &CompiledProgram, opts: DecodeOptions) -> DecodedProgram {
    let mut fusion = FusionStats::default();
    let mut renumber = RenumberStats::default();
    let mut cache_slots: u32 = 0;
    let mut bufs = DecodeBuffers::default();
    let fns = program
        .fns
        .iter()
        .map(|f| {
            assert!(
                f.arity <= f.n_regs,
                "@{}: arity {} exceeds register file size {}",
                f.name,
                f.arity,
                f.n_regs
            );
            let mut d = f.clone();
            if opts.fuse {
                fusion.absorb(&d.fuse(&mut bufs));
                renumber.absorb(&d.renumber(&mut bufs));
            }
            d.assign_cache_slots();
            d.cache_base = cache_slots;
            cache_slots = cache_slots
                .checked_add(u32::from(d.cache_sites))
                .expect("inline-cache pool exhausted");
            d
        })
        .collect();
    DecodedProgram {
        fns,
        big_pool: program.big_pool.clone(),
        str_pool: program.str_pool.clone(),
        globals: program.globals.clone(),
        fusion,
        renumber,
        cache_slots,
    }
}

/// The tables of fusion and renumbering, reused for every function of a
/// program.
#[derive(Debug, Default)]
struct DecodeBuffers {
    /// Per register: reads in the whole function.
    reads: Vec<u32>,
    /// Per cell: whether a jump can land on it.
    targets: Vec<bool>,
    /// The stream being fused.
    old: Vec<DecodedInstr>,
    /// Per cell of `old`: its index in the fused stream.
    map: Vec<u32>,
    /// Per register: referenced, then its new number.
    used: Vec<bool>,
    regs: Vec<Reg>,
}

/// [`decode_program_with`] under the default options (fusion on).
pub fn decode_program(program: &CompiledProgram) -> DecodedProgram {
    decode_program_with(program, DecodeOptions::default())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Function `name`, its cells emitted by `emit` through the emission
    /// methods the bytecode compiler uses.
    pub(crate) fn function(
        name: &str,
        arity: u16,
        n_regs: u16,
        emit: impl FnOnce(&mut DecodedFn) -> Result<(), CompileError>,
    ) -> DecodedFn {
        let mut f = DecodedFn::new(name, arity, n_regs);
        emit(&mut f).expect("a hand-built function fits the cells");
        f
    }

    #[test]
    fn decoded_instr_is_compact() {
        assert!(std::mem::size_of::<DecodedInstr>() <= 16);
    }

    #[test]
    fn arg_slices_share_one_pool() {
        let d = function("f", 3, 4, |f| {
            f.construct(Reg(3), 1, &[Reg(0), Reg(1)])?;
            f.call(Reg(3), 0, &[Reg(2), Reg(3), Reg(0)])?;
            f.code.push(DecodedInstr::Ret { src: Reg(3) });
            Ok(())
        });
        assert_eq!(d.args.len(), 5, "both lists live in the one pool");
        let DecodedInstr::Construct { args, .. } = d.code[0] else {
            panic!("expected construct");
        };
        assert_eq!(d.arg_regs(args), &[Reg(0), Reg(1)]);
        let DecodedInstr::Call {
            args_off, args_len, ..
        } = d.code[1]
        else {
            panic!("expected call");
        };
        assert_eq!(
            d.arg_regs(ArgSlice {
                off: args_off,
                len: args_len
            }),
            &[Reg(2), Reg(3), Reg(0)]
        );
    }

    #[test]
    fn switch_tables_share_the_case_pool() {
        let f = function("f", 1, 1, |f| {
            f.switch(Reg(0), [(0, 2), (5, 3)], 4)?;
            f.switch(Reg(0), [(7, 3)], 2)?;
            f.code.push(DecodedInstr::Trap);
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            Ok(())
        });
        assert_eq!(f.cases, [(0, 2), (5, 3), (7, 3)], "in emission order");
        let DecodedInstr::Switch { cases, default, .. } = f.code[1] else {
            panic!("expected switch, got {:?}", f.code[1]);
        };
        assert_eq!((&f.cases[cases.range()], default), (&[(7, 3)][..], 2));
    }

    #[test]
    fn op_classes_cover_every_instruction() {
        // `ALL` must agree with the discriminants used to index stats.
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        // Everything from the first fused class on is fused; nothing before.
        let first_fused = OpClass::FusedConstCmpBr as usize;
        for c in OpClass::ALL {
            assert_eq!(c.is_fused(), c as usize >= first_fused, "{}", c.name());
        }
    }

    #[test]
    fn tail_call_cells_get_no_cache_slot() {
        // Only `Call`/`PapExtend` sites own inline-cache slots, numbered
        // in stream order; a tail call, wherever it sits, owns none and
        // `cache_sites` does not count it.
        let p = CompiledProgram {
            fns: vec![function("f", 1, 3, |f| {
                f.call(Reg(1), 0, &[Reg(0)])?;
                f.tail_call(0, &[Reg(1)])?;
                f.pap_extend(Reg(2), Reg(1), &[Reg(0)])?;
                f.tail_call(0, &[Reg(2)])?;
                Ok(())
            })],
            ..CompiledProgram::default()
        };
        let d = decode_program_with(&p, DecodeOptions::fused());
        let f = &d.fns[0];
        let slots: Vec<(&str, u16)> = f
            .code
            .iter()
            .filter_map(|i| match *i {
                DecodedInstr::Call { cache, .. } => Some(("call", cache)),
                DecodedInstr::PapExtend { cache, .. } => Some(("papextend", cache)),
                _ => None,
            })
            .collect();
        assert_eq!(slots, [("call", 0), ("papextend", 1)]);
        let tails = f
            .code
            .iter()
            .filter(|i| matches!(i, DecodedInstr::TailCall { .. }))
            .count();
        assert_eq!(tails, 2);
        assert_eq!(f.cache_sites, 2, "tail sites must not consume a pool slot");
        assert_eq!(d.cache_slots, 2);
    }

    // ---- fusion pass ----

    fn fuse_one(mut f: DecodedFn) -> (DecodedFn, FusionStats) {
        // The fusion pass alone: these tests pin its output shapes, and
        // literal register expectations must not shift under compaction.
        let stats = f.fuse(&mut DecodeBuffers::default());
        (f, stats)
    }

    #[test]
    fn cmp_branch_bails_when_cond_is_read_elsewhere() {
        // The comparison result is also returned, so eliminating its write
        // would be wrong.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::ConstInt { dst: Reg(1), v: 7 });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Eq,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 3,
            });
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 0);
        assert!(matches!(f.code[0], DecodedInstr::ConstInt { .. }));
        assert!(matches!(f.code[1], DecodedInstr::Cmp { .. }));
    }

    #[test]
    fn fusion_bails_when_swallowed_instruction_is_a_jump_target() {
        // Something jumps straight at the Branch (expecting the condition
        // already computed), so the triple must stay three cells.
        let (f, stats) = fuse_one(function("f", 1, 4, |f| {
            f.code.push(DecodedInstr::ConstInt { dst: Reg(1), v: 7 });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Eq,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 4,
            });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::ConstInt { dst: Reg(2), v: 1 });
            f.code.push(DecodedInstr::Jump { target: 2 });
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 0);
        assert!(matches!(f.code[2], DecodedInstr::Branch { .. }));
    }

    #[test]
    fn fuses_const_cmp_branch_triple_both_operand_orders() {
        // Constant on the right: pred is kept.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::ConstInt { dst: Reg(1), v: 7 });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Slt,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 4,
            });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::Trap);
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 1);
        assert_eq!(stats.cells_saved, 2);
        assert_eq!(
            f.code[0],
            DecodedInstr::ConstCmpBr {
                pred: CmpPred::Slt,
                a: Reg(0),
                imm: 7,
                then_t: 1,
                else_t: 2,
            }
        );
        // Constant on the left: the stored predicate is swapped so the
        // semantics stay `pred(reg, imm)`.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::ConstInt { dst: Reg(1), v: 7 });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Slt,
                dst: Reg(2),
                a: Reg(1),
                b: Reg(0),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 4,
            });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::Trap);
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 1);
        assert_eq!(
            f.code[0],
            DecodedInstr::ConstCmpBr {
                pred: CmpPred::Sgt,
                a: Reg(0),
                imm: 7,
                then_t: 1,
                else_t: 2,
            }
        );
    }

    #[test]
    fn const_cmp_branch_bails_on_wide_immediates() {
        // An immediate beyond i32 cannot ride in the 16-byte cell; the
        // pass must fall back to the ConstInt + (unfusable) pair.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::ConstInt {
                dst: Reg(1),
                v: i64::MAX,
            });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Eq,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 3,
            });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 0);
        assert!(matches!(f.code[0], DecodedInstr::ConstInt { .. }));
    }

    #[test]
    fn fuses_ret_tail_shapes() {
        let (f, stats) = fuse_one(function("f", 0, 1, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(0), v: 9 });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            Ok(())
        }));
        assert_eq!(stats.const_ret, 1);
        assert_eq!(f.code[0], DecodedInstr::ConstRet { v: 9 });
        let (f, stats) = fuse_one(function("f", 2, 3, |f| {
            f.call_builtin(Reg(2), Builtin::NatAdd, &[Reg(0), Reg(1)], 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.call_builtin_ret, 1);
        assert!(matches!(
            f.code[0],
            DecodedInstr::CallBuiltinRet {
                builtin: Builtin::NatAdd,
                ..
            }
        ));
        let (f, stats) = fuse_one(function("f", 2, 3, |f| {
            f.construct(Reg(2), 4, &[Reg(0), Reg(1)])?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.construct_ret, 1);
        let DecodedInstr::ConstructRet { tag: 4, args } = f.code[0] else {
            panic!("expected ConstructRet, got {:?}", f.code[0]);
        };
        assert_eq!(f.arg_regs(args), &[Reg(0), Reg(1)]);
    }

    #[test]
    fn fuses_project_inc() {
        // The projected field is read later, which is fine: ProjInc keeps
        // the write (no dead-register requirement).
        let (f, stats) = fuse_one(function("f", 1, 2, |f| {
            f.code.push(DecodedInstr::Project {
                dst: Reg(1),
                src: Reg(0),
                idx: 3,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(1) });
            f.code.push(DecodedInstr::Ret { src: Reg(1) });
            Ok(())
        }));
        assert_eq!(stats.proj_inc, 1);
        assert_eq!(
            f.code[0],
            DecodedInstr::ProjInc {
                dst: Reg(1),
                src: Reg(0),
                idx: 3,
            }
        );
        assert!(matches!(f.code[1], DecodedInstr::Ret { src: Reg(1) }));
    }

    #[test]
    fn fuses_dec_dec_pairs() {
        let (f, stats) = fuse_one(function("f", 2, 3, |f| {
            f.code.push(DecodedInstr::Dec { src: Reg(0) });
            f.code.push(DecodedInstr::Dec { src: Reg(1) });
            f.code.push(DecodedInstr::LpInt { dst: Reg(2), v: 7 });
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.dec2, 1);
        assert_eq!(
            f.code[0],
            DecodedInstr::Dec2 {
                a: Reg(0),
                b: Reg(1)
            }
        );
        assert!(matches!(f.code[1], DecodedInstr::ConstRet { v: 7 }));
    }

    #[test]
    fn fuses_proj_inc_quad() {
        // Two adjacent project-and-retain groups collapse to one quad
        // cell; four original cells become one.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::Project {
                dst: Reg(1),
                src: Reg(0),
                idx: 0,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(1) });
            f.code.push(DecodedInstr::Project {
                dst: Reg(2),
                src: Reg(0),
                idx: 1,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(2) });
            f.code.push(DecodedInstr::Ret { src: Reg(1) });
            Ok(())
        }));
        assert_eq!(stats.proj_inc2, 1);
        assert_eq!(stats.proj_inc, 0);
        assert_eq!(
            f.code[0],
            DecodedInstr::ProjInc2 {
                dst1: Reg(1),
                src1: Reg(0),
                idx1: 0,
                dst2: Reg(2),
                src2: Reg(0),
                idx2: 1,
            }
        );
        assert!(matches!(f.code[1], DecodedInstr::Ret { src: Reg(1) }));
    }

    #[test]
    fn proj_inc_quad_bails_to_pairs_on_wide_index_or_jump_target() {
        // A field index beyond u16 cannot ride in the quad cell: the two
        // groups fuse as independent ProjInc pairs instead.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::Project {
                dst: Reg(1),
                src: Reg(0),
                idx: 1 << 20,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(1) });
            f.code.push(DecodedInstr::Project {
                dst: Reg(2),
                src: Reg(0),
                idx: 1,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(2) });
            f.code.push(DecodedInstr::Ret { src: Reg(1) });
            Ok(())
        }));
        assert_eq!((stats.proj_inc2, stats.proj_inc), (0, 2));
        assert!(matches!(f.code[0], DecodedInstr::ProjInc { .. }));
        assert!(matches!(f.code[1], DecodedInstr::ProjInc { .. }));
        // A jump target at the second group's head likewise splits the
        // quad: control may enter there, so the groups must stay separate
        // cells.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::Project {
                dst: Reg(1),
                src: Reg(0),
                idx: 0,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(1) });
            f.code.push(DecodedInstr::Project {
                dst: Reg(2),
                src: Reg(0),
                idx: 1,
            });
            f.code.push(DecodedInstr::Inc { src: Reg(2) });
            f.code.push(DecodedInstr::Jump { target: 2 });
            Ok(())
        }));
        assert_eq!((stats.proj_inc2, stats.proj_inc), (0, 2));
        assert!(matches!(f.code[2], DecodedInstr::Jump { target: 1 }));
    }

    #[test]
    fn jump_targets_remap_across_fused_boundaries() {
        // A diamond whose join sits *after* two fused pairs of different
        // widths; every target must land on the right post-fusion cell.
        let (f, stats) = fuse_one(function("f", 1, 4, |f| {
            // 0..=2 fuse into one ConstCmpBr cell.
            f.code.push(DecodedInstr::ConstInt { dst: Reg(1), v: 0 });
            f.code.push(DecodedInstr::Cmp {
                pred: CmpPred::Eq,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            });
            f.code.push(DecodedInstr::Branch {
                cond: Reg(2),
                then_t: 3,
                else_t: 5,
            });
            // then-block: 3..=4 fuse into one ConstRet cell.
            f.code.push(DecodedInstr::LpInt { dst: Reg(3), v: 1 });
            f.code.push(DecodedInstr::Ret { src: Reg(3) });
            // else-block: a jump over a trap to the tail.
            f.code.push(DecodedInstr::Jump { target: 7 });
            f.code.push(DecodedInstr::Trap);
            f.code.push(DecodedInstr::LpInt { dst: Reg(3), v: 2 });
            f.code.push(DecodedInstr::Ret { src: Reg(3) });
            Ok(())
        }));
        assert_eq!(stats.const_cmp_br, 1);
        assert_eq!(stats.const_ret, 2);
        assert_eq!(stats.cells_saved, 4);
        // Stream: [ConstCmpBr, ConstRet(1), Jump, Trap, ConstRet(2)].
        assert_eq!(f.code.len(), 5);
        assert_eq!(
            f.code[0],
            DecodedInstr::ConstCmpBr {
                pred: CmpPred::Eq,
                a: Reg(0),
                imm: 0,
                then_t: 1,
                else_t: 2,
            }
        );
        assert_eq!(f.code[1], DecodedInstr::ConstRet { v: 1 });
        assert_eq!(f.code[2], DecodedInstr::Jump { target: 4 });
        assert_eq!(f.code[4], DecodedInstr::ConstRet { v: 2 });
    }

    #[test]
    fn dense_switch_fast_path_and_fallbacks() {
        let switch_over = |cases: &[(i64, u32)]| {
            let n = cases.len() as u32;
            fuse_one(function("f", 1, 1, |f| {
                f.switch(Reg(0), cases.iter().copied(), n + 1)?;
                f.code
                    .extend((0..=n).map(|_| DecodedInstr::Ret { src: Reg(0) }));
                f.code.push(DecodedInstr::Trap);
                Ok(())
            }))
        };
        // Contiguous but unsorted keys: densified, pool run sorted.
        let (f, stats) = switch_over(&[(12, 2), (10, 1), (11, 3)]);
        assert_eq!(stats.switch_dense, 1);
        assert_eq!(stats.cells_saved, 0, "densify keeps the cell count");
        let DecodedInstr::SwitchDense { cases, default, .. } = f.code[0] else {
            panic!("expected SwitchDense, got {:?}", f.code[0]);
        };
        assert_eq!(&f.cases[cases.range()], &[(10, 1), (11, 3), (12, 2)]);
        assert_eq!(default, 4);
        // A gap in the keys: stays a scanning Switch.
        let (f, stats) = switch_over(&[(10, 1), (12, 2), (13, 3)]);
        assert_eq!(stats.switch_dense, 0);
        assert!(matches!(f.code[0], DecodedInstr::Switch { .. }));
        // Duplicate keys (span happens to match the length): scan keeps
        // first-match-wins semantics.
        let (f, stats) = switch_over(&[(10, 1), (10, 2), (12, 3)]);
        assert_eq!(stats.switch_dense, 0);
        assert!(matches!(f.code[0], DecodedInstr::Switch { .. }));
    }

    #[test]
    fn out_of_range_jump_targets_skip_fusion_instead_of_panicking() {
        // Malformed code decodes fine and fails at *runtime* with a
        // recoverable "pc out of range" error; fusion must preserve that
        // instead of panicking while remapping.
        let (f, stats) = fuse_one(function("f", 0, 1, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(0), v: 1 });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::Jump { target: 99 });
            Ok(())
        }));
        assert_eq!(stats, FusionStats::default());
        assert_eq!(f.code.len(), 3, "stream left unfused");
    }

    #[test]
    #[should_panic(expected = "@f: arity 2 exceeds register file size 1")]
    fn an_arity_above_the_register_file_is_refused() {
        // The frame-pool calling convention would drop the second argument.
        let p = CompiledProgram {
            fns: vec![function("f", 2, 1, |f| {
                f.code.push(DecodedInstr::Ret { src: Reg(0) });
                Ok(())
            })],
            ..CompiledProgram::default()
        };
        decode_program_with(&p, DecodeOptions::no_fuse());
    }

    #[test]
    fn out_of_range_registers_decode_without_panicking() {
        // An unreachable instruction naming a register beyond n_regs is
        // decodable (and runnable — the bad cell never executes); the
        // fusion pass's read counting must tolerate it.
        let (f, stats) = fuse_one(function("f", 0, 1, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(0), v: 1 });
            f.code.push(DecodedInstr::Ret { src: Reg(0) });
            f.code.push(DecodedInstr::Ret { src: Reg(9) });
            Ok(())
        }));
        assert_eq!(stats.const_ret, 1, "reachable prefix still fuses");
        assert!(matches!(f.code[0], DecodedInstr::ConstRet { v: 1 }));
    }

    #[test]
    fn no_fuse_option_leaves_the_stream_alone() {
        let p = CompiledProgram {
            fns: vec![function("f", 0, 1, |f| {
                f.code.push(DecodedInstr::LpInt { dst: Reg(0), v: 1 });
                f.code.push(DecodedInstr::Ret { src: Reg(0) });
                Ok(())
            })],
            ..CompiledProgram::default()
        };
        let d = decode_program_with(&p, DecodeOptions::no_fuse());
        assert_eq!(d.fusion, FusionStats::default());
        assert_eq!(d.fns[0].code, p.fns[0].code, "the compiler's cells");
    }

    // ---- scalar builtins: decided branches, immediates, retain folding ----

    /// Emits `r{dst} ← builtin(r{a}, r{b})`.
    fn call2(
        f: &mut DecodedFn,
        dst: u16,
        builtin: Builtin,
        a: u16,
        b: u16,
        mask: u8,
    ) -> Result<(), CompileError> {
        f.call_builtin(Reg(dst), builtin, &[Reg(a), Reg(b)], mask)
    }

    /// Emits `r2 ← builtin(r0, r1)`, `r3 ← label(r2)`, then mlir's
    /// `ConstInt r4, 0` + `Cmp` (constant on the given side) + `Branch`
    /// to `Ret r0` / `Ret r1`, after the cells `f` already holds.
    fn mlir_decided(
        f: &mut DecodedFn,
        builtin: Builtin,
        pred: CmpPred,
        const_left: bool,
    ) -> Result<(), CompileError> {
        let (a, b) = if const_left {
            (Reg(4), Reg(3))
        } else {
            (Reg(3), Reg(4))
        };
        let at = f.code.len() as u32;
        call2(f, 2, builtin, 0, 1, 0)?;
        f.code.push(DecodedInstr::GetLabel {
            dst: Reg(3),
            src: Reg(2),
        });
        f.code.push(DecodedInstr::ConstInt { dst: Reg(4), v: 0 });
        f.code.push(DecodedInstr::Cmp {
            pred,
            dst: Reg(5),
            a,
            b,
        });
        f.code.push(DecodedInstr::Branch {
            cond: Reg(5),
            then_t: at + 5,
            else_t: at + 6,
        });
        f.code.push(DecodedInstr::Ret { src: Reg(0) });
        f.code.push(DecodedInstr::Ret { src: Reg(1) });
        Ok(())
    }

    #[test]
    fn fuses_decided_compare_and_branch_with_the_constant_either_side() {
        // `label == 0` branches to `then` when the builtin returns 0.
        let (f, stats) = fuse_one(function("f", 2, 6, |f| {
            mlir_decided(f, Builtin::NatDecLt, CmpPred::Eq, false)
        }));
        assert_eq!((stats.builtin_br, stats.cells_saved), (1, 4));
        assert_eq!(
            f.code[0],
            DecodedInstr::BuiltinBr {
                builtin: Builtin::NatDecLt,
                mask: 0,
                imm: false,
                a: Reg(0),
                b: 1,
                on_true: 2,
                on_false: 1,
            }
        );
        assert_eq!(f.code.len(), 3);
        // `0 < label` holds only for result 1.
        let (f, stats) = fuse_one(function("f", 2, 6, |f| {
            mlir_decided(f, Builtin::IntDecLe, CmpPred::Slt, true)
        }));
        assert_eq!(stats.builtin_br, 1);
        assert!(matches!(
            f.code[0],
            DecodedInstr::BuiltinBr {
                builtin: Builtin::IntDecLe,
                on_true: 1,
                on_false: 2,
                ..
            }
        ));
    }

    #[test]
    fn fuses_decided_compare_and_switch_for_every_case_table() {
        // Swallowing the GetLabel and the Switch shifts `Ret r0` to 1,
        // `Ret r1` to 2 and the default `Trap` to 3.
        for (cases, on_true, on_false) in [
            (vec![(0, 3), (1, 4)], 2, 1),
            (vec![(0, 3)], 3, 1),
            (vec![(1, 4)], 2, 3),
            (vec![], 3, 3),
        ] {
            let (f, stats) = fuse_one(function("f", 2, 4, |f| {
                call2(f, 2, Builtin::NatDecEq, 0, 1, 3)?;
                f.code.push(DecodedInstr::GetLabel {
                    dst: Reg(3),
                    src: Reg(2),
                });
                f.switch(Reg(3), cases.iter().copied(), 5)?;
                f.code.push(DecodedInstr::Ret { src: Reg(0) });
                f.code.push(DecodedInstr::Ret { src: Reg(1) });
                f.code.push(DecodedInstr::Trap);
                Ok(())
            }));
            assert_eq!((stats.builtin_br, stats.cells_saved), (1, 2), "{cases:?}");
            assert_eq!(
                f.code[0],
                DecodedInstr::BuiltinBr {
                    builtin: Builtin::NatDecEq,
                    mask: 3,
                    imm: false,
                    a: Reg(0),
                    b: 1,
                    on_true,
                    on_false,
                },
                "{cases:?}"
            );
        }
    }

    #[test]
    fn a_small_right_constant_rides_along_in_the_decided_branch() {
        let (f, stats) = fuse_one(function("f", 1, 6, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(1), v: -7 });
            mlir_decided(f, Builtin::NatDecEq, CmpPred::Eq, false)?;
            f.code[7] = DecodedInstr::Trap;
            Ok(())
        }));
        assert_eq!((stats.builtin_br, stats.cells_saved), (1, 5));
        assert_eq!(
            f.code[0],
            DecodedInstr::BuiltinBr {
                builtin: Builtin::NatDecEq,
                mask: 0,
                imm: true,
                a: Reg(0),
                b: -7i16 as u16,
                on_true: 2,
                on_false: 1,
            }
        );
    }

    #[test]
    fn fuses_constant_operand_into_builtin_either_side() {
        // `r2 ← r0 - 1`.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(1), v: 1 });
            call2(f, 2, Builtin::NatSub, 0, 1, 1)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!((stats.builtin_imm, stats.cells_saved), (1, 1));
        assert_eq!(
            f.code[0],
            DecodedInstr::BuiltinImm {
                builtin: Builtin::NatSub,
                mask: 1,
                imm_left: false,
                dst: Reg(2),
                src: Reg(0),
                imm: 1,
            }
        );
        // `r2 ← -100 + r0`: the mask keeps naming argument positions.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::LpInt {
                dst: Reg(1),
                v: -100,
            });
            call2(f, 2, Builtin::IntAdd, 1, 0, 2)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.builtin_imm, 1);
        assert_eq!(
            f.code[0],
            DecodedInstr::BuiltinImm {
                builtin: Builtin::IntAdd,
                mask: 2,
                imm_left: true,
                dst: Reg(2),
                src: Reg(0),
                imm: -100,
            }
        );
    }

    #[test]
    fn decided_branch_bails_when_the_result_is_read_elsewhere() {
        // Returned after the branch, or stored into a constructor.
        for construct in [false, true] {
            let (f, stats) = fuse_one(function("f", 2, 7, |f| {
                mlir_decided(f, Builtin::NatDecEq, CmpPred::Eq, false)?;
                f.code[5] = DecodedInstr::Ret { src: Reg(2) };
                if construct {
                    // Emitted last, then moved over cell 5.
                    f.construct(Reg(6), 1, &[Reg(2)])?;
                    f.code.swap_remove(5);
                }
                Ok(())
            }));
            assert_eq!(stats.builtin_br, 0);
            assert!(matches!(f.code[0], DecodedInstr::CallBuiltin { .. }));
        }
        // Likewise the label.
        let (_, stats) = fuse_one(function("f", 2, 6, |f| {
            mlir_decided(f, Builtin::NatDecEq, CmpPred::Eq, false)?;
            f.code[5] = DecodedInstr::Ret { src: Reg(3) };
            Ok(())
        }));
        assert_eq!(stats.builtin_br, 0);
    }

    #[test]
    fn decided_branch_bails_when_a_swallowed_cell_is_a_jump_target() {
        for target in 1..=4 {
            let (f, stats) = fuse_one(function("f", 2, 6, |f| {
                mlir_decided(f, Builtin::NatDecEq, CmpPred::Eq, false)?;
                f.code[6] = DecodedInstr::Jump { target };
                Ok(())
            }));
            assert_eq!(stats.builtin_br, 0, "jump to {target}");
            assert!(matches!(f.code[0], DecodedInstr::CallBuiltin { .. }));
        }
    }

    #[test]
    fn immediates_bail_beyond_their_width() {
        // Beyond `i16` the constant stays a cell, and the call still
        // fuses with its branch.
        let (f, stats) = fuse_one(function("f", 1, 6, |f| {
            f.code.push(DecodedInstr::LpInt {
                dst: Reg(1),
                v: 40_000,
            });
            mlir_decided(f, Builtin::NatDecEq, CmpPred::Eq, false)?;
            f.code[7] = DecodedInstr::Trap;
            Ok(())
        }));
        assert_eq!((stats.builtin_br, stats.builtin_imm), (1, 0));
        assert!(matches!(f.code[0], DecodedInstr::LpInt { v: 40_000, .. }));
        assert!(matches!(
            f.code[1],
            DecodedInstr::BuiltinBr { imm: false, .. }
        ));
        // Beyond `i32` an arithmetic builtin keeps its constant cell.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::LpInt {
                dst: Reg(1),
                v: 1 << 40,
            });
            call2(f, 2, Builtin::NatAdd, 0, 1, 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.builtin_imm, 0);
        assert!(matches!(f.code[0], DecodedInstr::LpInt { .. }));
    }

    #[test]
    fn builtins_without_a_scalar_fast_path_bail() {
        // No immediate form for `NatPow`, and no branch form for a builtin
        // whose result is not a decided boolean.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::LpInt { dst: Reg(1), v: 2 });
            call2(f, 2, Builtin::NatPow, 0, 1, 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.builtin_imm, 0);
        assert!(matches!(f.code[0], DecodedInstr::LpInt { .. }));
        let (f, stats) = fuse_one(function("f", 2, 6, |f| {
            mlir_decided(f, Builtin::NatSub, CmpPred::Eq, false)
        }));
        assert_eq!(stats.builtin_br, 0);
        assert!(matches!(f.code[0], DecodedInstr::CallBuiltin { .. }));
    }

    #[test]
    fn retains_fold_into_the_borrow_mask_of_the_next_builtin() {
        // Adjacent `Inc`s of arguments with a clear bit fold, one bit each
        // (a register passed twice takes two); an `Inc` of another
        // register, or a third of the doubled one, stays.
        let (f, stats) = fuse_one(function("f", 3, 4, |f| {
            f.code.push(DecodedInstr::Inc { src: Reg(2) });
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            call2(f, 3, Builtin::StrAppend, 0, 0, 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(3) });
            Ok(())
        }));
        assert_eq!((stats.retains_folded, stats.cells_saved), (2, 3));
        assert_eq!(f.code[0], DecodedInstr::Inc { src: Reg(2) });
        assert_eq!(f.code[1], DecodedInstr::Inc { src: Reg(0) });
        assert!(matches!(
            f.code[2],
            DecodedInstr::CallBuiltinRet { mask: 3, .. }
        ));
        // A bit already set (an rc-opt borrow) takes no second retain.
        let (f, stats) = fuse_one(function("f", 2, 3, |f| {
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            call2(f, 2, Builtin::StrAppend, 0, 1, 1)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!(stats.retains_folded, 0);
        assert_eq!(f.code[0], DecodedInstr::Inc { src: Reg(0) });
    }

    #[test]
    fn retain_folding_stops_at_other_cells_and_jump_targets() {
        // `Inc r0; LpInt r1; r2 ← r0 - r1`: the retain is not adjacent to
        // the call and stays; the constant still folds into the builtin.
        let (f, stats) = fuse_one(function("f", 1, 3, |f| {
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            f.code.push(DecodedInstr::LpInt { dst: Reg(1), v: 1 });
            call2(f, 2, Builtin::NatSub, 0, 1, 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            Ok(())
        }));
        assert_eq!((stats.retains_folded, stats.builtin_imm), (0, 1));
        assert_eq!(f.code[0], DecodedInstr::Inc { src: Reg(0) });
        assert!(matches!(
            f.code[1],
            DecodedInstr::BuiltinImm {
                mask: 0,
                imm: 1,
                ..
            }
        ));
        // Control enters at the second `Inc`: the first stays, the second
        // folds, and the jump lands on the call that now retains.
        let (f, stats) = fuse_one(function("f", 2, 3, |f| {
            f.code.push(DecodedInstr::Inc { src: Reg(0) });
            f.code.push(DecodedInstr::Inc { src: Reg(1) });
            call2(f, 2, Builtin::StrAppend, 0, 1, 0)?;
            f.code.push(DecodedInstr::Ret { src: Reg(2) });
            f.code.push(DecodedInstr::Jump { target: 1 });
            Ok(())
        }));
        assert_eq!(stats.retains_folded, 1);
        assert_eq!(f.code[0], DecodedInstr::Inc { src: Reg(0) });
        assert!(matches!(
            f.code[1],
            DecodedInstr::CallBuiltinRet { mask: 2, .. }
        ));
        assert_eq!(f.code[2], DecodedInstr::Jump { target: 1 });
    }
}
