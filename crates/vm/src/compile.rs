//! Compiling flat-CFG IR to bytecode (the project's "LLVM backend").
//!
//! Accepts modules whose functions are fully lowered: `arith` + `cf` +
//! `func` ops plus the *data* subset of `lp` (constants, constructors,
//! projections, closures, refcounting). Region-carrying ops are rejected —
//! run the `lssa-core` lowerings first.
//!
//! The compiler emits the cells the VM runs ([`DecodedInstr`]): one pass
//! over a function's blocks writes its code vector, argument pool and case
//! pool, interning operand lists in emission order, then patches jump and
//! case targets in place once every block is placed. A `u16` counts a
//! function's registers, a cell's operands and a switch's entries, so a
//! function needing more than 65,535 of any of them is refused with a
//! [`CompileError`] that names it.
//!
//! Two choices here exist for the decoder's fusion pass
//! ([`crate::decode`]), which only looks at adjacent cells:
//!
//! - a constant whose every use is a `cmpi` or builtin-call operand is
//!   materialized in a fresh register directly in front of each use, not
//!   once at its definition, so every such comparison and call sees its
//!   constant in the preceding cell;
//! - an `lp.inc`/`lp.dec` of a decided comparison's result
//!   ([`Builtin::returns_scalar`]) emits nothing: the value is always a
//!   scalar, on which these ops would only bump heap statistics.
//!
//! The per-function tables (registers, facts, block offsets, branch
//! fixups, operand registers) are buffers one [`compile_module`] reuses for
//! every function; a function allocates its name, its code and its two
//! pools, each reserved once from the function's ops.

use crate::bytecode::{BinOp, CompiledProgram, Reg};
use crate::decode::{DecodedFn, DecodedInstr};
use lssa_ir::attr::AttrKey;
use lssa_ir::body::{Body, Successor, ROOT_REGION};
use lssa_ir::hash::FxHashMap;
use lssa_ir::ids::{BlockId, OpId, Symbol, ValueId};
use lssa_ir::module::Module;
use lssa_ir::opcode::Opcode;
use lssa_rt::{Builtin, Nat};
use std::fmt;

/// A compilation failure: an unsupported shape reaching the backend, or a
/// function wider than the cells encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode compilation error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        message: message.into(),
    }
}

/// The error for function `func` needing more `what` than a `u16` counts.
pub(crate) fn over_limit(func: &str, what: &str) -> CompileError {
    err(format!(
        "@{func} needs more than {} {what}, the most the VM encodes",
        u16::MAX
    ))
}

/// Compiles a lowered module to bytecode.
///
/// # Errors
///
/// Returns an error if an op that requires further lowering (regions,
/// `lp.switch`, `rgn.*`) reaches the backend, or if a function needs more
/// than 65,535 registers, operands in one cell or entries in one switch.
pub fn compile_module(module: &Module) -> Result<CompiledProgram, CompileError> {
    let mut program = CompiledProgram::default();
    // User functions get VM indices in module order; builtins are resolved
    // by name the first time a function calls them.
    let user_fns = module.funcs.iter().filter(|f| !f.is_extern()).count();
    let mut callees: FxHashMap<Symbol, Callee> = FxHashMap::default();
    callees.reserve(user_fns);
    let mut next = 0u32;
    for f in &module.funcs {
        if !f.is_extern() {
            callees.insert(f.name, Callee::Fn(next));
            next += 1;
        }
    }
    for g in &module.globals {
        program.globals.push(module.name_of(g.name).to_string());
    }
    program.fns.reserve_exact(user_fns);
    let mut bufs = FnBuffers::default();
    for f in &module.funcs {
        let Some(body) = &f.body else { continue };
        bufs.regs.clear();
        bufs.regs.resize(body.values.len(), None);
        bufs.facts.clear();
        bufs.facts.resize(body.values.len(), 0);
        let compiled = FnCompiler {
            module,
            body,
            callees: &mut callees,
            program: &mut program,
            bufs: &mut bufs,
            out: DecodedFn::new(module.name_of(f.name), 0, 0),
        }
        .compile()?;
        program.fns.push(compiled);
    }
    Ok(program)
}

/// The tables of one function's compilation, reused for the next.
#[derive(Debug, Default)]
struct FnBuffers {
    /// Register of each value, indexed by [`ValueId::index`].
    regs: Vec<Option<Reg>>,
    /// What [`FnCompiler::gather_facts`] learned about each value: a set of
    /// `CONSTANT`, `ESCAPES` and `DECIDED` bits, indexed by
    /// [`ValueId::index`].
    facts: Vec<u8>,
    /// Code offset of each placed block, indexed by [`BlockId::index`].
    block_offsets: Vec<Option<usize>>,
    /// Fixups: (cell index, which target slot, destination block).
    fixups: Vec<(usize, usize, BlockId)>,
    /// The operand registers of the op being compiled.
    srcs: Vec<Reg>,
    /// Source, then destination registers of the edge being compiled.
    edge: Vec<Reg>,
}

/// What a call's callee symbol resolves to.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// A user function, by VM index.
    Fn(u32),
    /// A runtime builtin.
    Builtin(Builtin),
}

struct FnCompiler<'a> {
    module: &'a Module,
    body: &'a Body,
    /// The module's callee table, shared by all its functions.
    callees: &'a mut FxHashMap<Symbol, Callee>,
    program: &'a mut CompiledProgram,
    bufs: &'a mut FnBuffers,
    /// The function being emitted; its `n_regs` counts the registers
    /// allocated so far.
    out: DecodedFn,
}

/// The value is defined by `arith.constant` or `lp.int`.
const CONSTANT: u8 = 1;
/// Some op other than a `cmpi` or builtin call uses the value. A constant
/// that does not escape is materialized at each use instead of at its
/// definition.
const ESCAPES: u8 = 2;
/// The value is the result of a decided comparison
/// ([`Builtin::returns_scalar`]): its `lp.inc`/`lp.dec` emit nothing.
const DECIDED: u8 = 4;

impl FnCompiler<'_> {
    fn reg(&mut self, v: ValueId) -> Result<Reg, CompileError> {
        if let Some(r) = self.bufs.regs[v.index()] {
            return Ok(r);
        }
        let r = self.fresh_reg()?;
        self.bufs.regs[v.index()] = Some(r);
        Ok(r)
    }

    fn fresh_reg(&mut self) -> Result<Reg, CompileError> {
        let r = self.out.n_regs;
        self.out.n_regs = r
            .checked_add(1)
            .ok_or_else(|| over_limit(&self.out.name, "registers"))?;
        Ok(Reg(r))
    }

    fn callee_of(&self, op: OpId) -> Result<Symbol, CompileError> {
        self.body.ops[op.index()]
            .attr(AttrKey::Callee)
            .and_then(|a| a.as_sym())
            .ok_or_else(|| err("call without callee"))
    }

    /// Resolves a call's callee, parsing a builtin's name only the first
    /// time the module calls it.
    fn callee(&mut self, op: OpId) -> Result<Callee, CompileError> {
        let sym = self.callee_of(op)?;
        if let Some(&c) = self.callees.get(&sym) {
            return Ok(c);
        }
        let name = self.module.name_of(sym);
        let builtin: Builtin = name
            .parse()
            .map_err(|_| err(format!("call to unknown extern @{name}")))?;
        self.callees.insert(sym, Callee::Builtin(builtin));
        Ok(Callee::Builtin(builtin))
    }

    /// Fills [`FnBuffers::facts`] in one walk over the function's ops, and
    /// returns a bound on the entries the cells will take in the argument
    /// pool and in the case pool.
    fn gather_facts(&mut self, blocks: &[BlockId]) -> (usize, usize) {
        let body = self.body;
        let (mut args, mut cases) = (0, 0);
        for &block in blocks {
            for &op in &body.blocks[block.index()].ops {
                let data = &body.ops[op.index()];
                let fusible = match data.opcode {
                    Opcode::ConstI | Opcode::LpInt => {
                        if let Some(&r) = data.results.first() {
                            self.bufs.facts[r.index()] |= CONSTANT;
                        }
                        false
                    }
                    Opcode::CmpI => true,
                    Opcode::Call | Opcode::TailCall => {
                        args += data.operands.len();
                        match self.callee(op) {
                            Ok(Callee::Builtin(b)) => {
                                if let (true, Some(&r)) = (b.returns_scalar(), data.results.first())
                                {
                                    self.bufs.facts[r.index()] |= DECIDED;
                                }
                                true
                            }
                            _ => false,
                        }
                    }
                    Opcode::LpConstruct | Opcode::LpPap | Opcode::LpPapExtend => {
                        args += data.operands.len();
                        false
                    }
                    Opcode::SwitchBr => {
                        cases += data.successors.len().saturating_sub(1);
                        false
                    }
                    _ => false,
                };
                if !fusible {
                    for &v in &data.operands {
                        self.bufs.facts[v.index()] |= ESCAPES;
                    }
                }
                for s in &data.successors {
                    for &v in &s.args {
                        self.bufs.facts[v.index()] |= ESCAPES;
                    }
                }
            }
        }
        (args, cases)
    }

    /// Materializes constant `v`, which does not escape, into a fresh
    /// register right here, in front of the op using it.
    fn materialize(&mut self, v: ValueId) -> Result<Reg, CompileError> {
        let def = self
            .body
            .defining_op(v)
            .ok_or_else(|| err("constant without defining op"))?;
        let dst = self.fresh_reg()?;
        let cell = self.constant(def, dst)?;
        self.out.code.push(cell);
        Ok(dst)
    }

    /// The cell loading the value of constant op `op` (`arith.constant`
    /// or `lp.int`) into `dst`.
    fn constant(&self, op: OpId, dst: Reg) -> Result<DecodedInstr, CompileError> {
        let data = &self.body.ops[op.index()];
        let v = data.attr(AttrKey::Value).and_then(|a| a.as_int());
        if data.opcode == Opcode::LpInt {
            let v = v.ok_or_else(|| err("lp.int without value"))?;
            return Ok(DecodedInstr::LpInt { dst, v });
        }
        let v = v.ok_or_else(|| err("constant without value"))?;
        let ty = self.body.value_type(data.results[0]);
        // i8/i1 raw values are kept zero-extended.
        let v = match ty.bit_width() {
            Some(bits) if bits < 64 => v & ((1i64 << bits) - 1),
            _ => v,
        };
        Ok(DecodedInstr::ConstInt { dst, v })
    }

    fn compile(mut self) -> Result<DecodedFn, CompileError> {
        // Parameters occupy registers 0..arity.
        for &p in self.body.params() {
            self.reg(p)?;
        }
        self.out.arity = self.out.n_regs;
        let body = self.body;
        let blocks = &body.regions[ROOT_REGION.index()].blocks;
        let (args, cases) = self.gather_facts(blocks);
        // About one cell per op: constants that materialize at their uses
        // and edge moves add some, folded incs and decs remove some.
        let ops = blocks
            .iter()
            .map(|b| body.blocks[b.index()].ops.len())
            .sum();
        self.out.code.reserve_exact(ops);
        self.out.args.reserve_exact(args);
        self.out.cases.reserve_exact(cases);
        let mut block_offsets = std::mem::take(&mut self.bufs.block_offsets);
        block_offsets.clear();
        block_offsets.resize(body.blocks.len(), None);
        let mut fixups = std::mem::take(&mut self.bufs.fixups);
        fixups.clear();
        // An error ends the module's compilation, so the buffers taken out
        // need to go back only on success.
        for &block in blocks {
            block_offsets[block.index()] = Some(self.out.code.len());
            for &op in &body.blocks[block.index()].ops {
                self.compile_op(op, &mut fixups)?;
            }
        }
        for &(at, slot, dest) in &fixups {
            let target = block_offsets
                .get(dest.index())
                .copied()
                .flatten()
                .ok_or_else(|| err(format!("branch to unplaced block {dest}")))?;
            self.patch_target(at, slot, target);
        }
        self.bufs.block_offsets = block_offsets;
        self.bufs.fixups = fixups;
        Ok(self.out)
    }

    /// Points target slot `slot` of the branch cell at `at` to cell
    /// `target`: a `Branch`'s slots are its two targets, a `Switch`'s its
    /// cases in order, then its default.
    fn patch_target(&mut self, at: usize, slot: usize, target: usize) {
        let target = u32::try_from(target).expect("function body exceeds u32 cells");
        let DecodedFn { code, cases, .. } = &mut self.out;
        match &mut code[at] {
            DecodedInstr::Jump { target: t } => *t = target,
            DecodedInstr::Branch { then_t, else_t, .. } => {
                *if slot == 0 { then_t } else { else_t } = target;
            }
            DecodedInstr::Switch {
                cases: run,
                default,
                ..
            } => match cases[run.range()].get_mut(slot) {
                Some((_, t)) => *t = target,
                None => *default = target,
            },
            other => panic!("cannot patch target of {other:?}"),
        }
    }

    /// Emits a jump to `dest`, patched once `dest` is placed.
    fn jump_to(&mut self, dest: BlockId, fixups: &mut Vec<(usize, usize, BlockId)>) {
        fixups.push((self.out.code.len(), 0, dest));
        self.out.code.push(DecodedInstr::Jump { target: u32::MAX });
    }

    /// Points target slot *i* of the branch cell at `at` to successor *i*:
    /// directly, or through a trampoline of edge moves and a jump when the
    /// edge carries arguments.
    fn emit_arms(
        &mut self,
        at: usize,
        succs: &[Successor],
        fixups: &mut Vec<(usize, usize, BlockId)>,
    ) -> Result<(), CompileError> {
        for (slot, s) in succs.iter().enumerate() {
            if s.args.is_empty() {
                fixups.push((at, slot, s.block));
            } else {
                self.patch_target(at, slot, self.out.code.len());
                self.emit_edge(s.block, &s.args)?;
                self.jump_to(s.block, fixups);
            }
        }
        Ok(())
    }

    /// Emits moves realizing a branch's argument transfer to `dest`. Uses
    /// temporaries for a safe parallel move.
    fn emit_edge(&mut self, dest: BlockId, args: &[ValueId]) -> Result<(), CompileError> {
        if args.is_empty() {
            return Ok(());
        }
        let params = &self.body.blocks[dest.index()].args;
        let mut regs = std::mem::take(&mut self.bufs.edge);
        regs.clear();
        for &a in args {
            let r = self.reg(a)?;
            regs.push(r);
        }
        for &p in params {
            let r = self.reg(p)?;
            regs.push(r);
        }
        let (srcs, dsts) = regs.split_at(args.len());
        // Fast path: no destination is also a source — plain moves suffice.
        let conflict = dsts.iter().any(|d| srcs.contains(d));
        if !conflict {
            for (&dst, &src) in dsts.iter().zip(srcs) {
                if dst != src {
                    self.out.code.push(DecodedInstr::Move { dst, src });
                }
            }
        } else {
            // General parallel move: stage through temporaries, which are
            // the next registers in turn.
            let first = self.out.n_regs;
            for &src in srcs {
                let t = self.fresh_reg()?;
                self.out.code.push(DecodedInstr::Move { dst: t, src });
            }
            for (&dst, t) in dsts.iter().zip(first..self.out.n_regs) {
                self.out.code.push(DecodedInstr::Move { dst, src: Reg(t) });
            }
        }
        self.bufs.edge = regs;
        Ok(())
    }

    fn compile_op(
        &mut self,
        op: OpId,
        fixups: &mut Vec<(usize, usize, BlockId)>,
    ) -> Result<(), CompileError> {
        let mut srcs = std::mem::take(&mut self.bufs.srcs);
        srcs.clear();
        let body = self.body;
        for &v in &body.ops[op.index()].operands {
            let r = if self.bufs.facts[v.index()] == CONSTANT {
                self.materialize(v)?
            } else {
                self.reg(v)?
            };
            srcs.push(r);
        }
        self.emit(op, &srcs, fixups)?;
        self.bufs.srcs = srcs;
        Ok(())
    }

    /// The cells of `op`, whose operands are in registers `srcs`.
    fn emit(
        &mut self,
        op: OpId,
        srcs: &[Reg],
        fixups: &mut Vec<(usize, usize, BlockId)>,
    ) -> Result<(), CompileError> {
        use Opcode::*;
        let body = self.body;
        let data = &body.ops[op.index()];
        let opcode = data.opcode;
        let operands = &data.operands;
        let result = data.results.first().copied();
        match opcode {
            ConstI | LpInt => {
                let value = result.ok_or_else(|| err("constant without result"))?;
                if self.bufs.facts[value.index()] & ESCAPES != 0 {
                    let dst = self.reg(value)?;
                    let cell = self.constant(op, dst)?;
                    self.out.code.push(cell);
                }
            }
            AddI | SubI | MulI | DivI | RemI | AndI | OrI | XorI => {
                let binop = match opcode {
                    AddI => BinOp::Add,
                    SubI => BinOp::Sub,
                    MulI => BinOp::Mul,
                    DivI => BinOp::Div,
                    RemI => BinOp::Rem,
                    AndI => BinOp::And,
                    OrI => BinOp::Or,
                    XorI => BinOp::Xor,
                    _ => unreachable!(),
                };
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::Bin {
                    op: binop,
                    dst,
                    a: srcs[0],
                    b: srcs[1],
                });
            }
            CmpI => {
                let pred = data
                    .attr(AttrKey::Pred)
                    .and_then(|a| a.as_pred())
                    .ok_or_else(|| err("cmpi without predicate"))?;
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::Cmp {
                    pred,
                    dst,
                    a: srcs[0],
                    b: srcs[1],
                });
            }
            Select => {
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::Select {
                    dst,
                    c: srcs[0],
                    a: srcs[1],
                    b: srcs[2],
                });
            }
            ExtUI | TruncI => {
                let to = body.value_type(result.unwrap());
                let dst = self.reg(result.unwrap())?;
                let mask = match to.bit_width() {
                    Some(bits) if bits < 64 => (1u64 << bits) - 1,
                    _ => u64::MAX,
                };
                self.out.code.push(DecodedInstr::Mask {
                    dst,
                    src: srcs[0],
                    mask,
                });
            }
            Br => {
                let succ = &data.successors[0];
                self.emit_edge(succ.block, &succ.args)?;
                self.jump_to(succ.block, fixups);
            }
            CondBr => {
                // Edge trampolines handle per-edge argument transfer.
                let branch_at = self.out.code.len();
                self.out.code.push(DecodedInstr::Branch {
                    cond: srcs[0],
                    then_t: u32::MAX,
                    else_t: u32::MAX,
                });
                self.emit_arms(branch_at, &data.successors, fixups)?;
            }
            SwitchBr => {
                let cases = data
                    .attr(AttrKey::Cases)
                    .and_then(|a| a.as_int_list())
                    .ok_or_else(|| err("switch without cases"))?;
                let switch_at = self.out.code.len();
                self.out
                    .switch(srcs[0], cases.iter().map(|&c| (c, u32::MAX)), u32::MAX)?;
                self.emit_arms(switch_at, &data.successors, fixups)?;
            }
            Unreachable => self.out.code.push(DecodedInstr::Trap),
            Call | TailCall => match self.callee(op)? {
                Callee::Fn(func) if opcode == Call => {
                    let dst = self.reg(result.unwrap())?;
                    self.out.call(dst, func, srcs)?;
                }
                Callee::Fn(func) => self.out.tail_call(func, srcs)?,
                Callee::Builtin(builtin) => {
                    let mask = data
                        .attr(AttrKey::BorrowMask)
                        .and_then(|a| a.as_int())
                        .unwrap_or(0) as u8;
                    if opcode == Call {
                        let dst = self.reg(result.unwrap())?;
                        self.out.call_builtin(dst, builtin, srcs, mask)?;
                    } else {
                        let dst = self.fresh_reg()?;
                        self.out.call_builtin(dst, builtin, srcs, mask)?;
                        self.out.code.push(DecodedInstr::Ret { src: dst });
                    }
                }
            },
            Return => self.out.code.push(DecodedInstr::Ret { src: srcs[0] }),
            LpBigInt => {
                let digits = data
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| err("lp.bigint without value"))?;
                let n = Nat::from_str_decimal(digits)
                    .map_err(|e| err(format!("bad bigint literal: {e}")))?;
                let idx = self.program.big_pool.len() as u32;
                self.program.big_pool.push(n);
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::LpBig { dst, idx });
            }
            LpStr => {
                let s = data
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| err("lp.str without value"))?
                    .to_string();
                let idx = self.program.str_pool.len() as u32;
                self.program.str_pool.push(s);
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::LpStr { dst, idx });
            }
            LpConstruct => {
                let tag = data
                    .attr(AttrKey::Tag)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.construct without tag"))?;
                if !(0..128).contains(&tag) {
                    return Err(err(format!("constructor tag {tag} out of range")));
                }
                let dst = self.reg(result.unwrap())?;
                self.out.construct(dst, tag as u32, srcs)?;
            }
            LpGetLabel => {
                let dst = self.reg(result.unwrap())?;
                self.out
                    .code
                    .push(DecodedInstr::GetLabel { dst, src: srcs[0] });
            }
            LpProject => {
                let idx = data
                    .attr(AttrKey::Index)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.project without index"))?;
                let dst = self.reg(result.unwrap())?;
                self.out.code.push(DecodedInstr::Project {
                    dst,
                    src: srcs[0],
                    idx: idx as u32,
                });
            }
            LpPap => {
                let callee = self.callee_of(op)?;
                let arity = data
                    .attr(AttrKey::Arity)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.pap without arity"))?;
                let Some(&Callee::Fn(func)) = self.callees.get(&callee) else {
                    return Err(err("pap of extern function"));
                };
                let dst = self.reg(result.unwrap())?;
                self.out.pap(dst, func, arity as u16, srcs)?;
            }
            LpPapExtend => {
                let dst = self.reg(result.unwrap())?;
                self.out.pap_extend(dst, srcs[0], &srcs[1..])?;
            }
            LpInc | LpDec if self.bufs.facts[operands[0].index()] & DECIDED != 0 => {}
            LpInc => self.out.code.push(DecodedInstr::Inc { src: srcs[0] }),
            LpDec => self.out.code.push(DecodedInstr::Dec { src: srcs[0] }),
            LpGlobalLoad | LpGlobalStore => {
                let g = data
                    .attr(AttrKey::Global)
                    .and_then(|a| a.as_sym())
                    .ok_or_else(|| err("global op without symbol"))?;
                let name = self.module.name_of(g);
                let idx = self
                    .program
                    .globals
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| err(format!("unknown global @{name}")))?
                    as u32;
                if opcode == LpGlobalLoad {
                    let dst = self.reg(result.unwrap())?;
                    self.out.code.push(DecodedInstr::GlobalLoad { dst, idx });
                } else {
                    self.out
                        .code
                        .push(DecodedInstr::GlobalStore { idx, src: srcs[0] });
                }
            }
            _ => {
                return Err(err(format!(
                    "{opcode} requires lowering before bytecode compilation"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::CmpPred;
    use lssa_ir::builder::Builder;
    use lssa_ir::types::{Signature, Type};

    #[test]
    fn compiles_simple_function() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let one = b.lp_int(1);
        b.lp_inc(params[0]);
        let c = b.lp_construct(1, vec![params[0], one]);
        b.ret(c);
        m.add_function("mk", Signature::obj(1), body);
        let p = compile_module(&m).unwrap();
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].arity, 1);
        assert!(matches!(p.fns[0].code[0], DecodedInstr::LpInt { .. }));
        assert!(matches!(
            p.fns[0].code.last(),
            Some(DecodedInstr::Ret { .. })
        ));
    }

    #[test]
    fn rejects_unlowered_ops() {
        let mut m = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, inner);
            let v = ib.lp_int(0);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        m.add_function("f", Signature::obj(0), body);
        let e = compile_module(&m).unwrap_err();
        assert!(e.message.contains("requires lowering"), "{e}");
    }

    #[test]
    fn branch_targets_resolved() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let t = body.new_block(ROOT_REGION, &[]);
        let e2 = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (t, vec![]), (e2, vec![]));
        let mut bt = Builder::at_end(&mut body, t);
        let v = bt.lp_int(1);
        bt.ret(v);
        let mut be = Builder::at_end(&mut body, e2);
        let v = be.lp_int(2);
        be.ret(v);
        m.add_function("f", Signature::new(vec![Type::I1], Type::Obj), body);
        let p = compile_module(&m).unwrap();
        let code = &p.fns[0].code;
        let DecodedInstr::Branch { then_t, else_t, .. } = code[0] else {
            panic!("expected branch, got {:?}", code[0]);
        };
        assert!((then_t as usize) < code.len() && (else_t as usize) < code.len());
        assert_ne!(then_t, else_t);
    }

    #[test]
    fn block_args_become_moves() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let join = body.new_block(ROOT_REGION, &[Type::Obj]);
        let mut b = Builder::at_end(&mut body, entry);
        b.br(join, vec![params[0]]);
        let arg = body.blocks[join.index()].args[0];
        let mut bj = Builder::at_end(&mut body, join);
        bj.ret(arg);
        m.add_function("f", Signature::obj(1), body);
        let p = compile_module(&m).unwrap();
        let moves = p.fns[0]
            .code
            .iter()
            .filter(|i| matches!(i, DecodedInstr::Move { .. }))
            .count();
        // Non-conflicting edge: a single direct move.
        assert_eq!(moves, 1);
    }

    #[test]
    fn constants_are_materialized_in_front_of_each_compare_or_builtin_use() {
        // `zero` feeds two compares and `two` one builtin call: each use
        // gets its own copy right in front of it. `one` is also returned,
        // so it stays a single cell at its definition.
        let mut m = Module::new();
        let add = m.declare_extern("lean_nat_add", Signature::obj(2));
        let (mut body, params) = Body::new(&[Type::Obj, Type::I64]);
        let entry = body.entry_block();
        let then_b = body.new_block(ROOT_REGION, &[]);
        let else_b = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let zero = b.const_i(0, Type::I64);
        let one = b.lp_int(1);
        let two = b.lp_int(2);
        let eq = b.cmpi(CmpPred::Eq, params[1], zero);
        let lt = b.cmpi(CmpPred::Slt, zero, params[1]);
        let both = b.andi(eq, lt);
        b.cond_br(both, (then_b, vec![]), (else_b, vec![]));
        let mut bt = Builder::at_end(&mut body, then_b);
        let sum = bt.call(add, vec![params[0], two], Type::Obj);
        bt.ret(sum);
        let mut be = Builder::at_end(&mut body, else_b);
        be.ret(one);
        m.add_function(
            "f",
            Signature::new(vec![Type::Obj, Type::I64], Type::Obj),
            body,
        );
        let f = &compile_module(&m).unwrap().fns[0];
        let code = &f.code;
        let one_reg = Reg(2);
        let expected = [
            DecodedInstr::LpInt { dst: one_reg, v: 1 },
            DecodedInstr::ConstInt { dst: Reg(3), v: 0 },
            DecodedInstr::Cmp {
                pred: CmpPred::Eq,
                dst: Reg(4),
                a: Reg(1),
                b: Reg(3),
            },
            DecodedInstr::ConstInt { dst: Reg(5), v: 0 },
            DecodedInstr::Cmp {
                pred: CmpPred::Slt,
                dst: Reg(6),
                a: Reg(5),
                b: Reg(1),
            },
        ];
        assert_eq!(&code[..5], &expected);
        let call_at = code
            .iter()
            .position(|i| matches!(i, DecodedInstr::CallBuiltin { .. }))
            .unwrap();
        let DecodedInstr::LpInt { dst, v: 2 } = code[call_at - 1] else {
            panic!("expected the constant in front of the call: {code:?}");
        };
        assert!(
            matches!(code[call_at], DecodedInstr::CallBuiltin { args, .. } if f.arg_regs(args)[1] == dst)
        );
        assert_eq!(code.last(), Some(&DecodedInstr::Ret { src: one_reg }));
    }

    #[test]
    fn rc_ops_on_a_decided_result_emit_nothing() {
        let mut m = Module::new();
        let dec_eq = m.declare_extern("lean_nat_dec_eq", Signature::obj(2));
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let d = b.call(dec_eq, vec![params[0], params[1]], Type::Obj);
        b.lp_inc(d);
        b.lp_dec(d);
        b.lp_dec(params[0]);
        b.ret(d);
        m.add_function("f", Signature::obj(2), body);
        let code = &compile_module(&m).unwrap().fns[0].code;
        assert_eq!(code.len(), 3, "{code:?}");
        assert!(matches!(code[0], DecodedInstr::CallBuiltin { .. }));
        assert_eq!(code[1], DecodedInstr::Dec { src: Reg(0) });
        assert!(matches!(code[2], DecodedInstr::Ret { .. }));
    }

    /// `f(x0 … x{n-1}) = x0`, and a `main` calling it with `n` copies of
    /// one scalar.
    fn wide_function(n: usize) -> Module {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&vec![Type::Obj; n]);
        let entry = body.entry_block();
        Builder::at_end(&mut body, entry).ret(params[0]);
        let f = m.add_function("f", Signature::obj(n), body);
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let one = b.lp_int(1);
        let r = b.call(f, vec![one; n], Type::Obj);
        b.ret(r);
        m.add_function("main", Signature::obj(0), body);
        m
    }

    #[test]
    fn a_function_holds_at_most_65535_registers() {
        let p = compile_module(&wide_function(65_535)).unwrap();
        assert_eq!((p.fns[0].arity, p.fns[0].n_regs), (65_535, 65_535));
        let e = compile_module(&wide_function(65_536)).unwrap_err();
        assert_eq!(
            e.message,
            "@f needs more than 65535 registers, the most the VM encodes"
        );
    }

    /// `main(x) = ctor 0 (x … x)` with `n` fields.
    fn wide_constructor(n: usize) -> Module {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.lp_construct(0, vec![params[0]; n]);
        b.ret(c);
        m.add_function("main", Signature::obj(1), body);
        m
    }

    #[test]
    fn a_cell_holds_at_most_65535_operands() {
        let p = compile_module(&wide_constructor(65_535)).unwrap();
        let DecodedInstr::Construct { args, .. } = p.fns[0].code[0] else {
            panic!("expected a constructor: {:?}", p.fns[0].code[0]);
        };
        assert_eq!(args.len, 65_535);
        let e = compile_module(&wide_constructor(65_536)).unwrap_err();
        assert_eq!(
            e.message,
            "@main needs more than 65535 operands in one cell, the most the VM encodes"
        );
    }

    /// `main(i) = case i of 0 … n-1 → 1, _ → 1` on a raw word.
    fn wide_switch(n: usize) -> Module {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let arm = body.new_block(ROOT_REGION, &[]);
        let cases: Vec<i64> = (0..n as i64).collect();
        Builder::at_end(&mut body, entry).switch_br(
            params[0],
            cases,
            (0..n).map(|_| (arm, vec![])),
            (arm, vec![]),
        );
        let mut b = Builder::at_end(&mut body, arm);
        let one = b.lp_int(1);
        b.ret(one);
        m.add_function("main", Signature::new(vec![Type::I64], Type::Obj), body);
        m
    }

    #[test]
    fn a_switch_holds_at_most_65535_entries() {
        let p = compile_module(&wide_switch(65_535)).unwrap();
        let f = &p.fns[0];
        let DecodedInstr::Switch { cases, default, .. } = f.code[0] else {
            panic!("expected a switch: {:?}", f.code[0]);
        };
        assert_eq!(cases.len, 65_535);
        assert!(f.cases.iter().all(|&(_, t)| t == default));
        let e = compile_module(&wide_switch(65_536)).unwrap_err();
        assert_eq!(
            e.message,
            "@main needs more than 65535 entries in one switch, the most the VM encodes"
        );
    }
}
