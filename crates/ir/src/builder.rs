//! Ergonomic op construction.
//!
//! [`Builder`] wraps a [`Body`] plus an insertion block and provides one
//! method per opcode, so lowering code reads like the IR it produces.
//!
//! Operand and argument lists are taken as anything that converts into the
//! op's inline list types — an array, a slice, an iterator's `collect`, or
//! a `Vec` — so building a small op allocates nothing beyond the arenas.

use crate::attr::{Attr, AttrKey, CmpPred};
use crate::body::{AttrList, Body, OperandList, Successor, SuccessorArgs};
use crate::ids::{BlockId, OpId, Symbol, ValueId};
use crate::opcode::Opcode;
use crate::types::Type;

/// An op builder positioned at the end of a block.
#[derive(Debug)]
pub struct Builder<'a> {
    /// The body being built.
    pub body: &'a mut Body,
    /// Current insertion block (ops are appended at its end).
    pub block: BlockId,
}

impl<'a> Builder<'a> {
    /// Creates a builder appending to `block`.
    pub fn at_end(body: &'a mut Body, block: BlockId) -> Builder<'a> {
        Builder { body, block }
    }

    fn push(
        &mut self,
        opcode: Opcode,
        operands: impl Into<OperandList>,
        result_tys: &[Type],
        attrs: impl Into<AttrList>,
    ) -> OpId {
        let op = self.body.create_op(opcode, operands, result_tys, attrs);
        self.body.push_op(self.block, op);
        op
    }

    fn push1(
        &mut self,
        opcode: Opcode,
        operands: impl Into<OperandList>,
        ty: Type,
        attrs: impl Into<AttrList>,
    ) -> ValueId {
        let op = self.push(opcode, operands, &[ty], attrs);
        self.body.ops[op.index()].result().unwrap()
    }

    // ---- arith ------------------------------------------------------------

    /// `arith.constant` of the given type.
    pub fn const_i(&mut self, v: i64, ty: Type) -> ValueId {
        self.push1(Opcode::ConstI, [], ty, [(AttrKey::Value, Attr::Int(v))])
    }

    /// Boolean constant (`i1`).
    pub fn const_bool(&mut self, v: bool) -> ValueId {
        self.const_i(v as i64, Type::I1)
    }

    fn binop(&mut self, opcode: Opcode, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.body.value_type(a);
        self.push1(opcode, [a, b], ty, [])
    }

    /// `arith.addi`.
    pub fn addi(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::AddI, a, b)
    }

    /// `arith.subi`.
    pub fn subi(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::SubI, a, b)
    }

    /// `arith.muli`.
    pub fn muli(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::MulI, a, b)
    }

    /// `arith.divi`.
    pub fn divi(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::DivI, a, b)
    }

    /// `arith.remi`.
    pub fn remi(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::RemI, a, b)
    }

    /// `arith.andi`.
    pub fn andi(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::AndI, a, b)
    }

    /// `arith.ori`.
    pub fn ori(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::OrI, a, b)
    }

    /// `arith.xori`.
    pub fn xori(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::XorI, a, b)
    }

    /// `arith.cmpi {pred}` yielding `i1`.
    pub fn cmpi(&mut self, pred: CmpPred, a: ValueId, b: ValueId) -> ValueId {
        self.push1(
            Opcode::CmpI,
            [a, b],
            Type::I1,
            [(AttrKey::Pred, Attr::Pred(pred))],
        )
    }

    /// `arith.select` (works on any type, including `!rgn.region`).
    pub fn select(&mut self, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
        let ty = self.body.value_type(t);
        self.push1(Opcode::Select, [cond, t, f], ty, [])
    }

    /// `arith.switch_val {cases}`: N-way value selection. `vals` pairs with
    /// `cases`; `default` is the fallback.
    pub fn switch_val(
        &mut self,
        idx: ValueId,
        cases: impl Into<Box<[i64]>>,
        vals: &[ValueId],
        default: ValueId,
    ) -> ValueId {
        let cases = cases.into();
        assert_eq!(cases.len(), vals.len());
        let ty = self.body.value_type(default);
        let mut operands = OperandList::new();
        operands.push(idx);
        operands.extend(vals.iter().copied());
        operands.push(default);
        self.push1(
            Opcode::SwitchVal,
            operands,
            ty,
            [(AttrKey::Cases, Attr::IntList(cases))],
        )
    }

    /// `arith.extui` to a wider integer type.
    pub fn extui(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.push1(Opcode::ExtUI, [v], ty, [])
    }

    /// `arith.trunci` to a narrower integer type.
    pub fn trunci(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.push1(Opcode::TruncI, [v], ty, [])
    }

    // ---- cf ---------------------------------------------------------------

    /// `cf.br`.
    pub fn br(&mut self, dest: BlockId, args: impl Into<SuccessorArgs>) -> OpId {
        let op = self.push(Opcode::Br, [], &[], []);
        self.body.ops[op.index()]
            .successors
            .push(Successor::with_args(dest, args));
        op
    }

    /// `cf.cond_br`.
    pub fn cond_br(
        &mut self,
        cond: ValueId,
        then_dest: (BlockId, impl Into<SuccessorArgs>),
        else_dest: (BlockId, impl Into<SuccessorArgs>),
    ) -> OpId {
        let op = self.push(Opcode::CondBr, [cond], &[], []);
        let succ = &mut self.body.ops[op.index()].successors;
        succ.push(Successor::with_args(then_dest.0, then_dest.1));
        succ.push(Successor::with_args(else_dest.0, else_dest.1));
        op
    }

    /// `cf.switch {cases}`: `targets` pairs with `cases`; last successor is
    /// the default.
    pub fn switch_br<A: Into<SuccessorArgs>>(
        &mut self,
        idx: ValueId,
        cases: impl Into<Box<[i64]>>,
        targets: impl IntoIterator<Item = (BlockId, A)>,
        default: (BlockId, impl Into<SuccessorArgs>),
    ) -> OpId {
        let cases = cases.into();
        let n = cases.len();
        let op = self.push(
            Opcode::SwitchBr,
            [idx],
            &[],
            [(AttrKey::Cases, Attr::IntList(cases))],
        );
        let succ = &mut self.body.ops[op.index()].successors;
        for (b, args) in targets {
            succ.push(Successor::with_args(b, args));
        }
        assert_eq!(n, succ.len(), "one target per case");
        succ.push(Successor::with_args(default.0, default.1));
        op
    }

    /// `cf.unreachable`.
    pub fn unreachable(&mut self) -> OpId {
        self.push(Opcode::Unreachable, [], &[], [])
    }

    // ---- func ---------------------------------------------------------------

    /// `func.call {callee}` with a single result of type `ret`.
    pub fn call(&mut self, callee: Symbol, args: impl Into<OperandList>, ret: Type) -> ValueId {
        self.push1(
            Opcode::Call,
            args,
            ret,
            [(AttrKey::Callee, Attr::Sym(callee))],
        )
    }

    /// `func.tail_call {callee}` (terminator; callee result becomes this
    /// function's result).
    pub fn tail_call(&mut self, callee: Symbol, args: impl Into<OperandList>) -> OpId {
        self.push(
            Opcode::TailCall,
            args,
            &[],
            [(AttrKey::Callee, Attr::Sym(callee))],
        )
    }

    /// `func.return`.
    pub fn ret(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::Return, [v], &[], [])
    }

    // ---- lp ---------------------------------------------------------------

    /// `lp.int {value}`.
    pub fn lp_int(&mut self, v: i64) -> ValueId {
        self.push1(
            Opcode::LpInt,
            [],
            Type::Obj,
            [(AttrKey::Value, Attr::Int(v))],
        )
    }

    /// `lp.bigint {value = "…"}`.
    pub fn lp_bigint(&mut self, digits: &str) -> ValueId {
        self.push1(
            Opcode::LpBigInt,
            [],
            Type::Obj,
            [(AttrKey::Value, Attr::Str(digits.into()))],
        )
    }

    /// `lp.str {value = "…"}`.
    pub fn lp_str(&mut self, s: &str) -> ValueId {
        self.push1(
            Opcode::LpStr,
            [],
            Type::Obj,
            [(AttrKey::Value, Attr::Str(s.into()))],
        )
    }

    /// `lp.construct {tag}`.
    pub fn lp_construct(&mut self, tag: i64, fields: impl Into<OperandList>) -> ValueId {
        self.push1(
            Opcode::LpConstruct,
            fields,
            Type::Obj,
            [(AttrKey::Tag, Attr::Int(tag))],
        )
    }

    /// `lp.getlabel` yielding `i8`.
    pub fn lp_getlabel(&mut self, v: ValueId) -> ValueId {
        self.push1(Opcode::LpGetLabel, [v], Type::I8, [])
    }

    /// `lp.project {index}`.
    pub fn lp_project(&mut self, v: ValueId, index: i64) -> ValueId {
        self.push1(
            Opcode::LpProject,
            [v],
            Type::Obj,
            [(AttrKey::Index, Attr::Int(index))],
        )
    }

    /// `lp.pap {callee, arity}`.
    pub fn lp_pap(&mut self, callee: Symbol, arity: i64, args: impl Into<OperandList>) -> ValueId {
        self.push1(
            Opcode::LpPap,
            args,
            Type::Obj,
            [
                (AttrKey::Callee, Attr::Sym(callee)),
                (AttrKey::Arity, Attr::Int(arity)),
            ],
        )
    }

    /// `lp.papextend`.
    pub fn lp_papextend(
        &mut self,
        closure: ValueId,
        args: impl IntoIterator<Item = ValueId>,
    ) -> ValueId {
        let operands: OperandList = std::iter::once(closure).chain(args).collect();
        self.push1(Opcode::LpPapExtend, operands, Type::Obj, [])
    }

    /// `lp.switch {cases}` terminator. One region per case plus a default
    /// region, created here; each gets an empty entry block, which is the
    /// first block of the op's `i`-th region (the default region last).
    pub fn lp_switch(&mut self, tag: ValueId, cases: impl Into<Box<[i64]>>) -> OpId {
        let cases = cases.into();
        let n = cases.len() + 1;
        let op = self.push(
            Opcode::LpSwitch,
            [tag],
            &[],
            [(AttrKey::Cases, Attr::IntList(cases))],
        );
        for _ in 0..n {
            let r = self.body.new_region(op);
            self.body.new_block(r, &[]);
        }
        op
    }

    /// `lp.joinpoint {label}` terminator. Creates the join-point region (its
    /// entry block gets `jp_arg_tys` arguments) and the body ("pre-jump")
    /// region. Returns `(op, jp-entry, body-entry)`.
    pub fn lp_joinpoint(&mut self, label: Symbol, jp_arg_tys: &[Type]) -> (OpId, BlockId, BlockId) {
        let op = self.push(
            Opcode::LpJoinPoint,
            [],
            &[],
            [(AttrKey::Label, Attr::Sym(label))],
        );
        let jp_region = self.body.new_region(op);
        let jp_entry = self.body.new_block(jp_region, jp_arg_tys);
        let body_region = self.body.new_region(op);
        let body_entry = self.body.new_block(body_region, &[]);
        (op, jp_entry, body_entry)
    }

    /// `lp.jump {label}` terminator.
    pub fn lp_jump(&mut self, label: Symbol, args: impl Into<OperandList>) -> OpId {
        self.push(
            Opcode::LpJump,
            args,
            &[],
            [(AttrKey::Label, Attr::Sym(label))],
        )
    }

    /// `lp.inc`.
    pub fn lp_inc(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpInc, [v], &[], [])
    }

    /// `lp.dec`.
    pub fn lp_dec(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpDec, [v], &[], [])
    }

    /// `lp.ret` terminator.
    pub fn lp_ret(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpReturn, [v], &[], [])
    }

    /// `lp.global.load {global}`.
    pub fn lp_global_load(&mut self, global: Symbol) -> ValueId {
        self.push1(
            Opcode::LpGlobalLoad,
            [],
            Type::Obj,
            [(AttrKey::Global, Attr::Sym(global))],
        )
    }

    /// `lp.global.store {global}`.
    pub fn lp_global_store(&mut self, global: Symbol, v: ValueId) -> OpId {
        self.push(
            Opcode::LpGlobalStore,
            [v],
            &[],
            [(AttrKey::Global, Attr::Sym(global))],
        )
    }

    // ---- rgn ---------------------------------------------------------------

    /// `rgn.val`: creates a region value. The region's entry block gets
    /// arguments of types `arg_tys` (join-point parameters). Returns
    /// `(region-value, entry-block)`.
    pub fn rgn_val(&mut self, arg_tys: &[Type]) -> (ValueId, BlockId) {
        let op = self.push(Opcode::RgnVal, [], &[Type::Rgn], []);
        let region = self.body.new_region(op);
        let entry = self.body.new_block(region, arg_tys);
        let v = self.body.ops[op.index()].result().unwrap();
        (v, entry)
    }

    /// `rgn.run` terminator.
    pub fn rgn_run(&mut self, r: ValueId, args: impl IntoIterator<Item = ValueId>) -> OpId {
        let operands: OperandList = std::iter::once(r).chain(args).collect();
        self.push(Opcode::RgnRun, operands, &[], [])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_arith_chain() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(2, Type::I64);
        let sum = b.addi(params[0], c);
        let cond = b.cmpi(CmpPred::Slt, sum, c);
        let sel = b.select(cond, sum, c);
        b.ret(sel);
        assert_eq!(body.live_op_count(), 5);
        assert_eq!(body.value_type(cond), Type::I1);
        assert_eq!(body.value_type(sel), Type::I64);
    }

    #[test]
    fn lp_switch_creates_regions() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let tag = b.lp_getlabel(params[0]);
        let op = b.lp_switch(tag, vec![0, 1]);
        assert_eq!(
            body.ops[op.index()].regions.len(),
            3,
            "two cases plus default"
        );
        for &r in &body.ops[op.index()].regions {
            let blocks = &body.regions[r.index()].blocks;
            assert_eq!(blocks.len(), 1);
            assert!(body.blocks[blocks[0].index()].ops.is_empty());
        }
    }

    #[test]
    fn rgn_val_and_run() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (r, inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, inner);
            let v = ib.lp_int(3);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(r, []);
        assert_eq!(body.value_type(r), Type::Rgn);
        assert_eq!(body.live_op_count(), 4);
    }

    #[test]
    fn joinpoint_blocks() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut module = crate::module::Module::new();
        let label = module.intern("jp");
        let mut b = Builder::at_end(&mut body, entry);
        let (op, jp_entry, body_entry) = b.lp_joinpoint(label, &[Type::Obj]);
        assert_eq!(body.ops[op.index()].regions.len(), 2);
        assert_eq!(body.blocks[jp_entry.index()].args.len(), 1);
        assert_eq!(body.blocks[body_entry.index()].args.len(), 0);
    }

    #[test]
    fn switch_val_operand_layout() {
        let (mut body, params) = Body::new(&[Type::I8, Type::Rgn, Type::Rgn, Type::Rgn]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let v = b.switch_val(params[0], [0, 1], &[params[1], params[2]], params[3]);
        assert_eq!(body.value_type(v), Type::Rgn);
        let op = body.defining_op(v).unwrap();
        assert_eq!(body.ops[op.index()].operands.len(), 4);
    }
}
