//! Ergonomic op construction.
//!
//! [`Builder`] wraps a [`Body`] plus an insertion block and provides one
//! method per opcode, so lowering code reads like the IR it produces.

use crate::attr::{Attr, AttrKey, CmpPred};
use crate::body::{Body, Successor};
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
        operands: Vec<ValueId>,
        result_tys: &[Type],
        attrs: Vec<(AttrKey, Attr)>,
    ) -> OpId {
        let op = self.body.create_op(opcode, operands, result_tys, attrs);
        self.body.push_op(self.block, op);
        op
    }

    fn push1(
        &mut self,
        opcode: Opcode,
        operands: Vec<ValueId>,
        ty: Type,
        attrs: Vec<(AttrKey, Attr)>,
    ) -> ValueId {
        let op = self.push(opcode, operands, &[ty], attrs);
        self.body.ops[op.index()].result().unwrap()
    }

    // ---- arith ------------------------------------------------------------

    /// `arith.constant` of the given type.
    pub fn const_i(&mut self, v: i64, ty: Type) -> ValueId {
        self.push1(
            Opcode::ConstI,
            vec![],
            ty,
            vec![(AttrKey::Value, Attr::Int(v))],
        )
    }

    /// Boolean constant (`i1`).
    pub fn const_bool(&mut self, v: bool) -> ValueId {
        self.const_i(v as i64, Type::I1)
    }

    fn binop(&mut self, opcode: Opcode, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.body.value_type(a);
        self.push1(opcode, vec![a, b], ty, vec![])
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
            vec![a, b],
            Type::I1,
            vec![(AttrKey::Pred, Attr::Pred(pred))],
        )
    }

    /// `arith.select` (works on any type, including `!rgn.region`).
    pub fn select(&mut self, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
        let ty = self.body.value_type(t);
        self.push1(Opcode::Select, vec![cond, t, f], ty, vec![])
    }

    /// `arith.switch_val {cases}`: N-way value selection. `vals` pairs with
    /// `cases`; `default` is the fallback.
    pub fn switch_val(
        &mut self,
        idx: ValueId,
        cases: Vec<i64>,
        vals: Vec<ValueId>,
        default: ValueId,
    ) -> ValueId {
        assert_eq!(cases.len(), vals.len());
        let ty = self.body.value_type(default);
        let mut operands = vec![idx];
        operands.extend(vals);
        operands.push(default);
        self.push1(
            Opcode::SwitchVal,
            operands,
            ty,
            vec![(AttrKey::Cases, Attr::IntList(cases.into()))],
        )
    }

    /// `arith.extui` to a wider integer type.
    pub fn extui(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.push1(Opcode::ExtUI, vec![v], ty, vec![])
    }

    /// `arith.trunci` to a narrower integer type.
    pub fn trunci(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.push1(Opcode::TruncI, vec![v], ty, vec![])
    }

    // ---- cf ---------------------------------------------------------------

    /// `cf.br`.
    pub fn br(&mut self, dest: BlockId, args: Vec<ValueId>) -> OpId {
        let op = self.push(Opcode::Br, vec![], &[], vec![]);
        self.body.ops[op.index()]
            .successors
            .push(Successor::with_args(dest, args));
        op
    }

    /// `cf.cond_br`.
    pub fn cond_br(
        &mut self,
        cond: ValueId,
        then_dest: (BlockId, Vec<ValueId>),
        else_dest: (BlockId, Vec<ValueId>),
    ) -> OpId {
        let op = self.push(Opcode::CondBr, vec![cond], &[], vec![]);
        let succ = &mut self.body.ops[op.index()].successors;
        succ.push(Successor::with_args(then_dest.0, then_dest.1));
        succ.push(Successor::with_args(else_dest.0, else_dest.1));
        op
    }

    /// `cf.switch {cases}`: `targets` pairs with `cases`; last successor is
    /// the default.
    pub fn switch_br(
        &mut self,
        idx: ValueId,
        cases: Vec<i64>,
        targets: Vec<(BlockId, Vec<ValueId>)>,
        default: (BlockId, Vec<ValueId>),
    ) -> OpId {
        assert_eq!(cases.len(), targets.len());
        let op = self.push(
            Opcode::SwitchBr,
            vec![idx],
            &[],
            vec![(AttrKey::Cases, Attr::IntList(cases.into()))],
        );
        let succ = &mut self.body.ops[op.index()].successors;
        for (b, args) in targets {
            succ.push(Successor::with_args(b, args));
        }
        succ.push(Successor::with_args(default.0, default.1));
        op
    }

    /// `cf.unreachable`.
    pub fn unreachable(&mut self) -> OpId {
        self.push(Opcode::Unreachable, vec![], &[], vec![])
    }

    // ---- func ---------------------------------------------------------------

    /// `func.call {callee}` with a single result of type `ret`.
    pub fn call(&mut self, callee: Symbol, args: Vec<ValueId>, ret: Type) -> ValueId {
        self.push1(
            Opcode::Call,
            args,
            ret,
            vec![(AttrKey::Callee, Attr::Sym(callee))],
        )
    }

    /// `func.tail_call {callee}` (terminator; callee result becomes this
    /// function's result).
    pub fn tail_call(&mut self, callee: Symbol, args: Vec<ValueId>) -> OpId {
        self.push(
            Opcode::TailCall,
            args,
            &[],
            vec![(AttrKey::Callee, Attr::Sym(callee))],
        )
    }

    /// `func.return`.
    pub fn ret(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::Return, vec![v], &[], vec![])
    }

    // ---- lp ---------------------------------------------------------------

    /// `lp.int {value}`.
    pub fn lp_int(&mut self, v: i64) -> ValueId {
        self.push1(
            Opcode::LpInt,
            vec![],
            Type::Obj,
            vec![(AttrKey::Value, Attr::Int(v))],
        )
    }

    /// `lp.bigint {value = "…"}`.
    pub fn lp_bigint(&mut self, digits: &str) -> ValueId {
        self.push1(
            Opcode::LpBigInt,
            vec![],
            Type::Obj,
            vec![(AttrKey::Value, Attr::Str(digits.into()))],
        )
    }

    /// `lp.str {value = "…"}`.
    pub fn lp_str(&mut self, s: &str) -> ValueId {
        self.push1(
            Opcode::LpStr,
            vec![],
            Type::Obj,
            vec![(AttrKey::Value, Attr::Str(s.into()))],
        )
    }

    /// `lp.construct {tag}`.
    pub fn lp_construct(&mut self, tag: i64, fields: Vec<ValueId>) -> ValueId {
        self.push1(
            Opcode::LpConstruct,
            fields,
            Type::Obj,
            vec![(AttrKey::Tag, Attr::Int(tag))],
        )
    }

    /// `lp.getlabel` yielding `i8`.
    pub fn lp_getlabel(&mut self, v: ValueId) -> ValueId {
        self.push1(Opcode::LpGetLabel, vec![v], Type::I8, vec![])
    }

    /// `lp.project {index}`.
    pub fn lp_project(&mut self, v: ValueId, index: i64) -> ValueId {
        self.push1(
            Opcode::LpProject,
            vec![v],
            Type::Obj,
            vec![(AttrKey::Index, Attr::Int(index))],
        )
    }

    /// `lp.pap {callee, arity}`.
    pub fn lp_pap(&mut self, callee: Symbol, arity: i64, args: Vec<ValueId>) -> ValueId {
        self.push1(
            Opcode::LpPap,
            args,
            Type::Obj,
            vec![
                (AttrKey::Callee, Attr::Sym(callee)),
                (AttrKey::Arity, Attr::Int(arity)),
            ],
        )
    }

    /// `lp.papextend`.
    pub fn lp_papextend(&mut self, closure: ValueId, args: Vec<ValueId>) -> ValueId {
        let mut operands = vec![closure];
        operands.extend(args);
        self.push1(Opcode::LpPapExtend, operands, Type::Obj, vec![])
    }

    /// `lp.switch {cases}` terminator. One region per case plus a default
    /// region, created here; each gets an empty entry block. Returns
    /// `(op, case-entry-blocks..including default)`.
    pub fn lp_switch(&mut self, tag: ValueId, cases: Vec<i64>) -> (OpId, Vec<BlockId>) {
        let n = cases.len() + 1;
        let op = self.push(
            Opcode::LpSwitch,
            vec![tag],
            &[],
            vec![(AttrKey::Cases, Attr::IntList(cases.into()))],
        );
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.body.new_region(op);
            entries.push(self.body.new_block(r, &[]));
        }
        (op, entries)
    }

    /// `lp.joinpoint {label}` terminator. Creates the join-point region (its
    /// entry block gets `jp_arg_tys` arguments) and the body ("pre-jump")
    /// region. Returns `(op, jp-entry, body-entry)`.
    pub fn lp_joinpoint(&mut self, label: Symbol, jp_arg_tys: &[Type]) -> (OpId, BlockId, BlockId) {
        let op = self.push(
            Opcode::LpJoinPoint,
            vec![],
            &[],
            vec![(AttrKey::Label, Attr::Sym(label))],
        );
        let jp_region = self.body.new_region(op);
        let jp_entry = self.body.new_block(jp_region, jp_arg_tys);
        let body_region = self.body.new_region(op);
        let body_entry = self.body.new_block(body_region, &[]);
        (op, jp_entry, body_entry)
    }

    /// `lp.jump {label}` terminator.
    pub fn lp_jump(&mut self, label: Symbol, args: Vec<ValueId>) -> OpId {
        self.push(
            Opcode::LpJump,
            args,
            &[],
            vec![(AttrKey::Label, Attr::Sym(label))],
        )
    }

    /// `lp.inc`.
    pub fn lp_inc(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpInc, vec![v], &[], vec![])
    }

    /// `lp.dec`.
    pub fn lp_dec(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpDec, vec![v], &[], vec![])
    }

    /// `lp.ret` terminator.
    pub fn lp_ret(&mut self, v: ValueId) -> OpId {
        self.push(Opcode::LpReturn, vec![v], &[], vec![])
    }

    /// `lp.global.load {global}`.
    pub fn lp_global_load(&mut self, global: Symbol) -> ValueId {
        self.push1(
            Opcode::LpGlobalLoad,
            vec![],
            Type::Obj,
            vec![(AttrKey::Global, Attr::Sym(global))],
        )
    }

    /// `lp.global.store {global}`.
    pub fn lp_global_store(&mut self, global: Symbol, v: ValueId) -> OpId {
        self.push(
            Opcode::LpGlobalStore,
            vec![v],
            &[],
            vec![(AttrKey::Global, Attr::Sym(global))],
        )
    }

    // ---- rgn ---------------------------------------------------------------

    /// `rgn.val`: creates a region value. The region's entry block gets
    /// arguments of types `arg_tys` (join-point parameters). Returns
    /// `(region-value, entry-block)`.
    pub fn rgn_val(&mut self, arg_tys: &[Type]) -> (ValueId, BlockId) {
        let op = self.push(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        let region = self.body.new_region(op);
        let entry = self.body.new_block(region, arg_tys);
        let v = self.body.ops[op.index()].result().unwrap();
        (v, entry)
    }

    /// `rgn.run` terminator.
    pub fn rgn_run(&mut self, r: ValueId, args: Vec<ValueId>) -> OpId {
        let mut operands = vec![r];
        operands.extend(args);
        self.push(Opcode::RgnRun, operands, &[], vec![])
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
        let (op, blocks) = b.lp_switch(tag, vec![0, 1]);
        assert_eq!(blocks.len(), 3, "two cases plus default");
        assert_eq!(body.ops[op.index()].regions.len(), 3);
        for (i, &bl) in blocks.iter().enumerate() {
            let r = body.ops[op.index()].regions[i];
            assert_eq!(body.regions[r.index()].blocks[0], bl);
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
        b.rgn_run(r, vec![]);
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
        let v = b.switch_val(params[0], vec![0, 1], vec![params[1], params[2]], params[3]);
        assert_eq!(body.value_type(v), Type::Rgn);
        let op = body.defining_op(v).unwrap();
        assert_eq!(body.ops[op.index()].operands.len(), 4);
    }
}
