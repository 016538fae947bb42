//! IR verification: structural rules, type rules, dominance, and the `rgn`
//! dialect's use restrictions.
//!
//! The `rgn` restriction (§IV of the paper) is the load-bearing invariant:
//! a `!rgn.region` value may only be consumed by `arith.select`,
//! `arith.switch_val`, or `rgn.run`, and may not be a block argument, call
//! argument, or return value. This guarantees every use of a region value is
//! statically analyzable, which is what lets the region optimizations of
//! `lssa-core` reason about regions like ordinary SSA values.
//!
//! [`verify_module`] checks every body with one set of tables (the walk,
//! the operand types, the dominator trees), so verifying a module
//! allocates only while a body outgrows the ones before it, or to report
//! an error.

use crate::attr::AttrKey;
use crate::body::Body;
use crate::dom::DomInfo;
use crate::ids::{BlockId, OpId, RegionId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::types::Type;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred.
    pub func: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns every violation found (the check does not stop at the first).
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let mut bufs = VerifyBuffers::default();
    for f in &m.funcs {
        let Some(body) = &f.body else { continue };
        let mut v = Verifier {
            module: m,
            body,
            func: m.name_of(f.name),
            ret_ty: f.sig.ret,
            errors: &mut errors,
            bufs: &mut bufs,
        };
        v.verify_body();
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies a single function body against a module context.
///
/// # Errors
///
/// Returns every violation found.
pub fn verify_function(m: &Module, name: &str) -> Result<(), Vec<VerifyError>> {
    let f = m
        .func_by_name(name)
        .unwrap_or_else(|| panic!("no function @{name}"));
    let body = f.body.as_ref().expect("verify_function on extern");
    let mut errors = Vec::new();
    let mut v = Verifier {
        module: m,
        body,
        func: name,
        ret_ty: f.sig.ret,
        errors: &mut errors,
        bufs: &mut VerifyBuffers::default(),
    };
    v.verify_body();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

struct Verifier<'a> {
    module: &'a Module,
    body: &'a Body,
    func: &'a str,
    ret_ty: Type,
    errors: &'a mut Vec<VerifyError>,
    bufs: &'a mut VerifyBuffers,
}

/// Tables one verification reuses for every body it checks.
#[derive(Default)]
struct VerifyBuffers {
    /// The body's region-tree walk.
    walk: Vec<OpId>,
    /// Operand types of the op being verified.
    tys: Vec<Type>,
    dom: DomInfo,
}

impl<'a> Verifier<'a> {
    fn error(&mut self, op: Option<OpId>, message: impl Into<String>) {
        let message = match op {
            Some(op) => format!(
                "{} (in `{}`)",
                message.into(),
                self.body.ops[op.index()].opcode
            ),
            None => message.into(),
        };
        self.errors.push(VerifyError {
            func: self.func.to_string(),
            message,
        });
    }

    fn verify_body(&mut self) {
        let body = self.body;
        self.verify_region_structure(crate::body::ROOT_REGION);
        let mut ops = std::mem::take(&mut self.bufs.walk);
        body.walk_ops(&mut ops);
        for &op in &ops {
            self.verify_op(op);
        }
        // Dominance.
        let mut dom = std::mem::take(&mut self.bufs.dom);
        dom.recompute(body);
        for &op in &ops {
            let data = &body.ops[op.index()];
            for &v in &data.operands {
                if !dom.value_dominates_op(body, v, op) {
                    self.error(Some(op), format!("operand {v} does not dominate its use"));
                }
            }
            for s in &data.successors {
                for &a in &s.args {
                    if !dom.value_dominates_op(body, a, op) {
                        self.error(
                            Some(op),
                            format!("successor argument {a} does not dominate its use"),
                        );
                    }
                }
            }
        }
        self.verify_rgn_restrictions(&ops);
        self.bufs.walk = ops;
        self.bufs.dom = dom;
    }

    fn verify_region_structure(&mut self, region: RegionId) {
        let body = self.body;
        let blocks = &body.regions[region.index()].blocks;
        if blocks.is_empty() {
            self.error(None, format!("region {region} has no blocks"));
            return;
        }
        for &b in blocks {
            let ops = &body.blocks[b.index()].ops;
            let Some(&last) = ops.last() else {
                self.error(None, format!("block {b} is empty"));
                continue;
            };
            if !body.ops[last.index()].opcode.is_terminator() {
                self.error(
                    Some(last),
                    format!("block {b} does not end with a terminator"),
                );
            }
            for &op in &ops[..ops.len() - 1] {
                if body.ops[op.index()].opcode.is_terminator() {
                    self.error(Some(op), format!("terminator in the middle of block {b}"));
                }
            }
            for &op in ops {
                if body.ops[op.index()].dead {
                    self.error(Some(op), "dead op still attached".to_string());
                }
                for &r in &body.ops[op.index()].regions {
                    self.verify_region_structure(r);
                }
            }
        }
    }

    fn result_ty(&self, op: OpId) -> Option<Type> {
        self.body.ops[op.index()]
            .result()
            .map(|r| self.body.value_type(r))
    }

    fn check(&mut self, op: OpId, cond: bool, msg: &str) {
        if !cond {
            self.error(Some(op), msg.to_string());
        }
    }

    fn check_succ_count(&mut self, op: OpId, expected: usize) {
        let n = self.body.ops[op.index()].successors.len();
        if n != expected {
            self.error(
                Some(op),
                format!("expected {expected} successors, found {n}"),
            );
        }
    }

    fn check_succ_args(&mut self, op: OpId) {
        let body = self.body;
        for s in &body.ops[op.index()].successors {
            let dest_args = &body.blocks[s.block.index()].args;
            if s.args.len() != dest_args.len() {
                self.error(
                    Some(op),
                    format!(
                        "successor {} expects {} arguments, got {}",
                        s.block,
                        dest_args.len(),
                        s.args.len()
                    ),
                );
                continue;
            }
            for (&a, &p) in s.args.iter().zip(dest_args) {
                let at = self.body.value_type(a);
                let pt = self.body.value_type(p);
                if at != pt {
                    self.error(
                        Some(op),
                        format!("successor argument type mismatch: {at} vs {pt}"),
                    );
                }
            }
            // Successor must be in the same region.
            let op_block = self.body.ops[op.index()].parent.unwrap();
            if self.body.block_region(s.block) != self.body.block_region(op_block) {
                self.error(Some(op), "successor in a different region".to_string());
            }
        }
    }

    fn callee_sig(&mut self, op: OpId) -> Option<&'a crate::types::Signature> {
        let (body, module) = (self.body, self.module);
        let Some(sym) = body.ops[op.index()]
            .attr(AttrKey::Callee)
            .and_then(|a| a.as_sym())
        else {
            self.error(Some(op), "missing `callee` attribute".to_string());
            return None;
        };
        match module.func(sym) {
            Some(f) => Some(&f.sig),
            None => {
                let name = module.name_of(sym);
                self.error(Some(op), format!("unknown callee @{name}"));
                None
            }
        }
    }

    fn verify_op(&mut self, op: OpId) {
        let body = self.body;
        let mut tys = std::mem::take(&mut self.bufs.tys);
        tys.clear();
        tys.extend(
            body.ops[op.index()]
                .operands
                .iter()
                .map(|&v| body.value_type(v)),
        );
        self.check_op(op, &tys);
        self.bufs.tys = tys;
    }

    /// The per-opcode rules; `tys` are the operand types.
    fn check_op(&mut self, op: OpId, tys: &[Type]) {
        use Opcode::*;
        let opcode = self.body.ops[op.index()].opcode;
        let res = self.result_ty(op);
        // Region arity.
        if let Some(expected) = opcode.region_arity() {
            let n = self.body.ops[op.index()].regions.len();
            if n != expected {
                self.error(Some(op), format!("expected {expected} regions, found {n}"));
            }
        }
        if !opcode.has_successors() && !self.body.ops[op.index()].successors.is_empty() {
            self.error(Some(op), "op cannot have successors".to_string());
        }
        match opcode {
            ConstI => {
                self.check(op, tys.is_empty(), "constant takes no operands");
                let ok = matches!(res, Some(t) if t.is_int());
                self.check(op, ok, "constant result must be an integer type");
                let has_val = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_int())
                    .is_some();
                self.check(op, has_val, "constant needs an integer `value` attribute");
            }
            AddI | SubI | MulI | DivI | RemI | AndI | OrI | XorI => {
                let ok =
                    tys.len() == 2 && tys[0] == tys[1] && tys[0].is_int() && res == Some(tys[0]);
                self.check(op, ok, "binary arith op needs two equal integer operands");
            }
            CmpI => {
                let ok = tys.len() == 2 && tys[0] == tys[1] && tys[0].is_int();
                self.check(op, ok, "cmpi needs two equal integer operands");
                self.check(op, res == Some(Type::I1), "cmpi yields i1");
                let has_pred = self.body.ops[op.index()]
                    .attr(AttrKey::Pred)
                    .and_then(|a| a.as_pred())
                    .is_some();
                self.check(op, has_pred, "cmpi needs a `pred` attribute");
            }
            Select => {
                let ok = tys.len() == 3 && tys[0] == Type::I1 && tys[1] == tys[2];
                self.check(op, ok, "select needs (i1, T, T) operands");
                self.check(
                    op,
                    res == tys.get(1).copied(),
                    "select result type mismatch",
                );
            }
            SwitchVal => {
                let cases = self.body.ops[op.index()]
                    .attr(AttrKey::Cases)
                    .and_then(|a| a.as_int_list())
                    .map(|c| c.len());
                match cases {
                    None => {
                        self.error(Some(op), "switch_val needs a `cases` attribute".to_string())
                    }
                    Some(n) => {
                        let ok = tys.len() == n + 2 && tys[0].is_int();
                        self.check(
                            op,
                            ok,
                            "switch_val needs (int, v_0..v_{n-1}, default) operands",
                        );
                        if ok {
                            let vt = tys[1];
                            self.check(
                                op,
                                tys[1..].iter().all(|&t| t == vt),
                                "switch_val branches must share one type",
                            );
                            self.check(op, res == Some(vt), "switch_val result type mismatch");
                        }
                    }
                }
            }
            ExtUI | TruncI => {
                let ok = tys.len() == 1 && tys[0].is_int() && matches!(res, Some(t) if t.is_int());
                self.check(op, ok, "integer cast needs one integer operand");
                if ok {
                    let (from, to) = (
                        tys[0].bit_width().unwrap(),
                        res.unwrap().bit_width().unwrap(),
                    );
                    match opcode {
                        ExtUI => self.check(op, to > from, "extui must widen"),
                        TruncI => self.check(op, to < from, "trunci must narrow"),
                        _ => unreachable!(),
                    }
                }
            }
            Br => {
                self.check_succ_count(op, 1);
                self.check_succ_args(op);
            }
            CondBr => {
                self.check(op, tys == [Type::I1], "cond_br condition must be i1");
                self.check_succ_count(op, 2);
                self.check_succ_args(op);
            }
            SwitchBr => {
                let ok = tys.len() == 1 && tys[0].is_int();
                self.check(op, ok, "switch condition must be an integer");
                let cases = self.body.ops[op.index()]
                    .attr(AttrKey::Cases)
                    .and_then(|a| a.as_int_list())
                    .map(|c| c.len());
                match cases {
                    None => self.error(Some(op), "switch needs a `cases` attribute".to_string()),
                    Some(n) => self.check_succ_count(op, n + 1),
                }
                self.check_succ_args(op);
            }
            Unreachable => {}
            Call => {
                if let Some(sig) = self.callee_sig(op) {
                    self.check_call_shape(op, tys, sig, res);
                }
            }
            TailCall => {
                if let Some(sig) = self.callee_sig(op) {
                    self.check_call_shape(op, tys, sig, Some(sig.ret));
                    self.check(
                        op,
                        sig.ret == self.ret_ty,
                        "tail callee return type must match the caller's",
                    );
                }
            }
            Return => {
                let ok = tys.len() == 1 && tys[0] == self.ret_ty;
                self.check(op, ok, "return operand must match the function result type");
            }
            LpInt => {
                self.check(op, res == Some(Type::Obj), "lp.int yields !lp.t");
                let has = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_int())
                    .is_some();
                self.check(op, has, "lp.int needs an integer `value` attribute");
            }
            LpStr => {
                self.check(op, res == Some(Type::Obj), "lp.str yields !lp.t");
                let has = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .is_some();
                self.check(op, has, "lp.str needs a string `value` attribute");
            }
            LpBigInt => {
                self.check(op, res == Some(Type::Obj), "lp.bigint yields !lp.t");
                let valid = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .map(|s| {
                        let t = s.strip_prefix('-').unwrap_or(s);
                        !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
                    })
                    .unwrap_or(false);
                self.check(op, valid, "lp.bigint needs a decimal string `value`");
            }
            LpConstruct => {
                self.check(
                    op,
                    tys.iter().all(|&t| t == Type::Obj),
                    "lp.construct fields must be !lp.t",
                );
                self.check(op, res == Some(Type::Obj), "lp.construct yields !lp.t");
                let tag_ok = self.body.ops[op.index()]
                    .attr(AttrKey::Tag)
                    .and_then(|a| a.as_int())
                    .map(|t| t >= 0)
                    .unwrap_or(false);
                self.check(op, tag_ok, "lp.construct needs a non-negative `tag`");
            }
            LpGetLabel => {
                self.check(op, tys == [Type::Obj], "lp.getlabel takes one !lp.t");
                self.check(op, res == Some(Type::I8), "lp.getlabel yields i8");
            }
            LpProject => {
                self.check(op, tys == [Type::Obj], "lp.project takes one !lp.t");
                self.check(op, res == Some(Type::Obj), "lp.project yields !lp.t");
                let idx_ok = self.body.ops[op.index()]
                    .attr(AttrKey::Index)
                    .and_then(|a| a.as_int())
                    .map(|i| i >= 0)
                    .unwrap_or(false);
                self.check(op, idx_ok, "lp.project needs a non-negative `index`");
            }
            LpPap => {
                self.check(
                    op,
                    tys.iter().all(|&t| t == Type::Obj),
                    "lp.pap arguments must be !lp.t",
                );
                self.check(op, res == Some(Type::Obj), "lp.pap yields !lp.t");
                if let Some(sig) = self.callee_sig(op) {
                    self.check(
                        op,
                        tys.len() <= sig.params.len(),
                        "lp.pap cannot over-apply its callee",
                    );
                    let arity = self.body.ops[op.index()]
                        .attr(AttrKey::Arity)
                        .and_then(|a| a.as_int());
                    self.check(
                        op,
                        arity == Some(sig.params.len() as i64),
                        "lp.pap `arity` must equal the callee's parameter count",
                    );
                }
            }
            LpPapExtend => {
                let ok = tys.len() >= 2 && tys.iter().all(|&t| t == Type::Obj);
                self.check(op, ok, "lp.papextend needs a closure plus ≥1 !lp.t args");
                self.check(op, res == Some(Type::Obj), "lp.papextend yields !lp.t");
            }
            LpJoinPoint => {
                self.check(op, tys.is_empty(), "lp.joinpoint takes no operands");
                let has_label = self.body.ops[op.index()]
                    .attr(AttrKey::Label)
                    .and_then(|a| a.as_sym())
                    .is_some();
                self.check(op, has_label, "lp.joinpoint needs a `label`");
                let regions = &self.body.ops[op.index()].regions;
                if regions.len() == 2 {
                    // Body ("pre-jump") region entry takes no args.
                    let body_entry = self.body.regions[regions[1].index()].blocks[0];
                    self.check(
                        op,
                        self.body.blocks[body_entry.index()].args.is_empty(),
                        "lp.joinpoint body region entry takes no arguments",
                    );
                }
            }
            LpJump => match self.enclosing_joinpoint(op) {
                Some(jp) => {
                    let jp_region = self.body.ops[jp.index()].regions[0];
                    let jp_entry = self.body.regions[jp_region.index()].blocks[0];
                    let expected = self.body.blocks[jp_entry.index()].args.len();
                    self.check(
                        op,
                        tys.len() == expected,
                        "lp.jump argument count must match the join point",
                    );
                }
                None => self.error(
                    Some(op),
                    "lp.jump label does not name an enclosing join point".to_string(),
                ),
            },
            LpSwitch => {
                let ok = tys.len() == 1 && tys[0].is_int();
                self.check(op, ok, "lp.switch scrutinee must be an integer");
                let cases = self.body.ops[op.index()]
                    .attr(AttrKey::Cases)
                    .and_then(|a| a.as_int_list())
                    .map(|c| c.len());
                match cases {
                    None => self.error(Some(op), "lp.switch needs a `cases` attribute".to_string()),
                    Some(n) => {
                        let regions = self.body.ops[op.index()].regions.len();
                        self.check(
                            op,
                            regions == n + 1,
                            "lp.switch needs one region per case plus a default",
                        );
                    }
                }
                let body = self.body;
                for &r in &body.ops[op.index()].regions {
                    let entry = body.regions[r.index()].blocks[0];
                    self.check(
                        op,
                        self.body.blocks[entry.index()].args.is_empty(),
                        "lp.switch case regions take no arguments",
                    );
                }
            }
            LpInc | LpDec => {
                self.check(op, tys == [Type::Obj], "refcount ops take one !lp.t");
            }
            LpReturn => {
                self.check(op, tys == [Type::Obj], "lp.ret takes one !lp.t");
            }
            LpGlobalLoad | LpGlobalStore => {
                let g = self.body.ops[op.index()]
                    .attr(AttrKey::Global)
                    .and_then(|a| a.as_sym());
                match g {
                    Some(sym) if self.module.global(sym).is_some() => {}
                    Some(sym) => {
                        let name = self.module.name_of(sym).to_string();
                        self.error(Some(op), format!("unknown global @{name}"));
                    }
                    None => self.error(Some(op), "missing `global` attribute".to_string()),
                }
                if opcode == LpGlobalLoad {
                    self.check(op, res == Some(Type::Obj), "global load yields !lp.t");
                } else {
                    self.check(op, tys == [Type::Obj], "global store takes one !lp.t");
                }
            }
            RgnVal => {
                self.check(op, tys.is_empty(), "rgn.val takes no operands");
                self.check(op, res == Some(Type::Rgn), "rgn.val yields !rgn.region");
            }
            RgnRun => {
                let ok = !tys.is_empty() && tys[0] == Type::Rgn;
                self.check(op, ok, "rgn.run's first operand must be !rgn.region");
                self.check(
                    op,
                    tys[1..].iter().all(|&t| t != Type::Rgn),
                    "rgn.run arguments may not be region values",
                );
                // When the region is statically known, arg counts must match.
                if let Some(&r) = self.body.ops[op.index()].operands.first() {
                    if let Some(def) = self.body.defining_op(r) {
                        if self.body.ops[def.index()].opcode == Opcode::RgnVal
                            && !self.body.ops[def.index()].regions.is_empty()
                        {
                            let region = self.body.ops[def.index()].regions[0];
                            let entry = self.body.regions[region.index()].blocks[0];
                            let expected = self.body.blocks[entry.index()].args.len();
                            self.check(
                                op,
                                tys.len() - 1 == expected,
                                "rgn.run argument count must match the region's parameters",
                            );
                        }
                    }
                }
            }
        }
    }

    fn check_call_shape(
        &mut self,
        op: OpId,
        tys: &[Type],
        sig: &crate::types::Signature,
        res: Option<Type>,
    ) {
        if tys != &sig.params[..] {
            self.error(
                Some(op),
                format!(
                    "call argument types {:?} do not match callee signature {sig}",
                    tys
                ),
            );
        }
        if self.body.ops[op.index()].opcode == Opcode::Call && res != Some(sig.ret) {
            self.error(
                Some(op),
                "call result type must match the callee".to_string(),
            );
        }
    }

    /// Finds the join point named by an `lp.jump`'s label among enclosing ops.
    fn enclosing_joinpoint(&self, jump: OpId) -> Option<OpId> {
        let label = self.body.ops[jump.index()]
            .attr(AttrKey::Label)
            .and_then(|a| a.as_sym())?;
        let mut block = self.body.ops[jump.index()].parent?;
        loop {
            let region = self.body.block_region(block);
            let parent_op = self.body.regions[region.index()].parent?;
            let pdata = &self.body.ops[parent_op.index()];
            if pdata.opcode == Opcode::LpJoinPoint
                && pdata.attr(AttrKey::Label).and_then(|a| a.as_sym()) == Some(label)
            {
                return Some(parent_op);
            }
            block = pdata.parent?;
        }
    }

    /// Enforces the paper's restriction on region-value uses by `ops`.
    fn verify_rgn_restrictions(&mut self, ops: &[OpId]) {
        let body = self.body;
        for &op in ops {
            let data = &body.ops[op.index()];
            let opcode = data.opcode;
            for (i, &v) in data.operands.iter().enumerate() {
                if body.value_type(v) != Type::Rgn {
                    continue;
                }
                let allowed = match opcode {
                    Opcode::Select => i == 1 || i == 2,
                    Opcode::SwitchVal => i >= 1,
                    Opcode::RgnRun => i == 0,
                    _ => false,
                };
                if !allowed {
                    self.error(
                        Some(op),
                        format!("region value {v} may only be used by select/switch_val/rgn.run"),
                    );
                }
            }
            for s in &data.successors {
                for &a in &s.args {
                    if body.value_type(a) == Type::Rgn {
                        self.error(
                            Some(op),
                            "region values may not be passed as block arguments".to_string(),
                        );
                    }
                }
            }
        }
        // No rgn-typed block arguments.
        for (bi, b) in self.body.blocks.iter().enumerate() {
            if b.parent.is_none() {
                continue;
            }
            for &a in &b.args {
                if self.body.value_type(a) == Type::Rgn {
                    self.error(
                        None,
                        format!("block {} has a region-typed argument", BlockId(bi as u32)),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::Signature;

    fn module_with(f: impl FnOnce(&mut Module)) -> Module {
        let mut m = Module::new();
        f(&mut m);
        m
    }

    #[test]
    fn valid_simple_function() {
        let m = module_with(|m| {
            let (mut body, params) = Body::new(&[Type::I64]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let c = b.const_i(1, Type::I64);
            let s = b.addi(params[0], c);
            b.ret(s);
            m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);
        });
        verify_module(&m).unwrap();
    }

    #[test]
    fn missing_terminator_rejected() {
        let m = module_with(|m| {
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            b.const_i(1, Type::I64);
            m.add_function("f", Signature::new(vec![], Type::I64), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("terminator")),
            "{errs:?}"
        );
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let m = module_with(|m| {
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let c = b.const_i(1, Type::I8);
            b.ret(c);
            m.add_function("f", Signature::new(vec![], Type::I64), body);
        });
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn dominance_violation_rejected() {
        let m = module_with(|m| {
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            // Use before def: create the add first, then the const after it.
            let c_op = body.create_op(
                Opcode::ConstI,
                vec![],
                &[Type::I64],
                vec![(AttrKey::Value, crate::attr::Attr::Int(3))],
            );
            let c = body.ops[c_op.index()].result().unwrap();
            let add = body.create_op(Opcode::AddI, vec![c, c], &[Type::I64], vec![]);
            body.push_op(entry, add);
            body.push_op(entry, c_op);
            let s = body.ops[add.index()].result().unwrap();
            let mut b = Builder::at_end(&mut body, entry);
            b.ret(s);
            m.add_function("f", Signature::new(vec![], Type::I64), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("dominate")),
            "{errs:?}"
        );
    }

    #[test]
    fn unknown_callee_rejected() {
        let m = module_with(|m| {
            let callee = m.intern("nosuch");
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let v = b.call(callee, vec![], Type::Obj);
            b.lp_ret(v);
            m.add_function("f", Signature::new(vec![], Type::Obj), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown callee")));
    }

    #[test]
    fn rgn_value_as_call_arg_rejected() {
        let m = module_with(|m| {
            m.declare_extern("sink", Signature::new(vec![Type::Rgn], Type::Obj));
            let sink = m.interner.get("sink").unwrap();
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
            let v = b.call(sink, vec![rv], Type::Obj);
            b.lp_ret(v);
            m.add_function("f", Signature::new(vec![], Type::Obj), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("select/switch_val/rgn.run")),
            "{errs:?}"
        );
    }

    #[test]
    fn rgn_select_and_run_accepted() {
        let m = module_with(|m| {
            let (mut body, params) = Body::new(&[Type::I1]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let (r1, bl1) = b.rgn_val(&[]);
            {
                let mut ib = Builder::at_end(b.body, bl1);
                let v = ib.lp_int(3);
                ib.lp_ret(v);
            }
            let mut b = Builder::at_end(&mut body, entry);
            let (r2, bl2) = b.rgn_val(&[]);
            {
                let mut ib = Builder::at_end(b.body, bl2);
                let v = ib.lp_int(5);
                ib.lp_ret(v);
            }
            let mut b = Builder::at_end(&mut body, entry);
            let sel = b.select(params[0], r1, r2);
            b.rgn_run(sel, vec![]);
            m.add_function("f", Signature::new(vec![Type::I1], Type::Obj), body);
        });
        verify_module(&m).unwrap();
    }

    #[test]
    fn rgn_run_arity_mismatch_rejected() {
        let m = module_with(|m| {
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let (rv, inner) = b.rgn_val(&[Type::Obj]);
            {
                let arg = b.body.blocks[inner.index()].args[0];
                let mut ib = Builder::at_end(b.body, inner);
                ib.lp_ret(arg);
            }
            let mut b = Builder::at_end(&mut body, entry);
            b.rgn_run(rv, vec![]); // missing the argument
            m.add_function("f", Signature::new(vec![], Type::Obj), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("argument count")));
    }

    #[test]
    fn jump_without_joinpoint_rejected() {
        let m = module_with(|m| {
            let lbl = m.intern("nowhere");
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            b.lp_jump(lbl, vec![]);
            m.add_function("f", Signature::new(vec![], Type::Obj), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("join point")));
    }

    #[test]
    fn jump_inside_joinpoint_accepted() {
        let m = module_with(|m| {
            let lbl = m.intern("jp");
            let (mut body, _) = Body::new(&[]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let (_op, jp_entry, body_entry) = b.lp_joinpoint(lbl, &[]);
            {
                let mut jb = Builder::at_end(b.body, jp_entry);
                let v = jb.lp_int(60);
                jb.lp_ret(v);
            }
            {
                let mut bb = Builder::at_end(b.body, body_entry);
                bb.lp_jump(lbl, vec![]);
            }
            m.add_function("f", Signature::new(vec![], Type::Obj), body);
        });
        verify_module(&m).unwrap();
    }

    #[test]
    fn switch_region_count_must_match_cases() {
        let m = module_with(|m| {
            let (mut body, params) = Body::new(&[Type::I8]);
            let entry = body.entry_block();
            let mut b = Builder::at_end(&mut body, entry);
            let op = b.lp_switch(params[0], vec![0, 1]);
            let blocks: Vec<_> = b.body.ops[op.index()]
                .regions
                .iter()
                .map(|&r| b.body.regions[r.index()].blocks[0])
                .collect();
            for &bl in &blocks {
                let mut cb = Builder::at_end(b.body, bl);
                let v = cb.lp_int(0);
                cb.lp_ret(v);
            }
            // Remove one region to break the invariant.
            let last_region = b.body.ops[op.index()].regions.pop().unwrap();
            b.body.regions[last_region.index()].parent = None;
            m.add_function("f", Signature::new(vec![Type::I8], Type::Obj), body);
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("one region per case")));
    }
}
