//! The baseline backend: a direct λrc → CFG lowering modelling LEAN4's
//! existing C backend (`leanc`).
//!
//! Where the MLIR backend goes λrc → lp → rgn → CFG with region reasoning in
//! between, this backend does what a C code generator does: `case` becomes a
//! `switch` statement (a `cf.switch` over blocks), join points become labels
//! (blocks), jumps become `goto` (`cf.br`). No SSA-level optimization runs —
//! the C backend delegates that to the downstream compiler — and tail calls
//! are only *heuristically* eliminated (self-recursion), matching the
//! paper's Figure 11 row.

use lssa_core::rgn::TcoPass;
use lssa_ir::body::OperandList;
use lssa_ir::pass::Pass;
use lssa_ir::prelude::*;
use lssa_lambda::ast::{Expr, FnDef, Program, Value};
use std::collections::HashMap;

/// Lowers a λrc program directly to a flat-CFG module, C-backend style.
///
/// # Panics
///
/// Panics on malformed input (check with
/// [`lssa_lambda::wellformed::check_program`] first).
pub fn lower_program(program: &Program) -> Module {
    let mut module = Module::new();
    lssa_core::lp::declare_externs(&mut module);
    for f in &program.fns {
        module.intern(&f.name);
    }
    for f in &program.fns {
        let body = lower_fn(&mut module, program, f);
        module.add_function(&f.name, Signature::obj(f.arity()), body);
    }
    // Heuristic TCO: what a C compiler reliably gives you.
    TcoPass { only_self: true }.run_on(&mut module);
    module
}

struct Ctx<'a> {
    module: &'a mut Module,
    program: &'a Program,
    env: HashMap<u32, ValueId>,
    /// Join label → (block, its parameter values).
    joins: HashMap<u32, (BlockId, Vec<ValueId>)>,
}

fn lower_fn(module: &mut Module, program: &Program, f: &FnDef) -> Body {
    let (mut body, params) = Body::new(&vec![Type::Obj; f.arity()]);
    let mut ctx = Ctx {
        module,
        program,
        env: HashMap::new(),
        joins: HashMap::new(),
    };
    for (&p, &v) in f.params.iter().zip(&params) {
        ctx.env.insert(p, v);
    }
    let entry = body.entry_block();
    ctx.lower_expr(&mut body, entry, &f.body);
    body
}

impl Ctx<'_> {
    fn get(&self, v: u32) -> ValueId {
        *self
            .env
            .get(&v)
            .unwrap_or_else(|| panic!("unbound λ variable x{v}"))
    }

    /// Lowers `e` into `block`, leaving it terminated.
    fn lower_expr(&mut self, body: &mut Body, block: BlockId, e: &Expr) {
        match e {
            Expr::Let {
                var,
                val,
                body: rest,
            } => {
                let v = self.lower_value(body, block, val);
                self.env.insert(*var, v);
                self.lower_expr(body, block, rest);
            }
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body: rest,
            } => {
                // The join point is just a labelled block with arguments.
                let jp_block = body.new_block(ROOT_REGION, &vec![Type::Obj; params.len()]);
                let jp_args = body.blocks[jp_block.index()].args.clone();
                self.joins.insert(*label, (jp_block, jp_args.clone()));
                // jp body sees only its params.
                let saved = std::mem::take(&mut self.env);
                for (&p, &v) in params.iter().zip(&jp_args) {
                    self.env.insert(p, v);
                }
                self.lower_expr(body, jp_block, jp_body);
                self.env = saved;
                self.lower_expr(body, block, rest);
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                let s = self.get(*scrutinee);
                let tag8 = {
                    let mut b = Builder::at_end(body, block);
                    b.lp_getlabel(s)
                };
                // One block per arm, plus a default block; C-style switch.
                let mut arm_blocks = Vec::new();
                for _ in alts {
                    arm_blocks.push(body.new_block(ROOT_REGION, &[]));
                }
                let default_block = body.new_block(ROOT_REGION, &[]);
                let cases: Vec<i64> = alts.iter().map(|a| a.tag as i64).collect();
                {
                    let mut b = Builder::at_end(body, block);
                    b.switch_br(
                        tag8,
                        cases,
                        arm_blocks.iter().map(|&bl| (bl, [])),
                        (default_block, []),
                    );
                }
                for (alt, &bl) in alts.iter().zip(&arm_blocks) {
                    let saved = self.env.clone();
                    self.lower_expr(body, bl, &alt.body);
                    self.env = saved;
                }
                match default {
                    Some(d) => {
                        let saved = self.env.clone();
                        self.lower_expr(body, default_block, d);
                        self.env = saved;
                    }
                    None => {
                        let mut b = Builder::at_end(body, default_block);
                        b.unreachable();
                    }
                }
            }
            Expr::Jump { label, args } => {
                let (jp_block, _) = *self
                    .joins
                    .get(label)
                    .unwrap_or_else(|| panic!("jump to unknown join j{label}"));
                let vals: Vec<ValueId> = args.iter().map(|&a| self.get(a)).collect();
                let mut b = Builder::at_end(body, block);
                b.br(jp_block, vals);
            }
            Expr::Ret(v) => {
                let v = self.get(*v);
                let mut b = Builder::at_end(body, block);
                b.ret(v);
            }
            Expr::Inc { var, n, body: rest } => {
                let v = self.get(*var);
                {
                    let mut b = Builder::at_end(body, block);
                    for _ in 0..*n {
                        b.lp_inc(v);
                    }
                }
                self.lower_expr(body, block, rest);
            }
            Expr::Dec { var, body: rest } => {
                let v = self.get(*var);
                {
                    let mut b = Builder::at_end(body, block);
                    b.lp_dec(v);
                }
                self.lower_expr(body, block, rest);
            }
        }
    }

    fn lower_value(&mut self, body: &mut Body, block: BlockId, val: &Value) -> ValueId {
        let mut b = Builder::at_end(body, block);
        match val {
            Value::Var(v) => self.get(*v),
            Value::LitInt(n) => b.lp_int(*n),
            Value::LitBig(s) => b.lp_bigint(s),
            Value::LitStr(s) => b.lp_str(s),
            Value::Ctor { tag, args } => {
                let fields: OperandList = args.iter().map(|&a| self.get(a)).collect();
                b.lp_construct(*tag as i64, fields)
            }
            Value::Proj { var, idx } => {
                let s = self.get(*var);
                b.lp_project(s, *idx as i64)
            }
            Value::Call { func, args } => {
                let callee = self.module.intern(func);
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                let mut b = Builder::at_end(body, block);
                b.call(callee, vals, Type::Obj)
            }
            Value::Pap { func, args } => {
                let callee = self.module.intern(func);
                let arity = self
                    .program
                    .arity_of(func)
                    .unwrap_or_else(|| panic!("pap of unknown @{func}"))
                    as i64;
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                let mut b = Builder::at_end(body, block);
                b.lp_pap(callee, arity, vals)
            }
            Value::App { closure, args } => {
                let c = self.get(*closure);
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                b.lp_papextend(c, vals)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::opcode::Opcode;
    use lssa_ir::verifier::verify_module;
    use lssa_lambda::{insert_rc, parse_program};

    /// The body's ops in walk order.
    fn walk(body: &lssa_ir::body::Body) -> Vec<lssa_ir::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn lower(src: &str) -> Module {
        let p = parse_program(src).unwrap();
        lssa_lambda::check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let m = lower_program(&rc);
        if let Err(errs) = verify_module(&m) {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "baseline module does not verify:\n{}\n{}",
                msgs.join("\n"),
                lssa_ir::printer::print_module(&m)
            );
        }
        m
    }

    #[test]
    fn case_becomes_cf_switch() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def len(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + len(t)
  end
"#,
        );
        let f = m.func_by_name("len").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_switch = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::SwitchBr);
        assert!(has_switch);
        // No rgn ops in the baseline path, ever.
        let has_rgn = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode.dialect() == "rgn");
        assert!(!has_rgn);
    }

    #[test]
    fn join_points_become_blocks() {
        let m = lower(
            r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
"#,
        );
        let f = m.func_by_name("f").unwrap();
        let body = f.body.as_ref().unwrap();
        // Several blocks, with at least one carrying arguments (the join).
        assert!(body.regions[0].blocks.len() >= 3);
        let has_arg_block = body.regions[0]
            .blocks
            .iter()
            .skip(1)
            .any(|&bl| !body.blocks[bl.index()].args.is_empty());
        assert!(has_arg_block);
    }

    #[test]
    fn self_tail_recursion_gets_heuristic_tco() {
        let m = lower(
            r#"
def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)
"#,
        );
        let f = m.func_by_name("loop").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_tail = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(has_tail);
    }

    #[test]
    fn compiles_to_bytecode() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))
def sum(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h + sum(t)
  end
def main() := sum(build(10))
"#,
        );
        let p = lssa_vm::compile_module(&m).unwrap();
        let out = lssa_vm::run_program(&p, "main", 1_000_000).unwrap();
        assert_eq!(out.rendered, "55");
        assert_eq!(out.stats.heap.live, 0, "RC must balance");
    }
}
