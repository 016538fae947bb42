//! Textual IR output.
//!
//! The format mirrors MLIR's generic syntax closely enough to be familiar:
//!
//! ```text
//! module {
//!   extern func @lean_nat_add(!lp.t, !lp.t) -> !lp.t
//!   global @kslot : !lp.t
//!   func @length(%0: !lp.t) -> !lp.t {
//!   ^bb0(%0: !lp.t):
//!     %1 = lp.getlabel(%0) : i8
//!     lp.switch(%1) {cases = [0, 1]} ({
//!       ...
//!     }, {
//!       ...
//!     })
//!   }
//! }
//! ```
//!
//! Values and blocks are renumbered densely in definition order, so printing
//! is canonical: `print(parse(print(m))) == print(m)`.

use crate::attr::Attr;
use crate::body::{Body, ValueDef};
use crate::hash::FxHashMap;
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::module::{Function, Module};
use std::fmt::Write;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    out.push_str("module {\n");
    for g in &m.globals {
        let _ = writeln!(out, "  global @{} : {}", m.name_of(g.name), g.ty);
    }
    for f in &m.funcs {
        if f.is_extern() {
            let mut params = String::new();
            for (i, p) in f.sig.params.iter().enumerate() {
                if i > 0 {
                    params.push_str(", ");
                }
                let _ = write!(params, "{p}");
            }
            let _ = writeln!(
                out,
                "  extern func @{}({}) -> {}",
                m.name_of(f.name),
                params,
                f.sig.ret
            );
        } else {
            print_function(m, f, &mut out, 1);
        }
    }
    out.push_str("}\n");
    out
}

/// Prints one function (with bodies indented `indent` levels).
pub fn print_function(m: &Module, f: &Function, out: &mut String, indent: usize) {
    let body = f.body.as_ref().expect("print_function on extern");
    let mut p = FuncPrinter::new(m, body);
    p.number_region(crate::body::ROOT_REGION);
    let pad = "  ".repeat(indent);
    let _ = write!(out, "{pad}func @{}(", m.name_of(f.name));
    for (i, &param) in body.params().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", p.value_name(param), body.value_type(param));
    }
    let _ = writeln!(out, ") -> {} {{", f.sig.ret);
    p.print_region_blocks(crate::body::ROOT_REGION, out, indent + 1, true);
    let _ = writeln!(out, "{pad}}}");
}

/// Prints one op (with nested regions) for diagnostics.
pub fn op_to_string(m: &Module, body: &Body, op: OpId) -> String {
    let mut p = FuncPrinter::new(m, body);
    p.number_region(crate::body::ROOT_REGION);
    let mut out = String::new();
    p.print_op(op, &mut out, 0);
    out
}

/// Prints a function to a standalone string (testing convenience).
pub fn function_to_string(m: &Module, f: &Function) -> String {
    let mut out = String::new();
    print_function(m, f, &mut out, 0);
    out
}

struct FuncPrinter<'a> {
    module: &'a Module,
    body: &'a Body,
    value_names: FxHashMap<ValueId, u32>,
    block_names: FxHashMap<BlockId, u32>,
    next_value: u32,
    next_block: u32,
}

impl<'a> FuncPrinter<'a> {
    fn new(module: &'a Module, body: &'a Body) -> FuncPrinter<'a> {
        FuncPrinter {
            module,
            body,
            value_names: FxHashMap::default(),
            block_names: FxHashMap::default(),
            next_value: 0,
            next_block: 0,
        }
    }

    fn number_region(&mut self, region: RegionId) {
        for &b in &self.body.regions[region.index()].blocks {
            let n = self.next_block;
            self.next_block += 1;
            self.block_names.insert(b, n);
            for &a in &self.body.blocks[b.index()].args {
                let n = self.next_value;
                self.next_value += 1;
                self.value_names.insert(a, n);
            }
            for &op in &self.body.blocks[b.index()].ops {
                for &r in &self.body.ops[op.index()].results {
                    let n = self.next_value;
                    self.next_value += 1;
                    self.value_names.insert(r, n);
                }
                for &nested in &self.body.ops[op.index()].regions {
                    self.number_region(nested);
                }
            }
        }
    }

    fn value_name(&self, v: ValueId) -> String {
        match self.value_names.get(&v) {
            Some(n) => format!("%{n}"),
            None => format!("%<invalid:{}>", v.0),
        }
    }

    fn block_name(&self, b: BlockId) -> String {
        match self.block_names.get(&b) {
            Some(n) => format!("^bb{n}"),
            None => format!("^bb<invalid:{}>", b.0),
        }
    }

    fn print_region_blocks(
        &self,
        region: RegionId,
        out: &mut String,
        indent: usize,
        is_root: bool,
    ) {
        let blocks = &self.body.regions[region.index()].blocks;
        let pad = "  ".repeat(indent);
        for (i, &b) in blocks.iter().enumerate() {
            let data = &self.body.blocks[b.index()];
            // The root entry's args are the function parameters (already
            // printed in the signature), so its header is omitted.
            let needs_header = i > 0 || (!is_root && !data.args.is_empty());
            if needs_header {
                let _ = write!(out, "{pad}{}", self.block_name(b));
                if !data.args.is_empty() {
                    out.push('(');
                    for (j, &a) in data.args.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{}: {}", self.value_name(a), self.body.value_type(a));
                    }
                    out.push(')');
                }
                out.push_str(":\n");
            }
            for &op in &data.ops {
                self.print_op(op, out, indent + 1);
            }
        }
    }

    fn print_op(&self, op: OpId, out: &mut String, indent: usize) {
        let data = &self.body.ops[op.index()];
        let pad = "  ".repeat(indent);
        out.push_str(&pad);
        // Results.
        if !data.results.is_empty() {
            for (i, &r) in data.results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&self.value_name(r));
            }
            out.push_str(" = ");
        }
        out.push_str(data.opcode.name());
        // Operands.
        if !data.operands.is_empty() {
            out.push('(');
            for (i, &o) in data.operands.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&self.value_name(o));
            }
            out.push(')');
        }
        // Attributes.
        if !data.attrs.is_empty() {
            out.push_str(" {");
            for (i, (k, a)) in data.attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{k} = ");
                self.print_attr(a, out);
            }
            out.push('}');
        }
        // Successors.
        if !data.successors.is_empty() {
            out.push_str(" [");
            for (i, s) in data.successors.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&self.block_name(s.block));
                if !s.args.is_empty() {
                    out.push('(');
                    for (j, &a) in s.args.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&self.value_name(a));
                    }
                    out.push(')');
                }
            }
            out.push(']');
        }
        // Regions.
        if !data.regions.is_empty() {
            out.push_str(" (");
            for (i, &r) in data.regions.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\n");
                self.print_region_blocks(r, out, indent + 1, false);
                let _ = write!(out, "{pad}}}");
            }
            out.push(')');
        }
        // Result type.
        if let Some(r) = data.results.first() {
            let _ = write!(out, " : {}", self.body.value_type(*r));
        }
        out.push('\n');
    }

    fn print_attr(&self, a: &Attr, out: &mut String) {
        match a {
            Attr::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Attr::Str(s) => {
                let _ = write!(out, "{s:?}");
            }
            Attr::Sym(s) => {
                let _ = write!(out, "@{}", self.module.name_of(*s));
            }
            Attr::IntList(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            Attr::Pred(p) => {
                let _ = write!(out, "{p}");
            }
        }
    }
}

/// Checks that every value referenced is also numbered (printer diagnostic).
pub fn has_invalid_refs(m: &Module) -> bool {
    print_module(m).contains("<invalid:")
}

// The use of ValueDef here keeps the import exercised even though numbering
// is definition-order based.
#[allow(dead_code)]
fn _def_order(v: &ValueDef) -> u32 {
    match v {
        ValueDef::OpResult(op, i) => op.0.wrapping_add(*i),
        ValueDef::BlockArg(b, i) => b.0.wrapping_add(*i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::{Signature, Type};

    #[test]
    fn print_simple_function() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I64);
        let sum = b.addi(params[0], c);
        b.ret(sum);
        m.add_function("inc", Signature::new(vec![Type::I64], Type::I64), body);
        let text = print_module(&m);
        assert!(text.contains("func @inc(%0: i64) -> i64 {"), "{text}");
        assert!(
            text.contains("%1 = arith.constant {value = 1} : i64"),
            "{text}"
        );
        assert!(text.contains("%2 = arith.addi(%0, %1) : i64"), "{text}");
        assert!(text.contains("func.return(%2)"), "{text}");
    }

    #[test]
    fn print_switch_with_regions() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let tag = b.lp_getlabel(params[0]);
        let (_op, blocks) = b.lp_switch(tag, vec![0]);
        {
            let mut b0 = Builder::at_end(&mut body, blocks[0]);
            let v = b0.lp_int(0);
            b0.lp_ret(v);
        }
        {
            let mut b1 = Builder::at_end(&mut body, blocks[1]);
            let v = b1.lp_int(1);
            b1.lp_ret(v);
        }
        m.add_function("f", Signature::obj(1), body);
        let text = print_module(&m);
        assert!(text.contains("lp.switch(%1) {cases = [0]} ({"), "{text}");
        assert!(text.contains("lp.ret("), "{text}");
    }

    #[test]
    fn print_successors() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let then_b = body.new_block(crate::body::ROOT_REGION, &[]);
        let else_b = body.new_block(crate::body::ROOT_REGION, &[Type::I64]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(9, Type::I64);
        b.cond_br(params[0], (then_b, vec![]), (else_b, vec![c]));
        let mut bt = Builder::at_end(&mut body, then_b);
        let z = bt.const_i(0, Type::I64);
        bt.ret(z);
        let else_arg = body.blocks[else_b.index()].args[0];
        let mut be = Builder::at_end(&mut body, else_b);
        be.ret(else_arg);
        m.add_function("g", Signature::new(vec![Type::I1], Type::I64), body);
        let text = print_module(&m);
        assert!(text.contains("cf.cond_br(%0) [^bb1, ^bb2(%1)]"), "{text}");
        assert!(text.contains("^bb2(%3: i64):"), "{text}");
    }

    #[test]
    fn extern_and_global_printed() {
        let mut m = Module::new();
        m.declare_extern("lean_nat_add", Signature::obj(2));
        m.add_global("kslot", Type::Obj);
        let text = print_module(&m);
        assert!(text.contains("extern func @lean_nat_add(!lp.t, !lp.t) -> !lp.t"));
        assert!(text.contains("global @kslot : !lp.t"));
    }
}
