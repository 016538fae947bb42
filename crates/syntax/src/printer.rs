//! The canonical `.lssa` formatter.
//!
//! The layout is fixed (two-space indent, `let`/`inc`/`dec` chains printed as
//! flat sequences rather than stair-stepped nesting, small case arms inline),
//! so formatting is idempotent and `parse(print(p)) == p` for every program
//! the lowering in [`lssa_lambda::parse`] can produce — including the
//! `next_var`/`next_join` bounds, which the parser reconstructs as one past
//! the highest mentioned id.

use lssa_lambda::ast::{BlockId, FnDef, Names, Program, Stmt, Terminator, Value};
use std::fmt::Write as _;

/// Prints a whole program in canonical form, one blank line between
/// functions, with a trailing newline.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, f) in p.fns.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_fn_def(&mut out, &p.names, f);
        out.push('\n');
    }
    out
}

/// Prints one function definition of `p` (no trailing newline).
pub fn print_fn_def(p: &Program, f: &FnDef) -> String {
    let mut out = String::new();
    write_fn_def(&mut out, &p.names, f);
    out
}

/// Parses `src` leniently and reprints it canonically.
///
/// Wellformedness problems do not block formatting (the tree is still
/// complete); only syntax errors do.
///
/// # Errors
///
/// Returns the diagnostics when the source is syntactically broken and no
/// complete tree could be recovered.
pub fn format_source(src: &str) -> Result<String, Vec<crate::diag::Diagnostic>> {
    let outcome = crate::parse::parse_source(src);
    match outcome.program {
        Some(p) => Ok(print_program(&p)),
        None => Err(outcome.diagnostics),
    }
}

fn write_fn_def(out: &mut String, names: &Names, f: &FnDef) {
    out.push_str("(def ");
    write_name(out, names.resolve(f.name));
    out.push_str(" (");
    for (i, p) in f.params().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "x{p}");
    }
    out.push_str(")\n  ");
    Printer { out, names, f }.block(f.body, 2);
    out.push(')');
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push(' ');
    }
}

/// Prints the blocks of one function.
struct Printer<'a> {
    out: &'a mut String,
    names: &'a Names,
    f: &'a FnDef,
}

impl Printer<'_> {
    /// Whether block `b` is small enough to sit inline in a case arm.
    fn inline_ok(&self, b: BlockId) -> bool {
        self.f.arena.stmts(b).is_empty()
            && matches!(
                self.f.arena.term(b),
                Terminator::Ret(_) | Terminator::Jump { .. }
            )
    }

    /// Writes block `b`: each statement opens a form whose last item is
    /// the rest of the block, one per line at `indent`, then the
    /// terminator and the statements' closing parentheses.
    fn block(&mut self, b: BlockId, indent: usize) {
        let arena = &self.f.arena;
        let stmts = arena.stmts(b);
        for s in stmts {
            match *s {
                Stmt::Let { var, ref val } => {
                    let _ = write!(self.out, "(let x{var} ");
                    self.value(val);
                    self.out.push('\n');
                }
                Stmt::Join {
                    label,
                    params,
                    body,
                } => {
                    let _ = write!(self.out, "(join j{label} (");
                    for (i, p) in arena.vars(params).iter().enumerate() {
                        if i > 0 {
                            self.out.push(' ');
                        }
                        let _ = write!(self.out, "x{p}");
                    }
                    self.out.push_str(")\n");
                    pad(self.out, indent + 2);
                    self.block(body, indent + 2);
                    self.out.push('\n');
                }
                Stmt::Inc { var, n } => {
                    let _ = writeln!(self.out, "(inc x{var} {n}");
                }
                Stmt::Dec { var } => {
                    let _ = writeln!(self.out, "(dec x{var}");
                }
            }
            pad(self.out, indent);
        }
        match *arena.term(b) {
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                let _ = write!(self.out, "(case x{scrutinee}");
                for alt in arena.alts(alts) {
                    self.out.push('\n');
                    pad(self.out, indent + 2);
                    let _ = write!(self.out, "({}", alt.tag);
                    self.arm_body(alt.body, indent + 2);
                }
                if let Some(d) = default {
                    self.out.push('\n');
                    pad(self.out, indent + 2);
                    self.out.push_str("(else");
                    self.arm_body(d, indent + 2);
                }
                self.out.push(')');
            }
            Terminator::Jump { label, args } => {
                let _ = write!(self.out, "(jump j{label}");
                for a in arena.vars(args) {
                    let _ = write!(self.out, " x{a}");
                }
                self.out.push(')');
            }
            Terminator::Ret(v) => {
                let _ = write!(self.out, "(ret x{v})");
            }
        }
        for _ in stmts {
            self.out.push(')');
        }
    }

    /// Writes a case-arm body: inline when tiny, indented on its own line
    /// otherwise. `indent` is the arm's indent.
    fn arm_body(&mut self, body: BlockId, indent: usize) {
        if self.inline_ok(body) {
            self.out.push(' ');
            self.block(body, indent);
        } else {
            self.out.push('\n');
            pad(self.out, indent + 2);
            self.block(body, indent + 2);
        }
        self.out.push(')');
    }

    fn value(&mut self, v: &Value) {
        let arena = &self.f.arena;
        let out = &mut *self.out;
        let args = |out: &mut String, args| {
            for a in arena.vars(args) {
                let _ = write!(out, " x{a}");
            }
        };
        match *v {
            Value::Var(x) => {
                let _ = write!(out, "x{x}");
            }
            Value::LitInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::LitBig(digits) => {
                let digits = arena.text(digits);
                if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                    let _ = write!(out, "(big {digits})");
                } else {
                    // Ill-formed payloads survive formatting via the quoted form.
                    out.push_str("(big ");
                    write_string(out, digits);
                    out.push(')');
                }
            }
            Value::LitStr(s) => write_string(out, arena.text(s)),
            Value::Ctor { tag, args: list } => {
                let _ = write!(out, "(ctor {tag}");
                args(out, list);
                out.push(')');
            }
            Value::Proj { var, idx } => {
                let _ = write!(out, "(proj {idx} x{var})");
            }
            Value::Call { func, args: list } => {
                out.push_str("(call ");
                write_name(out, self.names.resolve(func));
                args(out, list);
                out.push(')');
            }
            Value::Pap { func, args: list } => {
                out.push_str("(pap ");
                write_name(out, self.names.resolve(func));
                args(out, list);
                out.push(')');
            }
            Value::App {
                closure,
                args: list,
            } => {
                let _ = write!(out, "(app x{closure}");
                args(out, list);
                out.push(')');
            }
        }
    }
}

/// Whether `name` can be printed as a bare atom and read back unchanged.
fn bare_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| (0x21..0x7f).contains(&b) && !matches!(b, b'(' | b')' | b'"' | b';'))
}

fn write_name(out: &mut String, name: &str) {
    if bare_ok(name) {
        out.push_str(name);
    } else {
        write_string(out, name);
    }
}

/// Writes a string literal with canonical (ASCII-only) escaping; the lexer
/// decodes every escape emitted here.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (' '..='~').contains(&c) => out.push(c),
            c => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use lssa_lambda::ast::{BodyBuilder, Names, VarId};
    use std::sync::Arc;

    fn roundtrip(p: &Program) {
        let text = print_program(p);
        let back = parse_program(&text).unwrap_or_else(|d| panic!("{d:?}\n---\n{text}"));
        assert_eq!(&back, p, "reparse changed the program:\n{text}");
        assert_eq!(print_program(&back), text, "printing is not idempotent");
    }

    /// A program of one function `name(params)`, its body built by `body`.
    fn single(
        name: &str,
        params: &[VarId],
        next_var: VarId,
        next_join: u32,
        body: impl FnOnce(&mut BodyBuilder) -> BlockId,
    ) -> Program {
        let mut names = Names::default();
        let name = names.intern(name);
        let mut b = BodyBuilder::default();
        b.open();
        let entry = body(&mut b);
        Program {
            fns: vec![b.finish(name, params, entry, next_var, next_join)],
            names: Arc::new(names),
        }
    }

    #[test]
    fn flat_let_chain_layout() {
        let p = single("main", &[], 2, 0, |b| {
            b.let_(0, Value::LitInt(1));
            b.let_(1, Value::Var(0));
            b.ret(1)
        });
        assert_eq!(
            print_program(&p),
            "(def main ()\n  (let x0 1\n  (let x1 x0\n  (ret x1))))\n"
        );
        roundtrip(&p);
    }

    #[test]
    fn case_arms_inline_when_small() {
        let p = single("f", &[0], 2, 0, |b| {
            b.open();
            let a0 = b.ret(0);
            b.open();
            b.let_(1, Value::LitInt(9));
            let a1 = b.ret(1);
            b.open();
            let d = b.ret(0);
            b.case(0, &[(0, a0), (1, a1)], Some(d))
        });
        let text = print_program(&p);
        assert!(text.contains("(0 (ret x0))"), "{text}");
        assert!(
            text.contains("(1\n      (let x1 9\n      (ret x1)))"),
            "{text}"
        );
        assert!(text.contains("(else (ret x0))"), "{text}");
        roundtrip(&p);
    }

    #[test]
    fn join_and_rc_ops_roundtrip() {
        let p = single("f", &[0], 2, 1, |b| {
            b.open();
            b.push(Stmt::Inc { var: 1, n: 2 });
            b.push(Stmt::Dec { var: 1 });
            let jp = b.ret(1);
            let params = b.list(&[1]);
            b.push(Stmt::Join {
                label: 0,
                params,
                body: jp,
            });
            b.jump(0, &[0])
        });
        roundtrip(&p);
    }

    #[test]
    fn strings_names_and_bigs_escape_canonically() {
        let mut names = Names::default();
        let odd_name = names.intern("odd name");
        let main_name = names.intern("main");
        let mut b = BodyBuilder::default();
        b.open();
        let odd_body = b.ret(0);
        let odd = b.finish(odd_name, &[0], odd_body, 1, 0);
        b.open();
        let s = b.text("a\"b\\c\nα\u{1}");
        b.let_(1, Value::LitStr(s));
        let big = b.text("123");
        b.let_(2, Value::LitBig(big));
        let bad = b.text("not digits");
        b.let_(3, Value::LitBig(bad));
        let args = b.list(&[0]);
        b.let_(
            4,
            Value::Call {
                func: odd_name,
                args,
            },
        );
        let body = b.ret(4);
        let main = b.finish(main_name, &[0], body, 5, 0);
        let p = Program {
            fns: vec![odd, main],
            names: Arc::new(names),
        };
        let text = print_program(&p);
        assert!(text.contains(r#""a\"b\\c\n\u{3b1}\u{1}""#), "{text}");
        assert!(text.contains("(big 123)"), "{text}");
        assert!(text.contains("(big \"not digits\")"), "{text}");
        assert!(text.contains("(def \"odd name\" (x0)"), "{text}");
        // The malformed big is a wellformedness error, so reparse strictly
        // fails — compare via the lenient path instead.
        let outcome = crate::parse::parse_source(&text);
        assert_eq!(outcome.program.as_ref(), Some(&p));
        assert_eq!(print_program(outcome.program.as_ref().unwrap()), text);
    }

    #[test]
    fn format_source_normalises_whitespace() {
        let src = "(def main()(let x0 42(ret x0)))";
        let formatted = format_source(src).unwrap();
        assert_eq!(formatted, "(def main ()\n  (let x0 42\n  (ret x0)))\n");
        assert_eq!(format_source(&formatted).unwrap(), formatted, "idempotent");
    }

    #[test]
    fn format_source_fails_on_broken_syntax() {
        assert!(format_source("(def main () (ret x0").is_err());
    }
}
