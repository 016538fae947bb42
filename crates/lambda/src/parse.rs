//! The surface language and its lowering to λpure.
//!
//! A small strict functional language standing in for LEAN4's source level —
//! just enough to write the paper's benchmark suite:
//!
//! ```text
//! inductive List := Nil | Cons(head, tail)
//!
//! def length(xs) :=
//!   case xs of
//!   | Nil => 0
//!   | Cons(h, t) => 1 + length(t)
//!   end
//!
//! def main() := length(Cons(1, Cons(2, Nil)))
//! ```
//!
//! Lowering produces A-normal-form λpure ([`crate::ast`]): every intermediate
//! value is `let`-bound, `case` in value position is compiled with a *join
//! point* (the paper's Figure 5 mechanism), constructor patterns bind fields
//! through projections, and integer patterns are staged through
//! `lean_nat_dec_eq` exactly as §III-A describes.
//!
//! Operators map to runtime builtins: `+ - * / % == != < <= > >=` are the
//! `Nat` operations; `@name(args)` calls the runtime builtin `lean_name`
//! directly (e.g. `@int_add`, `@array_get`).

use crate::ast::{build, Alt, Expr, FnDef, JoinId, Program, Value, VarId};
use std::collections::HashMap;
use std::fmt;

/// The deepest nesting either program reader accepts. The `.lssa` reader
/// counts nested lists. This parser counts nested expressions (every
/// parenthesis, `let` and argument list) and each operator or call of a
/// chain as one level, and each `if`, `case` and integer `case` arm as
/// three. A `let` chain of depth *n* nests about *n* levels,
/// and an `.lssa` `case` chain two per level.
///
/// At this depth every layer of the compiler and the VM runs an `.lssa`
/// `let` or `case` chain, and a `.fl` chain of any of these forms binding
/// one value per level, in half of an 8 MiB main-thread stack. An
/// unoptimized build's frames are several times larger (1,000 nested `.fl`
/// parentheses took 13 MiB of stack to parse and lower, against 2.8 MiB
/// optimized), so its bound is 250.
pub const MAX_DEPTH: usize = if cfg!(debug_assertions) { 250 } else { 1_000 };

/// The levels an `if`, a `case` or an integer `case` arm (which lowers to
/// an `if`) counts toward [`MAX_DEPTH`]: each lowers to a bound value, a
/// `case` and, in value position, a join point, which stack about three
/// times the frames of a `let` in the later layers.
const BRANCH_LEVELS: usize = 3;

/// A parse or lowering error with a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SurfaceError {}

// ---- tokens ---------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Int(String),
    Str(String),
    LowerIdent(String),
    UpperIdent(String),
    AtIdent(String),
    Kw(&'static str), // inductive def let case of end if then else true false
    Punct(&'static str),
    Eof,
}

const KEYWORDS: &[&str] = &[
    "inductive",
    "def",
    "let",
    "case",
    "of",
    "end",
    "if",
    "then",
    "else",
    "true",
    "false",
];

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> SurfaceError {
        SurfaceError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => {
                    self.bump();
                }
                Some(b'-') if self.src.get(self.pos + 1) == Some(&b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self, first: u8) -> String {
        let mut s = String::new();
        s.push(first as char);
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                s.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn next(&mut self) -> Result<Tok, SurfaceError> {
        self.skip_ws();
        let Some(b) = self.peek() else {
            return Ok(Tok::Eof);
        };
        // Multi-char punctuation first.
        let two = |l: &Lexer| -> Option<&'static str> {
            let pair = [l.src.get(l.pos).copied()?, l.src.get(l.pos + 1).copied()?];
            match &pair {
                b":=" => Some(":="),
                b"=>" => Some("=>"),
                b"==" => Some("=="),
                b"!=" => Some("!="),
                b"<=" => Some("<="),
                b">=" => Some(">="),
                _ => None,
            }
        };
        if let Some(p) = two(self) {
            self.bump();
            self.bump();
            return Ok(Tok::Punct(p));
        }
        match b {
            b'(' | b')' | b',' | b';' | b'|' | b'+' | b'-' | b'*' | b'/' | b'%' | b'<' | b'>'
            | b'_' => {
                self.bump();
                let s: &'static str = match b {
                    b'(' => "(",
                    b')' => ")",
                    b',' => ",",
                    b';' => ";",
                    b'|' => "|",
                    b'+' => "+",
                    b'-' => "-",
                    b'*' => "*",
                    b'/' => "/",
                    b'%' => "%",
                    b'<' => "<",
                    b'>' => ">",
                    b'_' => "_",
                    _ => unreachable!(),
                };
                Ok(Tok::Punct(s))
            }
            b'@' => {
                self.bump();
                let first = self
                    .bump()
                    .ok_or_else(|| self.err("expected builtin name after '@'"))?;
                Ok(Tok::AtIdent(self.ident(first)))
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n') => s.push('\n'),
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            _ => return Err(self.err("bad escape")),
                        },
                        Some(c) => s.push(c as char),
                        None => return Err(self.err("unterminated string")),
                    }
                }
                Ok(Tok::Str(s))
            }
            d if d.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(b) = self.peek() {
                    if b.is_ascii_digit() {
                        s.push(b as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Tok::Int(s))
            }
            a if a.is_ascii_alphabetic() => {
                self.bump();
                let s = self.ident(a);
                if let Some(&kw) = KEYWORDS.iter().find(|&&k| k == s) {
                    Ok(Tok::Kw(kw))
                } else if s.as_bytes()[0].is_ascii_uppercase() {
                    Ok(Tok::UpperIdent(s))
                } else {
                    Ok(Tok::LowerIdent(s))
                }
            }
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }
}

// ---- surface AST -----------------------------------------------------------

#[derive(Debug, Clone)]
enum SExpr {
    Int(String),
    Str(String),
    Bool(bool),
    Var(String),
    CtorRef(String),
    Apply(Box<SExpr>, Vec<SExpr>),
    AtCall(String, Vec<SExpr>),
    Binop(&'static str, Box<SExpr>, Box<SExpr>),
    Let(String, Box<SExpr>, Box<SExpr>),
    If(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    Case(Box<SExpr>, Vec<(SPat, SExpr)>),
}

#[derive(Debug, Clone)]
enum SPat {
    Ctor(String, Vec<String>),
    Int(String),
    Bool(bool),
    Wild,
}

// ---- parser --------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    /// Expressions open around the one being parsed.
    depth: usize,
}

/// A parsed expression and its height.
type Parsed = (SExpr, usize);

#[derive(Debug, Clone)]
struct CtorInfo {
    tag: u32,
    arity: usize,
}

/// Parses and lowers a surface program to λpure.
///
/// # Errors
///
/// Returns a [`SurfaceError`] on syntax errors, unknown names, or arity
/// mismatches.
pub fn parse_program(src: &str) -> Result<Program, SurfaceError> {
    let mut lexer = Lexer::new(src);
    let tok = lexer.next()?;
    let mut p = Parser {
        lexer,
        tok,
        depth: 0,
    };
    p.parse_program()
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> SurfaceError {
        self.lexer.err(message)
    }

    fn advance(&mut self) -> Result<Tok, SurfaceError> {
        let next = self.lexer.next()?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn eat_punct(&mut self, p: &'static str) -> Result<bool, SurfaceError> {
        if self.tok == Tok::Punct(p) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), SurfaceError> {
        if !self.eat_punct(p)? {
            return Err(self.err(format!("expected `{p}`, found {:?}", self.tok)));
        }
        Ok(())
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<(), SurfaceError> {
        if self.tok == Tok::Kw(kw) {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.tok)))
        }
    }

    fn lower_ident(&mut self) -> Result<String, SurfaceError> {
        match self.advance()? {
            Tok::LowerIdent(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_program(&mut self) -> Result<Program, SurfaceError> {
        let mut ctors: HashMap<String, CtorInfo> = HashMap::new();
        // Built-in Bool constructors (LEAN: false = 0, true = 1).
        ctors.insert("False".into(), CtorInfo { tag: 0, arity: 0 });
        ctors.insert("True".into(), CtorInfo { tag: 1, arity: 0 });
        let mut defs: Vec<(String, Vec<String>, SExpr)> = Vec::new();
        loop {
            match &self.tok {
                Tok::Eof => break,
                Tok::Kw("inductive") => {
                    self.advance()?;
                    let _name = match self.advance()? {
                        Tok::UpperIdent(s) => s,
                        other => {
                            return Err(self.err(format!("expected type name, found {other:?}")))
                        }
                    };
                    self.expect_punct(":=")?;
                    let mut tag = 0u32;
                    // Optional leading '|'.
                    let _ = self.eat_punct("|")?;
                    loop {
                        let cname = match self.advance()? {
                            Tok::UpperIdent(s) => s,
                            other => {
                                return Err(
                                    self.err(format!("expected constructor, found {other:?}"))
                                )
                            }
                        };
                        let mut arity = 0;
                        if self.eat_punct("(")? {
                            loop {
                                self.lower_ident()?; // field name (documentation only)
                                arity += 1;
                                if !self.eat_punct(",")? {
                                    break;
                                }
                            }
                            self.expect_punct(")")?;
                        }
                        if ctors
                            .insert(cname.clone(), CtorInfo { tag, arity })
                            .is_some()
                        {
                            return Err(self.err(format!("duplicate constructor `{cname}`")));
                        }
                        tag += 1;
                        if !self.eat_punct("|")? {
                            break;
                        }
                    }
                }
                Tok::Kw("def") => {
                    self.advance()?;
                    let name = self.lower_ident()?;
                    self.expect_punct("(")?;
                    let mut params = Vec::new();
                    if self.tok != Tok::Punct(")") {
                        loop {
                            params.push(self.lower_ident()?);
                            if !self.eat_punct(",")? {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    self.expect_punct(":=")?;
                    let (body, _) = self.parse_expr()?;
                    defs.push((name, params, body));
                }
                other => return Err(self.err(format!("expected item, found {other:?}"))),
            }
        }
        // Arities of all defs (needed to classify applications).
        let arities: HashMap<String, usize> = defs
            .iter()
            .map(|(n, ps, _)| (n.clone(), ps.len()))
            .collect();
        let mut program = Program::default();
        for (name, params, body) in defs {
            let f = Lowerer::new(&ctors, &arities).lower_fn(&name, &params, &body)?;
            program.fns.push(f);
        }
        Ok(program)
    }

    /// The error for an expression past [`MAX_DEPTH`].
    fn too_deep(&self) -> SurfaceError {
        self.err(format!("expressions nest deeper than {MAX_DEPTH} levels"))
    }

    /// The height of a node `levels` above children of height at most
    /// `children`, refused past [`MAX_DEPTH`].
    fn node(&self, children: usize, levels: usize) -> Result<usize, SurfaceError> {
        let h = children + levels;
        if h > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(h)
    }

    // Expressions. Each returns the expression and its height: the levels
    // on its longest path (an atom is 0, most nodes one level, a branch
    // `BRANCH_LEVELS`).
    fn parse_expr(&mut self) -> Result<Parsed, SurfaceError> {
        if self.depth > MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let e = self.parse_form();
        self.depth -= 1;
        e
    }

    // Each form parses in a function of its own, so the frames that a
    // nesting level stacks up stay small even in an unoptimized build.
    fn parse_form(&mut self) -> Result<Parsed, SurfaceError> {
        match self.tok {
            Tok::Kw("let") => self.parse_let(),
            Tok::Kw("if") => self.parse_if(),
            Tok::Kw("case") => self.parse_case(),
            _ => self.parse_binary(0),
        }
    }

    fn parse_let(&mut self) -> Result<Parsed, SurfaceError> {
        self.advance()?;
        let name = self.lower_ident()?;
        self.expect_punct(":=")?;
        let (rhs, hr) = self.parse_expr()?;
        self.expect_punct(";")?;
        let (body, hb) = self.parse_expr()?;
        let h = self.node(hr.max(hb), 1)?;
        Ok((SExpr::Let(name, Box::new(rhs), Box::new(body)), h))
    }

    fn parse_if(&mut self) -> Result<Parsed, SurfaceError> {
        self.advance()?;
        let (c, hc) = self.parse_expr()?;
        self.expect_kw("then")?;
        let (t, ht) = self.parse_expr()?;
        self.expect_kw("else")?;
        let (e, he) = self.parse_expr()?;
        let h = self.node(hc.max(ht).max(he), BRANCH_LEVELS)?;
        Ok((SExpr::If(Box::new(c), Box::new(t), Box::new(e)), h))
    }

    fn parse_case(&mut self) -> Result<Parsed, SurfaceError> {
        self.advance()?;
        let (scrut, mut h) = self.parse_expr()?;
        self.expect_kw("of")?;
        let mut arms = Vec::new();
        while self.eat_punct("|")? {
            let pat = self.parse_pattern()?;
            self.expect_punct("=>")?;
            let (body, hb) = self.parse_expr()?;
            h = h.max(hb);
            // Integer arms lower to a chain of nested `if`s.
            if matches!(pat, SPat::Int(_)) {
                h = self.node(h, BRANCH_LEVELS)?;
            }
            arms.push((pat, body));
        }
        self.expect_kw("end")?;
        if arms.is_empty() {
            return Err(self.err("case needs at least one arm"));
        }
        let h = self.node(h, BRANCH_LEVELS)?;
        Ok((SExpr::Case(Box::new(scrut), arms), h))
    }

    fn parse_pattern(&mut self) -> Result<SPat, SurfaceError> {
        match self.advance()? {
            Tok::Punct("_") => Ok(SPat::Wild),
            Tok::Int(s) => Ok(SPat::Int(s)),
            Tok::Kw("true") => Ok(SPat::Bool(true)),
            Tok::Kw("false") => Ok(SPat::Bool(false)),
            Tok::UpperIdent(name) => {
                let mut binders = Vec::new();
                if self.eat_punct("(")? {
                    loop {
                        match self.advance()? {
                            Tok::LowerIdent(s) => binders.push(s),
                            Tok::Punct("_") => binders.push("_".into()),
                            other => {
                                return Err(
                                    self.err(format!("expected field binder, found {other:?}"))
                                )
                            }
                        }
                        if !self.eat_punct(",")? {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                Ok(SPat::Ctor(name, binders))
            }
            other => Err(self.err(format!("expected pattern, found {other:?}"))),
        }
    }

    /// A chain of binary operators binding at least as tightly as
    /// `min_prec` (comparisons 0, `+ -` 1, `* / %` 2). Comparisons do not
    /// chain; the other operators associate to the left.
    fn parse_binary(&mut self, min_prec: u8) -> Result<Parsed, SurfaceError> {
        let (mut lhs, mut h) = self.parse_apply()?;
        while let Some((op, prec)) = self.binary_op().filter(|&(_, p)| p >= min_prec) {
            self.advance()?;
            let (rhs, hr) = self.parse_binary(prec + 1)?;
            h = self.node(h.max(hr), 1)?;
            lhs = SExpr::Binop(op, Box::new(lhs), Box::new(rhs));
            if prec == 0 {
                break;
            }
        }
        Ok((lhs, h))
    }

    /// The binary operator at the current token, and its precedence.
    fn binary_op(&self) -> Option<(&'static str, u8)> {
        let Tok::Punct(p) = self.tok else {
            return None;
        };
        let prec = match p {
            "==" | "!=" | "<=" | ">=" | "<" | ">" => 0,
            "+" | "-" => 1,
            "*" | "/" | "%" => 2,
            _ => return None,
        };
        Some((p, prec))
    }

    fn parse_apply(&mut self) -> Result<Parsed, SurfaceError> {
        let (mut atom, mut h) = self.parse_atom()?;
        while self.tok == Tok::Punct("(") {
            self.advance()?;
            let (args, ha) = self.parse_args()?;
            h = self.node(h.max(ha), 1)?;
            atom = SExpr::Apply(Box::new(atom), args);
        }
        Ok((atom, h))
    }

    /// Comma-separated arguments up to the closing `)`, and their greatest
    /// height.
    fn parse_args(&mut self) -> Result<(Vec<SExpr>, usize), SurfaceError> {
        let mut args = Vec::new();
        let mut h = 0;
        if self.tok != Tok::Punct(")") {
            loop {
                let (arg, ha) = self.parse_expr()?;
                args.push(arg);
                h = h.max(ha);
                if !self.eat_punct(",")? {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        Ok((args, h))
    }

    fn parse_atom(&mut self) -> Result<Parsed, SurfaceError> {
        let atom = match self.advance()? {
            Tok::Int(s) => SExpr::Int(s),
            Tok::Str(s) => SExpr::Str(s),
            Tok::Kw("true") => SExpr::Bool(true),
            Tok::Kw("false") => SExpr::Bool(false),
            Tok::LowerIdent(s) => SExpr::Var(s),
            Tok::UpperIdent(s) => SExpr::CtorRef(s),
            Tok::AtIdent(s) => {
                self.expect_punct("(")?;
                let (args, ha) = self.parse_args()?;
                let h = self.node(ha, 1)?;
                return Ok((SExpr::AtCall(s, args), h));
            }
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                return Ok(e);
            }
            other => return Err(self.err(format!("expected expression, found {other:?}"))),
        };
        Ok((atom, 0))
    }
}

// ---- lowering to λpure --------------------------------------------------

struct Lowerer<'a> {
    ctors: &'a HashMap<String, CtorInfo>,
    arities: &'a HashMap<String, usize>,
    scope: Vec<(String, VarId)>,
    next_var: VarId,
    next_join: JoinId,
}

/// Continuation for ANF lowering: what to do with the value's variable.
#[allow(clippy::type_complexity)]
enum Kont<'k> {
    /// Tail position: return it.
    Ret,
    /// Feed it to the rest of the computation.
    Then(Box<dyn FnOnce(&mut Lowerer<'_>, VarId) -> Result<Expr, SurfaceError> + 'k>),
}

impl<'a> Lowerer<'a> {
    fn new(
        ctors: &'a HashMap<String, CtorInfo>,
        arities: &'a HashMap<String, usize>,
    ) -> Lowerer<'a> {
        Lowerer {
            ctors,
            arities,
            scope: Vec::new(),
            next_var: 0,
            next_join: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> SurfaceError {
        SurfaceError {
            line: 0,
            message: message.into(),
        }
    }

    fn fresh(&mut self) -> VarId {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn lower_fn(
        mut self,
        name: &str,
        params: &[String],
        body: &SExpr,
    ) -> Result<FnDef, SurfaceError> {
        let mut param_ids = Vec::new();
        for p in params {
            let v = self.fresh();
            self.scope.push((p.clone(), v));
            param_ids.push(v);
        }
        let body = self.lower(body, Kont::Ret)?;
        Ok(FnDef {
            name: name.to_string(),
            params: param_ids,
            body,
            next_var: self.next_var,
            next_join: self.next_join,
        })
    }

    /// Lowers `e`, delivering its result to `k`.
    fn lower(&mut self, e: &SExpr, k: Kont<'_>) -> Result<Expr, SurfaceError> {
        match e {
            SExpr::Int(digits) => {
                let val = match digits.parse::<i64>() {
                    // Stays within the unboxed scalar range.
                    Ok(v) if v < (1 << 62) => Value::LitInt(v),
                    _ => Value::LitBig(digits.clone()),
                };
                self.bind_value(val, k)
            }
            SExpr::Str(s) => self.bind_value(Value::LitStr(s.clone()), k),
            SExpr::Bool(b) => self.bind_value(
                Value::Ctor {
                    tag: *b as u32,
                    args: vec![],
                },
                k,
            ),
            SExpr::Var(name) => match self.lookup(name) {
                Some(v) => self.apply_kont(k, v),
                None => {
                    // A function mentioned without arguments: a closure.
                    if self.arities.contains_key(name) {
                        self.bind_value(
                            Value::Pap {
                                func: name.clone(),
                                args: vec![],
                            },
                            k,
                        )
                    } else {
                        Err(self.err(format!("unknown variable `{name}`")))
                    }
                }
            },
            SExpr::CtorRef(name) => {
                let info = self
                    .ctors
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown constructor `{name}`")))?
                    .clone();
                if info.arity != 0 {
                    return Err(self.err(format!(
                        "constructor `{name}` expects {} fields",
                        info.arity
                    )));
                }
                self.bind_value(
                    Value::Ctor {
                        tag: info.tag,
                        args: vec![],
                    },
                    k,
                )
            }
            SExpr::AtCall(builtin, args) => {
                let func = format!("lean_{builtin}");
                self.lower_args(args, move |this, arg_vars| {
                    this.bind_value(
                        Value::Call {
                            func,
                            args: arg_vars,
                        },
                        k,
                    )
                })
            }
            SExpr::Binop(op, a, b) => {
                let func = match *op {
                    "+" => "lean_nat_add",
                    "-" => "lean_nat_sub",
                    "*" => "lean_nat_mul",
                    "/" => "lean_nat_div",
                    "%" => "lean_nat_mod",
                    "==" => "lean_nat_dec_eq",
                    "<" => "lean_nat_dec_lt",
                    "<=" => "lean_nat_dec_le",
                    "!=" | ">" | ">=" => "", // handled by swapping/negating below
                    _ => unreachable!(),
                };
                match *op {
                    ">" => {
                        // a > b ⇔ b < a
                        let swapped = SExpr::Binop("<", b.clone(), a.clone());
                        self.lower(&swapped, k)
                    }
                    ">=" => {
                        let swapped = SExpr::Binop("<=", b.clone(), a.clone());
                        self.lower(&swapped, k)
                    }
                    "!=" => {
                        // if a == b then false else true
                        let eq = SExpr::Binop("==", a.clone(), b.clone());
                        let negated = SExpr::If(
                            Box::new(eq),
                            Box::new(SExpr::Bool(false)),
                            Box::new(SExpr::Bool(true)),
                        );
                        self.lower(&negated, k)
                    }
                    _ => {
                        let func = func.to_string();
                        let args = vec![(**a).clone(), (**b).clone()];
                        self.lower_args(&args, move |this, arg_vars| {
                            this.bind_value(
                                Value::Call {
                                    func,
                                    args: arg_vars,
                                },
                                k,
                            )
                        })
                    }
                }
            }
            SExpr::Apply(head, args) => match &**head {
                SExpr::CtorRef(name) => {
                    let info = self
                        .ctors
                        .get(name)
                        .ok_or_else(|| self.err(format!("unknown constructor `{name}`")))?
                        .clone();
                    if info.arity != args.len() {
                        return Err(self.err(format!(
                            "constructor `{name}` expects {} fields, got {}",
                            info.arity,
                            args.len()
                        )));
                    }
                    self.lower_args(args, move |this, arg_vars| {
                        this.bind_value(
                            Value::Ctor {
                                tag: info.tag,
                                args: arg_vars,
                            },
                            k,
                        )
                    })
                }
                SExpr::Var(name) if self.lookup(name).is_none() => {
                    // Top-level function application.
                    let arity = *self
                        .arities
                        .get(name)
                        .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
                    let func = name.clone();
                    let n = args.len();
                    self.lower_args(args, move |this, arg_vars| {
                        use std::cmp::Ordering;
                        match n.cmp(&arity) {
                            Ordering::Equal => this.bind_value(
                                Value::Call {
                                    func,
                                    args: arg_vars,
                                },
                                k,
                            ),
                            Ordering::Less => this.bind_value(
                                Value::Pap {
                                    func,
                                    args: arg_vars,
                                },
                                k,
                            ),
                            Ordering::Greater => {
                                // Full call, then apply the returned closure
                                // to the remaining arguments.
                                let first: Vec<VarId> = arg_vars[..arity].to_vec();
                                let rest: Vec<VarId> = arg_vars[arity..].to_vec();
                                let clos = this.fresh();
                                let inner =
                                    this.bind_value_into(clos, Value::Call { func, args: first });
                                let app = Value::App {
                                    closure: clos,
                                    args: rest,
                                };
                                let tail = this.bind_value(app, k)?;
                                Ok(inner(tail))
                            }
                        }
                    })
                }
                _ => {
                    // Closure application.
                    let head = (**head).clone();
                    let args_cloned = args.clone();
                    self.lower(
                        &head,
                        Kont::Then(Box::new(move |this, clos| {
                            this.lower_args(&args_cloned, move |this, arg_vars| {
                                this.bind_value(
                                    Value::App {
                                        closure: clos,
                                        args: arg_vars,
                                    },
                                    k,
                                )
                            })
                        })),
                    )
                }
            },
            SExpr::Let(name, rhs, body) => {
                let name = name.clone();
                let body = (**body).clone();
                self.lower(
                    rhs,
                    Kont::Then(Box::new(move |this, v| {
                        this.scope.push((name, v));
                        let out = this.lower(&body, k);
                        this.scope.pop();
                        out
                    })),
                )
            }
            SExpr::If(c, t, e) => {
                let case = SExpr::Case(
                    c.clone(),
                    vec![
                        (SPat::Bool(true), (**t).clone()),
                        (SPat::Bool(false), (**e).clone()),
                    ],
                );
                self.lower(&case, k)
            }
            SExpr::Case(scrut, arms) => {
                // Integer patterns are staged via dec_eq chains (§III-A).
                if arms.iter().any(|(p, _)| matches!(p, SPat::Int(_))) {
                    let desugared = self.desugar_int_case(scrut, arms)?;
                    return self.lower(&desugared, k);
                }
                let arms = arms.clone();
                self.lower(
                    scrut,
                    Kont::Then(Box::new(move |this, sv| this.lower_ctor_case(sv, &arms, k))),
                )
            }
        }
    }

    /// Rewrites `case e of | 0 => .. | 42 => .. | _ => ..` into an
    /// `if e == 0 then .. else if e == 42 then .. else ..` chain.
    fn desugar_int_case(
        &self,
        scrut: &SExpr,
        arms: &[(SPat, SExpr)],
    ) -> Result<SExpr, SurfaceError> {
        let mut default: Option<SExpr> = None;
        let mut int_arms: Vec<(String, SExpr)> = Vec::new();
        for (pat, body) in arms {
            match pat {
                SPat::Int(digits) => int_arms.push((digits.clone(), body.clone())),
                SPat::Wild => default = Some(body.clone()),
                other => {
                    return Err(self.err(format!(
                        "cannot mix integer and constructor patterns ({other:?})"
                    )))
                }
            }
        }
        let mut out =
            default.ok_or_else(|| self.err("integer case needs a `_` default arm".to_string()))?;
        for (digits, body) in int_arms.into_iter().rev() {
            let cmp = SExpr::Binop("==", Box::new(scrut.clone()), Box::new(SExpr::Int(digits)));
            out = SExpr::If(Box::new(cmp), Box::new(body), Box::new(out));
        }
        Ok(out)
    }

    fn lower_ctor_case(
        &mut self,
        sv: VarId,
        arms: &[(SPat, SExpr)],
        k: Kont<'_>,
    ) -> Result<Expr, SurfaceError> {
        match k {
            Kont::Ret => {
                let (alts, default) = self.lower_arms(sv, arms, None)?;
                Ok(Expr::Case {
                    scrutinee: sv,
                    alts,
                    default,
                })
            }
            Kont::Then(f) => {
                // Value-position case: introduce a join point (Figure 5).
                let label = self.next_join;
                self.next_join += 1;
                let pvar = self.fresh();
                let jp_body = f(self, pvar)?;
                // The join point must be self-contained: its free variables
                // (besides pvar) become extra parameters. Parameters get
                // fresh names so every binder in the function stays unique.
                let mut fv: Vec<VarId> = jp_body
                    .free_vars()
                    .into_iter()
                    .filter(|&v| v != pvar)
                    .collect();
                fv.sort_unstable();
                let mut rename = HashMap::new();
                let mut params = Vec::with_capacity(fv.len() + 1);
                for &v in &fv {
                    let fresh = self.fresh();
                    rename.insert(v, fresh);
                    params.push(fresh);
                }
                params.push(pvar);
                let jp_body = jp_body.rename_free(&rename);
                let captured = fv;
                let (alts, default) = self.lower_arms(sv, arms, Some((label, captured)))?;
                Ok(Expr::LetJoin {
                    label,
                    params,
                    jp_body: Box::new(jp_body),
                    body: Box::new(Expr::Case {
                        scrutinee: sv,
                        alts,
                        default,
                    }),
                })
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn lower_arms(
        &mut self,
        sv: VarId,
        arms: &[(SPat, SExpr)],
        jump_to: Option<(JoinId, Vec<VarId>)>,
    ) -> Result<(Vec<Alt>, Option<Box<Expr>>), SurfaceError> {
        let mut alts = Vec::new();
        let mut default = None;
        for (pat, body) in arms {
            let arm_kont = || -> Kont<'_> {
                match &jump_to {
                    None => Kont::Ret,
                    Some((label, captured)) => {
                        let label = *label;
                        let captured = captured.clone();
                        Kont::Then(Box::new(move |_this, v| {
                            let mut args = captured;
                            args.push(v);
                            Ok(Expr::Jump { label, args })
                        }))
                    }
                }
            };
            match pat {
                SPat::Wild => {
                    if default.is_some() {
                        return Err(self.err("duplicate default arm"));
                    }
                    default = Some(Box::new(self.lower(body, arm_kont())?));
                }
                SPat::Bool(b) => {
                    let lowered = self.lower(body, arm_kont())?;
                    alts.push(Alt {
                        tag: *b as u32,
                        body: lowered,
                    });
                }
                SPat::Ctor(name, binders) => {
                    let info = self
                        .ctors
                        .get(name)
                        .ok_or_else(|| self.err(format!("unknown constructor `{name}`")))?
                        .clone();
                    if info.arity != binders.len() {
                        return Err(self.err(format!(
                            "pattern `{name}` expects {} fields, got {}",
                            info.arity,
                            binders.len()
                        )));
                    }
                    // Bind fields via projections.
                    let mut field_vars = Vec::new();
                    let scope_depth = self.scope.len();
                    for (i, b) in binders.iter().enumerate() {
                        let v = self.fresh();
                        if b != "_" {
                            self.scope.push((b.clone(), v));
                        }
                        field_vars.push((i as u32, v));
                    }
                    let inner = self.lower(body, arm_kont())?;
                    self.scope.truncate(scope_depth);
                    let mut armed = inner;
                    for &(idx, v) in field_vars.iter().rev() {
                        armed = build::let_(v, Value::Proj { var: sv, idx }, armed);
                    }
                    alts.push(Alt {
                        tag: info.tag,
                        body: armed,
                    });
                }
                SPat::Int(_) => unreachable!("int patterns desugared earlier"),
            }
        }
        alts.sort_by_key(|a| a.tag);
        Ok((alts, default))
    }

    /// Lowers a list of argument expressions left-to-right, then calls `f`
    /// with their variables.
    fn lower_args<'k>(
        &mut self,
        args: &'k [SExpr],
        f: impl FnOnce(&mut Lowerer<'_>, Vec<VarId>) -> Result<Expr, SurfaceError> + 'k,
    ) -> Result<Expr, SurfaceError> {
        self.lower_args_acc(args, Vec::with_capacity(args.len()), Box::new(f))
    }

    /// Lowers `rest`, then calls `f` with `acc` and the variables of `rest`.
    /// Each argument's continuation borrows the arguments after it, so an
    /// n-argument call costs O(n), not a copy of the remaining list per
    /// argument.
    #[allow(clippy::type_complexity)]
    fn lower_args_acc<'k>(
        &mut self,
        rest: &'k [SExpr],
        mut acc: Vec<VarId>,
        f: Box<dyn FnOnce(&mut Lowerer<'_>, Vec<VarId>) -> Result<Expr, SurfaceError> + 'k>,
    ) -> Result<Expr, SurfaceError> {
        match rest.split_first() {
            None => f(self, acc),
            Some((first, tail)) => self.lower(
                first,
                Kont::Then(Box::new(move |this, v| {
                    acc.push(v);
                    this.lower_args_acc(tail, acc, f)
                })),
            ),
        }
    }

    fn apply_kont(&mut self, k: Kont<'_>, v: VarId) -> Result<Expr, SurfaceError> {
        match k {
            Kont::Ret => Ok(Expr::Ret(v)),
            Kont::Then(f) => f(self, v),
        }
    }

    fn bind_value(&mut self, val: Value, k: Kont<'_>) -> Result<Expr, SurfaceError> {
        let v = self.fresh();
        let tail = self.apply_kont(k, v)?;
        Ok(build::let_(v, val, tail))
    }

    /// Returns a function that wraps an expression in `let v = val;`.
    fn bind_value_into(&mut self, v: VarId, val: Value) -> impl FnOnce(Expr) -> Expr {
        move |tail| build::let_(v, val, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_length() {
        let src = r#"
inductive List := Nil | Cons(head, tail)

def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + length(t)
  end

def main() := length(Cons(1, Cons(2, Nil)))
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.fns.len(), 2);
        let length = p.fn_by_name("length").unwrap();
        assert_eq!(length.arity(), 1);
        let text = length.body.to_string();
        assert!(text.contains("case x0 of"), "{text}");
        assert!(text.contains("proj_1(x0)"), "{text}");
        assert!(text.contains("call @length"), "{text}");
        assert!(text.contains("call @lean_nat_add"), "{text}");
    }

    #[test]
    fn value_position_case_creates_join_point() {
        let src = r#"
def f(b) :=
  let x := case b of | true => 1 | false => 2 end;
  x + 10
"#;
        let p = parse_program(src).unwrap();
        let f = p.fn_by_name("f").unwrap();
        let text = f.body.to_string();
        assert!(text.contains("join j0("), "{text}");
        assert!(text.contains("jump j0("), "{text}");
    }

    #[test]
    fn int_patterns_stage_through_dec_eq() {
        // Figure 4's intUsage.
        let src = r#"
def intUsage(n) :=
  case n of
  | 42 => 43
  | _ => 99999999
  end
"#;
        let p = parse_program(src).unwrap();
        let f = p.fn_by_name("intUsage").unwrap();
        let text = f.body.to_string();
        assert!(text.contains("lean_nat_dec_eq"), "{text}");
    }

    #[test]
    fn partial_application_lowered_to_pap() {
        // Figure 7's k10.
        let src = r#"
def k(x, y) := x
def k10() := k(10)
"#;
        let p = parse_program(src).unwrap();
        let k10 = p.fn_by_name("k10").unwrap();
        assert!(k10.body.to_string().contains("pap @k("));
    }

    #[test]
    fn bare_function_reference_is_closure() {
        let src = r#"
def k(x, y) := x
def ap42(f) := f(42)
def k42() := ap42(k)
"#;
        let p = parse_program(src).unwrap();
        let k42 = p.fn_by_name("k42").unwrap();
        assert!(k42.body.to_string().contains("pap @k()"), "{}", k42.body);
        let ap42 = p.fn_by_name("ap42").unwrap();
        assert!(ap42.body.to_string().contains("app x0("), "{}", ap42.body);
    }

    #[test]
    fn oversaturated_application_splits() {
        let src = r#"
def k(x, y) := x
def pair(a) := k
def use() := pair(1)(2, 3)
"#;
        let p = parse_program(src).unwrap();
        let u = p.fn_by_name("use").unwrap();
        let text = u.body.to_string();
        assert!(text.contains("call @pair"), "{text}");
        assert!(text.contains("app "), "{text}");
    }

    #[test]
    fn big_literal_becomes_bigint() {
        let src = "def big() := 99999999999999999999999999";
        let p = parse_program(src).unwrap();
        let f = p.fn_by_name("big").unwrap();
        assert!(f
            .body
            .to_string()
            .contains("big(99999999999999999999999999)"));
    }

    #[test]
    fn comparison_operators_desugar() {
        let src = "def f(a, b) := if a > b then a - b else b - a";
        let p = parse_program(src).unwrap();
        let text = p.fn_by_name("f").unwrap().body.to_string();
        assert!(text.contains("lean_nat_dec_lt"), "{text}");
        assert!(text.contains("lean_nat_sub"), "{text}");
    }

    #[test]
    fn at_builtins() {
        let src = "def f(a, b) := @int_add(a, @int_neg(b))";
        let p = parse_program(src).unwrap();
        let text = p.fn_by_name("f").unwrap().body.to_string();
        assert!(text.contains("lean_int_add"), "{text}");
        assert!(text.contains("lean_int_neg"), "{text}");
    }

    #[test]
    fn chains_and_branches_count_toward_the_depth_bound() {
        let sum = |n: usize| format!("def main() := 1{}", " + 1".repeat(n));
        let calls = |n: usize| format!("def f(x) := f\ndef main() := f{}", "(1)".repeat(n));
        let ifs = |n: usize| format!("def main() := {}0", "if 1 == 1 then 1 else ".repeat(n));
        let arms = |n: usize| {
            let arms: String = (0..n).map(|i| format!("| {i} => {i} ")).collect();
            format!("def main() := case 7 of {arms}| _ => 0 end")
        };
        // An `if` sits a level above its `==`; a `case` counts its own
        // levels above its integer arms'.
        let most_ifs = (MAX_DEPTH - 1) / BRANCH_LEVELS;
        let most_arms = (MAX_DEPTH - BRANCH_LEVELS) / BRANCH_LEVELS;
        // Lowering at the bound needs the 8 MiB a main thread has, not a
        // test thread's 2 MiB.
        let check = move || {
            for (shape, at, past) in [
                ("sum", sum(MAX_DEPTH), sum(MAX_DEPTH + 1)),
                ("calls", calls(MAX_DEPTH), calls(MAX_DEPTH + 1)),
                ("ifs", ifs(most_ifs), ifs(most_ifs + 1)),
                ("arms", arms(most_arms), arms(most_arms + 1)),
            ] {
                assert!(parse_program(&at).is_ok(), "{shape} at the bound");
                let e = parse_program(&past).unwrap_err();
                let bound = format!("nest deeper than {MAX_DEPTH} levels");
                assert!(e.message.contains(&bound), "{shape}: {}", e.message);
            }
        };
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(check)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_program("def f() := unknown_var").is_err());
        assert!(parse_program("def f() := Unknown").is_err());
        assert!(parse_program("def f() := case 1 of end").is_err());
        assert!(parse_program("inductive T := A | A").is_err());
        let e = parse_program("def f(\n\n!").unwrap_err();
        assert!(e.line >= 1);
    }

    #[test]
    fn wildcard_field_binders() {
        let src = r#"
inductive Pair := MkPair(a, b)
def fst(p) := case p of | MkPair(a, _) => a end
"#;
        let p = parse_program(src).unwrap();
        assert!(p.fn_by_name("fst").is_some());
    }

    #[test]
    fn nested_case_inside_arm() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def f(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) =>
    case t of
    | Nil => h
    | Cons(h2, t2) => h + h2
    end
  end
"#;
        let p = parse_program(src).unwrap();
        assert!(p.fn_by_name("f").is_some());
    }
}
