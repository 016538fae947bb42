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
//! The parser desugars `if`, `!=`, `>`, `>=` and integer patterns as it
//! reads them, so lowering sees only constructor `case`s. Lowering emits
//! into the current block: each value's bindings are appended to it, and
//! a `case` in value position opens its join point's body as the new
//! current block, its arms lowered once that body is closed.
//!
//! Operators map to runtime builtins: `+ - * / % == != < <= > >=` are the
//! `Nat` operations; `@name(args)` calls the runtime builtin `lean_name`
//! directly (e.g. `@int_add`, `@array_get`).

use crate::ast::{
    Alt, BlockId, BodyBuilder, FreeVars, JoinId, Names, Program, Slice, Stmt, Terminator, Value,
    VarId,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

/// A surface expression, desugared as it is parsed: `if` is a `case` on
/// `true`/`false`, `!=` a `case` on `==`, `>` and `>=` are `<` and `<=`
/// with their operands swapped, and a `case` on integer patterns is a chain
/// of `case`s on `==`.
#[derive(Debug, Clone)]
enum SExpr {
    Int(String),
    Str(String),
    Bool(bool),
    Var(String),
    CtorRef(String),
    Apply(Box<SExpr>, Vec<SExpr>),
    AtCall(String, Vec<SExpr>),
    /// `+ - * / % == < <=`.
    Binop(&'static str, Box<SExpr>, Box<SExpr>),
    Let(String, Box<SExpr>, Box<SExpr>),
    Case(Box<SExpr>, Vec<(SPat, SExpr)>),
    /// An integer `case` that cannot be desugared: lowering reports the
    /// message when it reaches it.
    Invalid(String),
}

/// `if c then t else e`, as the `case` it lowers to.
fn if_(c: SExpr, t: SExpr, e: SExpr) -> SExpr {
    SExpr::Case(
        Box::new(c),
        vec![(SPat::Bool(true), t), (SPat::Bool(false), e)],
    )
}

/// `a op b`, with the comparisons lowering has no builtin for rewritten.
fn binop(op: &'static str, a: SExpr, b: SExpr) -> SExpr {
    match op {
        // a > b ⇔ b < a
        ">" => SExpr::Binop("<", Box::new(b), Box::new(a)),
        ">=" => SExpr::Binop("<=", Box::new(b), Box::new(a)),
        // if a == b then false else true
        "!=" => if_(
            SExpr::Binop("==", Box::new(a), Box::new(b)),
            SExpr::Bool(false),
            SExpr::Bool(true),
        ),
        _ => SExpr::Binop(op, Box::new(a), Box::new(b)),
    }
}

/// Rewrites `case e of | 0 => .. | 42 => .. | _ => ..` into an
/// `if e == 0 then .. else if e == 42 then .. else ..` chain.
fn desugar_int_case(scrut: SExpr, arms: Vec<(SPat, SExpr)>) -> SExpr {
    let mut default: Option<SExpr> = None;
    let mut int_arms: Vec<(String, SExpr)> = Vec::new();
    for (pat, body) in arms {
        match pat {
            SPat::Int(digits) => int_arms.push((digits, body)),
            SPat::Wild => default = Some(body),
            other => {
                return SExpr::Invalid(format!(
                    "cannot mix integer and constructor patterns ({other:?})"
                ))
            }
        }
    }
    let Some(mut out) = default else {
        return SExpr::Invalid("integer case needs a `_` default arm".to_string());
    };
    for (digits, body) in int_arms.into_iter().rev() {
        let cmp = SExpr::Binop("==", Box::new(scrut.clone()), Box::new(SExpr::Int(digits)));
        out = if_(cmp, body, out);
    }
    out
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
        let arities: HashMap<&str, usize> = defs
            .iter()
            .map(|(n, ps, _)| (n.as_str(), ps.len()))
            .collect();
        let mut names = Names::default();
        for (name, ..) in &defs {
            names.intern(name);
        }
        let mut lowerer = Lowerer {
            ctors: &ctors,
            arities: &arities,
            names,
            b: BodyBuilder::default(),
            scope: Vec::new(),
            next_var: 0,
            next_join: 0,
            frames: Vec::new(),
            operands: Vec::new(),
            arms: Vec::new(),
            captured: Vec::new(),
            fv: FreeVars::default(),
            free: Vec::new(),
            rename: Vec::new(),
            builtin: String::new(),
        };
        let mut fns = Vec::with_capacity(defs.len());
        for (name, params, body) in &defs {
            fns.push(lowerer.lower_fn(name, params, body)?);
        }
        Ok(Program {
            fns,
            names: Arc::new(lowerer.names),
        })
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
        Ok((if_(c, t, e), h))
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
        // Integer patterns are staged via dec_eq chains (§III-A).
        if arms.iter().any(|(p, _)| matches!(p, SPat::Int(_))) {
            return Ok((desugar_int_case(scrut, arms), h));
        }
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
            lhs = binop(op, lhs, rhs);
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

/// No join parameter (in [`Lowerer::rename`]).
const NO_PARAM: VarId = VarId::MAX;

struct Lowerer<'a> {
    ctors: &'a HashMap<String, CtorInfo>,
    arities: &'a HashMap<&'a str, usize>,
    names: Names,
    b: BodyBuilder,
    /// The names in scope, innermost last. A `let` leaves its name here
    /// until the block or arm that reached it ends.
    scope: Vec<(&'a str, VarId)>,
    next_var: VarId,
    next_join: JoinId,
    /// Per open block of `b`: the value-position `case` whose join body it
    /// is, if any.
    frames: Vec<Option<Deferred<'a>>>,
    /// Operand lists under construction, stacked.
    operands: Vec<VarId>,
    /// Case arms under construction, stacked.
    arms: Vec<Alt>,
    /// What the arms of each value-position `case` being lowered pass
    /// their join point besides their value, stacked.
    captured: Vec<VarId>,
    fv: FreeVars,
    /// A join body's free variables.
    free: Vec<VarId>,
    /// Per variable, the join parameter that replaces it while a join body
    /// is renamed ([`NO_PARAM`]: none).
    rename: Vec<VarId>,
    /// A builtin's `lean_` name.
    builtin: String,
}

/// A `case` in value position, its join body being lowered: its arms are
/// lowered when that body is closed.
struct Deferred<'a> {
    label: JoinId,
    /// The join point's last parameter: the case's value.
    result: VarId,
    scrutinee: VarId,
    arms: &'a [(SPat, SExpr)],
    /// The scope entries the arms see.
    scope: usize,
}

/// Where the code being lowered sends its value when it ends.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Tail position: return it.
    Ret,
    /// An arm of a value-position `case`: jump to its join point with the
    /// variables of `Lowerer::captured[captured.0..captured.1]`, then the
    /// value.
    Jump {
        label: JoinId,
        captured: (usize, usize),
    },
}

impl<'a> Lowerer<'a> {
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
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn ctor(&self, name: &str) -> Result<CtorInfo, SurfaceError> {
        self.ctors
            .get(name)
            .cloned()
            .ok_or_else(|| self.err(format!("unknown constructor `{name}`")))
    }

    fn lower_fn(
        &mut self,
        name: &str,
        params: &'a [String],
        body: &'a SExpr,
    ) -> Result<crate::ast::FnDef, SurfaceError> {
        self.scope.clear();
        self.next_var = 0;
        self.next_join = 0;
        for p in params {
            let v = self.fresh();
            self.scope.push((p, v));
            self.operands.push(v);
        }
        self.open();
        let body = self.lower_exit(body, Exit::Ret)?;
        let name = self.names.intern(name);
        let f = self
            .b
            .finish(name, &self.operands, body, self.next_var, self.next_join);
        self.operands.clear();
        Ok(f)
    }

    /// Opens a block for an arm or a function body.
    fn open(&mut self) {
        self.b.open();
        self.frames.push(None);
    }

    /// Appends `let v = val;` for a fresh `v`; returns `v`.
    fn bind(&mut self, val: Value) -> VarId {
        let v = self.fresh();
        self.b.let_(v, val);
        v
    }

    /// Lowers `e` to the end of the current block: its bindings, then its
    /// value sent to `exit`. Returns the block closed last, the one the
    /// arm or body started in.
    fn lower_exit(&mut self, mut e: &'a SExpr, exit: Exit) -> Result<BlockId, SurfaceError> {
        loop {
            match (e, exit) {
                (SExpr::Let(name, rhs, body), _) => {
                    let v = self.value(rhs)?;
                    self.scope.push((name, v));
                    e = body;
                }
                // A `case` in tail position needs no join point.
                (SExpr::Case(scrut, arms), Exit::Ret) => {
                    let sv = self.value(scrut)?;
                    let term = self.lower_arms(sv, arms, Exit::Ret)?;
                    return self.close(term);
                }
                _ => {
                    let v = self.value(e)?;
                    let term = match exit {
                        Exit::Ret => Terminator::Ret(v),
                        Exit::Jump {
                            label,
                            captured: (from, to),
                        } => {
                            let mark = self.operands.len();
                            self.operands.extend_from_slice(&self.captured[from..to]);
                            self.operands.push(v);
                            let args = self.b.list(&self.operands[mark..]);
                            self.operands.truncate(mark);
                            Terminator::Jump { label, args }
                        }
                    };
                    return self.close(term);
                }
            }
        }
    }

    /// Closes the current block with `term`. A block that is a deferred
    /// case's join body then declares the join point in the block below
    /// it, whose `case` the case's arms close in turn. Returns the last
    /// block closed.
    fn close(&mut self, mut term: Terminator) -> Result<BlockId, SurfaceError> {
        loop {
            let block = self.b.close(term);
            match self.frames.pop().expect("an open block") {
                None => return Ok(block),
                Some(case) => term = self.join_then_arms(case, block)?,
            }
        }
    }

    /// Declares the join point of `case`, whose body `jp_body` is closed,
    /// and lowers the case's arms to jump to it; returns the `case`.
    ///
    /// The join point must be self-contained: its body's free variables
    /// (besides the case's value) become extra parameters, with fresh names
    /// so every binder in the function stays unique, and the arms pass them.
    fn join_then_arms(
        &mut self,
        case: Deferred<'a>,
        jp_body: BlockId,
    ) -> Result<Terminator, SurfaceError> {
        let free = &mut self.free;
        free.clear();
        self.fv
            .for_each(self.b.arena(), jp_body, &[], |v| free.push(v));
        free.sort_unstable();
        free.dedup();
        free.retain(|&v| v != case.result);
        let (captured, params) = (self.captured.len(), self.operands.len());
        for i in 0..self.free.len() {
            let (v, p) = (self.free[i], self.fresh());
            if v as usize >= self.rename.len() {
                self.rename.resize(v as usize + 1, NO_PARAM);
            }
            self.rename[v as usize] = p;
            self.captured.push(v);
            self.operands.push(p);
        }
        self.operands.push(case.result);
        let rename = &self.rename;
        self.b.arena_mut().rename_free(jp_body, |v| {
            rename.get(v as usize).copied().filter(|&p| p != NO_PARAM)
        });
        for &v in &self.captured[captured..] {
            self.rename[v as usize] = NO_PARAM;
        }
        let params_list = self.b.list(&self.operands[params..]);
        self.operands.truncate(params);
        self.b.push(Stmt::Join {
            label: case.label,
            params: params_list,
            body: jp_body,
        });
        self.scope.truncate(case.scope);
        let exit = Exit::Jump {
            label: case.label,
            captured: (captured, self.captured.len()),
        };
        let term = self.lower_arms(case.scrutinee, case.arms, exit)?;
        self.captured.truncate(captured);
        Ok(term)
    }

    /// Lowers the arms of a `case` on `sv`, each in a block of its own
    /// that ends in `exit`; returns the `case`.
    fn lower_arms(
        &mut self,
        sv: VarId,
        arms: &'a [(SPat, SExpr)],
        exit: Exit,
    ) -> Result<Terminator, SurfaceError> {
        let mark = self.arms.len();
        let mut default = None;
        for (pat, body) in arms {
            let scope = self.scope.len();
            match pat {
                SPat::Wild => {
                    if default.is_some() {
                        return Err(self.err("duplicate default arm"));
                    }
                    self.open();
                    default = Some(self.lower_exit(body, exit)?);
                }
                SPat::Bool(b) => {
                    self.open();
                    let body = self.lower_exit(body, exit)?;
                    self.arms.push(Alt {
                        tag: *b as u32,
                        body,
                    });
                }
                SPat::Ctor(name, binders) => {
                    let info = self.ctor(name)?;
                    if info.arity != binders.len() {
                        return Err(self.err(format!(
                            "pattern `{name}` expects {} fields, got {}",
                            info.arity,
                            binders.len()
                        )));
                    }
                    // Bind fields via projections.
                    self.open();
                    for (i, b) in binders.iter().enumerate() {
                        let v = self.fresh();
                        if b != "_" {
                            self.scope.push((b, v));
                        }
                        self.b.let_(
                            v,
                            Value::Proj {
                                var: sv,
                                idx: i as u32,
                            },
                        );
                    }
                    let body = self.lower_exit(body, exit)?;
                    self.arms.push(Alt {
                        tag: info.tag,
                        body,
                    });
                }
                SPat::Int(_) => unreachable!("integer patterns are desugared when parsed"),
            }
            self.scope.truncate(scope);
        }
        self.arms[mark..].sort_by_key(|a| a.tag);
        let alts = self.b.alts(&self.arms[mark..]);
        self.arms.truncate(mark);
        Ok(Terminator::Case {
            scrutinee: sv,
            alts,
            default,
        })
    }

    /// Lowers `args` left to right; returns the list of their variables.
    fn operands(
        &mut self,
        args: impl IntoIterator<Item = &'a SExpr>,
    ) -> Result<Slice, SurfaceError> {
        let mark = self.operands.len();
        for a in args {
            let v = self.value(a)?;
            self.operands.push(v);
        }
        let list = self.b.list(&self.operands[mark..]);
        self.operands.truncate(mark);
        Ok(list)
    }

    /// Lowers `e` into the current block; returns the variable holding its
    /// value. A `case` opens its join point's body as the current block
    /// and returns the join point's parameter for its value.
    fn value(&mut self, mut e: &'a SExpr) -> Result<VarId, SurfaceError> {
        let val = loop {
            break match e {
                SExpr::Let(name, rhs, body) => {
                    let v = self.value(rhs)?;
                    self.scope.push((name, v));
                    e = body;
                    continue;
                }
                SExpr::Int(digits) => match digits.parse::<i64>() {
                    // Stays within the unboxed scalar range.
                    Ok(v) if v < (1 << 62) => Value::LitInt(v),
                    _ => Value::LitBig(self.b.text(digits)),
                },
                SExpr::Str(s) => Value::LitStr(self.b.text(s)),
                SExpr::Bool(b) => Value::Ctor {
                    tag: *b as u32,
                    args: Slice::default(),
                },
                SExpr::Var(name) => match self.lookup(name) {
                    Some(v) => return Ok(v),
                    // A function mentioned without arguments: a closure.
                    None if self.arities.contains_key(name.as_str()) => Value::Pap {
                        func: self.names.intern(name),
                        args: Slice::default(),
                    },
                    None => return Err(self.err(format!("unknown variable `{name}`"))),
                },
                SExpr::CtorRef(name) => {
                    let info = self.ctor(name)?;
                    if info.arity != 0 {
                        return Err(self.err(format!(
                            "constructor `{name}` expects {} fields",
                            info.arity
                        )));
                    }
                    Value::Ctor {
                        tag: info.tag,
                        args: Slice::default(),
                    }
                }
                SExpr::AtCall(builtin, args) => {
                    let args = self.operands(args)?;
                    self.builtin.clear();
                    self.builtin.push_str("lean_");
                    self.builtin.push_str(builtin);
                    Value::Call {
                        func: self.names.intern(&self.builtin),
                        args,
                    }
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
                        _ => unreachable!("comparisons are desugared when parsed"),
                    };
                    let args = self.operands([&**a, &**b])?;
                    Value::Call {
                        func: self.names.intern(func),
                        args,
                    }
                }
                SExpr::Apply(head, args) => match &**head {
                    SExpr::CtorRef(name) => {
                        let info = self.ctor(name)?;
                        if info.arity != args.len() {
                            return Err(self.err(format!(
                                "constructor `{name}` expects {} fields, got {}",
                                info.arity,
                                args.len()
                            )));
                        }
                        Value::Ctor {
                            tag: info.tag,
                            args: self.operands(args)?,
                        }
                    }
                    SExpr::Var(name) if self.lookup(name).is_none() => {
                        // Top-level function application.
                        let arity = *self
                            .arities
                            .get(name.as_str())
                            .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
                        let list = self.operands(args)?;
                        let func = self.names.intern(name);
                        use std::cmp::Ordering;
                        match args.len().cmp(&arity) {
                            Ordering::Equal => Value::Call { func, args: list },
                            Ordering::Less => Value::Pap { func, args: list },
                            Ordering::Greater => {
                                // Full call, then apply the returned closure
                                // to the remaining arguments.
                                let (first, rest) = (
                                    Slice {
                                        start: list.start,
                                        len: arity as u32,
                                    },
                                    Slice {
                                        start: list.start + arity as u32,
                                        len: list.len - arity as u32,
                                    },
                                );
                                let closure = self.bind(Value::Call { func, args: first });
                                Value::App {
                                    closure,
                                    args: rest,
                                }
                            }
                        }
                    }
                    _ => {
                        // Closure application.
                        let closure = self.value(head)?;
                        Value::App {
                            closure,
                            args: self.operands(args)?,
                        }
                    }
                },
                SExpr::Case(scrut, arms) => {
                    // Value-position case: introduce a join point (Figure 5).
                    let scrutinee = self.value(scrut)?;
                    let label = self.next_join;
                    self.next_join += 1;
                    let result = self.fresh();
                    self.b.open();
                    self.frames.push(Some(Deferred {
                        label,
                        result,
                        scrutinee,
                        arms,
                        scope: self.scope.len(),
                    }));
                    return Ok(result);
                }
                SExpr::Invalid(message) => return Err(self.err(message.clone())),
            };
        };
        Ok(self.bind(val))
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
        let text = p.display_fn(length).to_string();
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
        let text = p.display_fn(f).to_string();
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
        let text = p.display_fn(f).to_string();
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
        assert!(p.display_fn(k10).to_string().contains("pap @k("));
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
        let text = p.display_fn(k42).to_string();
        assert!(text.contains("pap @k()"), "{text}");
        let ap42 = p.fn_by_name("ap42").unwrap();
        let text = p.display_fn(ap42).to_string();
        assert!(text.contains("app x0("), "{text}");
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
        let text = p.display_fn(u).to_string();
        assert!(text.contains("call @pair"), "{text}");
        assert!(text.contains("app "), "{text}");
    }

    #[test]
    fn big_literal_becomes_bigint() {
        let src = "def big() := 99999999999999999999999999";
        let p = parse_program(src).unwrap();
        let f = p.fn_by_name("big").unwrap();
        assert!(p
            .display_fn(f)
            .to_string()
            .contains("big(99999999999999999999999999)"));
    }

    #[test]
    fn comparison_operators_desugar() {
        let src = "def f(a, b) := if a > b then a - b else b - a";
        let p = parse_program(src).unwrap();
        let text = p.display_fn(p.fn_by_name("f").unwrap()).to_string();
        assert!(text.contains("lean_nat_dec_lt"), "{text}");
        assert!(text.contains("lean_nat_sub"), "{text}");
    }

    #[test]
    fn at_builtins() {
        let src = "def f(a, b) := @int_add(a, @int_neg(b))";
        let p = parse_program(src).unwrap();
        let text = p.display_fn(p.fn_by_name("f").unwrap()).to_string();
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
