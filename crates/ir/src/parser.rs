//! Textual IR parser — the inverse of [`crate::printer`].
//!
//! Parsing proceeds in two phases: a recursive-descent pass producing a
//! light-weight AST, then a binding pass that allocates blocks, block
//! arguments and op results *before* resolving operands, so forward
//! references between blocks work.

use crate::attr::{Attr, AttrKey, CmpPred};
use crate::body::{Body, Successor};
use crate::ids::{BlockId, ValueId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::types::{Signature, Type};
use std::collections::HashMap;
use std::fmt;

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---- lexer ------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),   // module, func, arith.addi, eq, cases …
    TypeLit(String), // !lp.t, !rgn.region
    Percent(u32),    // %12
    At(String),      // @foo
    Caret(u32),      // ^bb3
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Equals,
    Colon,
    Arrow,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek_byte() {
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

    fn ident_tail(&mut self, first: u8) -> String {
        let mut s = String::new();
        s.push(first as char);
        while let Some(b) = self.peek_byte() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                s.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn next_token(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        let Some(b) = self.peek_byte() else {
            return Ok(Tok::Eof);
        };
        match b {
            b'(' => {
                self.bump();
                Ok(Tok::LParen)
            }
            b')' => {
                self.bump();
                Ok(Tok::RParen)
            }
            b'{' => {
                self.bump();
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.bump();
                Ok(Tok::RBrace)
            }
            b'[' => {
                self.bump();
                Ok(Tok::LBracket)
            }
            b']' => {
                self.bump();
                Ok(Tok::RBracket)
            }
            b',' => {
                self.bump();
                Ok(Tok::Comma)
            }
            b'=' => {
                self.bump();
                Ok(Tok::Equals)
            }
            b':' => {
                self.bump();
                Ok(Tok::Colon)
            }
            b'%' => {
                self.bump();
                let n = self.lex_number_u32()?;
                Ok(Tok::Percent(n))
            }
            b'@' => {
                self.bump();
                let first = self
                    .bump()
                    .ok_or_else(|| self.err("expected symbol name after '@'"))?;
                Ok(Tok::At(self.ident_tail(first)))
            }
            b'^' => {
                self.bump();
                // Expect "bbN".
                for expected in [b'b', b'b'] {
                    if self.bump() != Some(expected) {
                        return Err(self.err("expected block label ^bbN"));
                    }
                }
                let n = self.lex_number_u32()?;
                Ok(Tok::Caret(n))
            }
            b'!' => {
                self.bump();
                let first = self
                    .bump()
                    .ok_or_else(|| self.err("expected type name after '!'"))?;
                let name = self.ident_tail(first);
                Ok(Tok::TypeLit(format!("!{name}")))
            }
            b'-' => {
                self.bump();
                match self.peek_byte() {
                    Some(b'>') => {
                        self.bump();
                        Ok(Tok::Arrow)
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let n = self.lex_number_i64()?;
                        Ok(Tok::Int(-n))
                    }
                    _ => Err(self.err("expected '->' or negative number after '-'")),
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            _ => return Err(self.err("invalid escape in string")),
                        },
                        Some(c) => s.push(c as char),
                        None => return Err(self.err("unterminated string")),
                    }
                }
                Ok(Tok::Str(s))
            }
            d if d.is_ascii_digit() => {
                let n = self.lex_number_i64()?;
                Ok(Tok::Int(n))
            }
            a if a.is_ascii_alphabetic() || a == b'_' => {
                self.bump();
                Ok(Tok::Ident(self.ident_tail(a)))
            }
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }

    fn lex_number_u32(&mut self) -> Result<u32, ParseError> {
        let n = self.lex_number_i64()?;
        u32::try_from(n).map_err(|_| self.err("number out of range"))
    }

    fn lex_number_i64(&mut self) -> Result<i64, ParseError> {
        let mut s = String::new();
        while let Some(b) = self.peek_byte() {
            if b.is_ascii_digit() {
                s.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        if s.is_empty() {
            return Err(self.err("expected number"));
        }
        s.parse().map_err(|_| self.err("integer overflow"))
    }
}

// ---- AST -----------------------------------------------------------------

#[derive(Debug)]
struct PFunc {
    name: String,
    params: Vec<(u32, Type)>,
    ret: Type,
    region: PRegion,
}

#[derive(Debug)]
struct PRegion {
    blocks: Vec<PBlock>,
}

#[derive(Debug)]
struct PBlock {
    label: Option<u32>,
    args: Vec<(u32, Type)>,
    ops: Vec<POp>,
}

#[derive(Debug)]
struct POp {
    results: Vec<u32>,
    opcode: Opcode,
    operands: Vec<u32>,
    attrs: Vec<(AttrKey, PAttr)>,
    succs: Vec<(u32, Vec<u32>)>,
    regions: Vec<PRegion>,
    ty: Option<Type>,
}

#[derive(Debug)]
enum PAttr {
    Int(i64),
    Str(String),
    Sym(String),
    IntList(Vec<i64>),
    Pred(CmpPred),
}

// ---- parser -----------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>, ParseError> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_token()?;
        Ok(Parser { lexer, tok })
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        self.lexer.err(message)
    }

    fn advance(&mut self) -> Result<Tok, ParseError> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.tok == t {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.tok)))
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.tok {
            Tok::Ident(s) if s == kw => {
                self.advance()?;
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> Result<bool, ParseError> {
        if &self.tok == t {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let s = match self.advance()? {
            Tok::Ident(s) => s,
            Tok::TypeLit(s) => s,
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        s.parse::<Type>().map_err(|e| self.err(e.to_string()))
    }

    fn parse_percent(&mut self) -> Result<u32, ParseError> {
        match self.advance()? {
            Tok::Percent(n) => Ok(n),
            other => Err(self.err(format!("expected %value, found {other:?}"))),
        }
    }

    fn parse_module(&mut self, module: &mut Module) -> Result<(), ParseError> {
        self.expect_ident("module")?;
        self.expect(Tok::LBrace)?;
        loop {
            match &self.tok {
                Tok::RBrace => {
                    self.advance()?;
                    break;
                }
                Tok::Ident(kw) if kw == "global" => {
                    self.advance()?;
                    let name = self.parse_at()?;
                    self.expect(Tok::Colon)?;
                    let ty = self.parse_type()?;
                    module.add_global(&name, ty);
                }
                Tok::Ident(kw) if kw == "extern" => {
                    self.advance()?;
                    self.expect_ident("func")?;
                    let name = self.parse_at()?;
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    if self.tok != Tok::RParen {
                        loop {
                            params.push(self.parse_type()?);
                            if !self.eat(&Tok::Comma)? {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Arrow)?;
                    let ret = self.parse_type()?;
                    module.declare_extern(&name, Signature::new(params, ret));
                }
                Tok::Ident(kw) if kw == "func" => {
                    let pf = self.parse_func()?;
                    bind_function(module, pf).map_err(|m| self.err(m))?;
                }
                other => return Err(self.err(format!("unexpected token {other:?} in module"))),
            }
        }
        Ok(())
    }

    fn parse_at(&mut self) -> Result<String, ParseError> {
        match self.advance()? {
            Tok::At(s) => Ok(s),
            other => Err(self.err(format!("expected @symbol, found {other:?}"))),
        }
    }

    fn parse_func(&mut self) -> Result<PFunc, ParseError> {
        self.expect_ident("func")?;
        let name = self.parse_at()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                let n = self.parse_percent()?;
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                params.push((n, ty));
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Arrow)?;
        let ret = self.parse_type()?;
        self.expect(Tok::LBrace)?;
        let region = self.parse_region_body()?;
        // parse_region_body consumed the closing brace.
        Ok(PFunc {
            name,
            params,
            ret,
            region,
        })
    }

    /// Parses block list up to and including the closing `}`.
    fn parse_region_body(&mut self) -> Result<PRegion, ParseError> {
        let mut blocks = Vec::new();
        let mut current = PBlock {
            label: None,
            args: Vec::new(),
            ops: Vec::new(),
        };
        let mut saw_anything = false;
        loop {
            match &self.tok {
                Tok::RBrace => {
                    self.advance()?;
                    break;
                }
                Tok::Caret(_) => {
                    if saw_anything {
                        blocks.push(current);
                    }
                    let label = match self.advance()? {
                        Tok::Caret(n) => n,
                        _ => unreachable!(),
                    };
                    let mut args = Vec::new();
                    if self.eat(&Tok::LParen)? {
                        if self.tok != Tok::RParen {
                            loop {
                                let n = self.parse_percent()?;
                                self.expect(Tok::Colon)?;
                                let ty = self.parse_type()?;
                                args.push((n, ty));
                                if !self.eat(&Tok::Comma)? {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    self.expect(Tok::Colon)?;
                    current = PBlock {
                        label: Some(label),
                        args,
                        ops: Vec::new(),
                    };
                    saw_anything = true;
                }
                _ => {
                    let op = self.parse_op()?;
                    current.ops.push(op);
                    saw_anything = true;
                }
            }
        }
        if saw_anything || blocks.is_empty() {
            blocks.push(current);
        }
        Ok(PRegion { blocks })
    }

    fn parse_op(&mut self) -> Result<POp, ParseError> {
        // Optional results: %a, %b = …
        let mut results = Vec::new();
        if let Tok::Percent(_) = self.tok {
            loop {
                results.push(self.parse_percent()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::Equals)?;
        }
        let opname = match self.advance()? {
            Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected op name, found {other:?}"))),
        };
        let opcode = Opcode::by_name(&opname)
            .ok_or_else(|| self.err(format!("unknown operation `{opname}`")))?;
        // Operands: '(' not followed by '{'.
        let mut operands = Vec::new();
        if self.tok == Tok::LParen {
            // Lookahead: operand list starts with % or ')'.
            // Region list starts with '{'.
            let is_operands = {
                // Cheap lookahead via cloning position is messy; instead peek
                // at the next token after consuming '(' and allow both forms.
                self.advance()?; // consume '('
                !matches!(self.tok, Tok::LBrace)
            };
            if is_operands {
                if self.tok != Tok::RParen {
                    loop {
                        operands.push(self.parse_percent()?);
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
            } else {
                // It was a region list; parse it here and return early path.
                let regions = self.parse_region_list_after_lparen()?;
                let ty = self.parse_result_type()?;
                return Ok(POp {
                    results,
                    opcode,
                    operands,
                    attrs: Vec::new(),
                    succs: Vec::new(),
                    regions,
                    ty,
                });
            }
        }
        // Attributes.
        let mut attrs = Vec::new();
        if self.eat(&Tok::LBrace)? {
            if self.tok != Tok::RBrace {
                loop {
                    let key = match self.advance()? {
                        Tok::Ident(s) => s
                            .parse::<AttrKey>()
                            .map_err(|_| self.err(format!("unknown attribute `{s}`")))?,
                        other => {
                            return Err(self.err(format!("expected attr key, found {other:?}")))
                        }
                    };
                    self.expect(Tok::Equals)?;
                    let val = self.parse_attr_value()?;
                    attrs.push((key, val));
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
            }
            self.expect(Tok::RBrace)?;
        }
        // Successors.
        let mut succs = Vec::new();
        if self.eat(&Tok::LBracket)? {
            if self.tok != Tok::RBracket {
                loop {
                    let label = match self.advance()? {
                        Tok::Caret(n) => n,
                        other => return Err(self.err(format!("expected ^block, found {other:?}"))),
                    };
                    let mut args = Vec::new();
                    if self.eat(&Tok::LParen)? {
                        if self.tok != Tok::RParen {
                            loop {
                                args.push(self.parse_percent()?);
                                if !self.eat(&Tok::Comma)? {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    succs.push((label, args));
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
            }
            self.expect(Tok::RBracket)?;
        }
        // Regions.
        let mut regions = Vec::new();
        if self.tok == Tok::LParen {
            self.advance()?;
            regions = self.parse_region_list_after_lparen()?;
        }
        let ty = self.parse_result_type()?;
        Ok(POp {
            results,
            opcode,
            operands,
            attrs,
            succs,
            regions,
            ty,
        })
    }

    /// Parses `{…}, {…})` — the '(' has been consumed.
    fn parse_region_list_after_lparen(&mut self) -> Result<Vec<PRegion>, ParseError> {
        let mut regions = Vec::new();
        loop {
            self.expect(Tok::LBrace)?;
            regions.push(self.parse_region_body()?);
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(regions)
    }

    fn parse_result_type(&mut self) -> Result<Option<Type>, ParseError> {
        if self.eat(&Tok::Colon)? {
            Ok(Some(self.parse_type()?))
        } else {
            Ok(None)
        }
    }

    fn parse_attr_value(&mut self) -> Result<PAttr, ParseError> {
        match self.advance()? {
            Tok::Int(v) => Ok(PAttr::Int(v)),
            Tok::Str(s) => Ok(PAttr::Str(s)),
            Tok::At(s) => Ok(PAttr::Sym(s)),
            Tok::Ident(s) => {
                let pred = s
                    .parse::<CmpPred>()
                    .map_err(|_| self.err(format!("unknown attribute value `{s}`")))?;
                Ok(PAttr::Pred(pred))
            }
            Tok::LBracket => {
                let mut vs = Vec::new();
                if self.tok != Tok::RBracket {
                    loop {
                        match self.advance()? {
                            Tok::Int(v) => vs.push(v),
                            other => {
                                return Err(self.err(format!("expected integer, found {other:?}")))
                            }
                        }
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(PAttr::IntList(vs))
            }
            other => Err(self.err(format!("expected attribute value, found {other:?}"))),
        }
    }
}

// ---- binding -------------------------------------------------------------

struct Binder<'m> {
    module: &'m mut Module,
    values: HashMap<u32, ValueId>,
    blocks: HashMap<u32, BlockId>,
}

fn bind_function(module: &mut Module, pf: PFunc) -> Result<(), String> {
    let param_tys: Vec<Type> = pf.params.iter().map(|&(_, t)| t).collect();
    let (mut body, param_vals) = Body::new(&param_tys);
    let mut binder = Binder {
        module,
        values: HashMap::new(),
        blocks: HashMap::new(),
    };
    for (&(n, _), &v) in pf.params.iter().zip(&param_vals) {
        binder.values.insert(n, v);
    }
    // The function's printed entry block (if labelled) is block 0.
    binder.bind_region(&mut body, &pf.region, crate::body::ROOT_REGION, true)?;
    let sig = Signature::new(param_tys, pf.ret);
    binder.module.add_function(&pf.name, sig, body);
    Ok(())
}

impl Binder<'_> {
    /// Phase 1+2 over one region: create blocks/args/results, then ops.
    fn bind_region(
        &mut self,
        body: &mut Body,
        pr: &PRegion,
        region: crate::ids::RegionId,
        is_root: bool,
    ) -> Result<(), String> {
        // Phase 1: blocks, block args, and result values for all ops in this
        // region (but NOT nested regions — those bind after their parent op
        // exists).
        let mut block_ids = Vec::with_capacity(pr.blocks.len());
        for (i, pb) in pr.blocks.iter().enumerate() {
            let b = if i == 0 && is_root {
                // Root entry already exists with parameter args.
                body.entry_block()
            } else {
                let tys: Vec<Type> = pb.args.iter().map(|&(_, t)| t).collect();
                let b = body.new_block(region, &tys);
                for (&(n, _), &v) in pb.args.iter().zip(&body.blocks[b.index()].args.to_vec()) {
                    self.values.insert(n, v);
                }
                b
            };
            if i == 0 && is_root {
                if let Some(lbl) = pb.label {
                    self.blocks.insert(lbl, b);
                }
                if !pb.args.is_empty() && pb.label.is_some() {
                    // A labelled root entry re-declares params; map them.
                    for (&(n, _), &v) in pb.args.iter().zip(body.params().to_vec().iter()) {
                        self.values.insert(n, v);
                    }
                }
            } else if let Some(lbl) = pb.label {
                self.blocks.insert(lbl, b);
            }
            block_ids.push(b);
        }
        // Phase 1b: allocate results for every op in every block (so operand
        // references across blocks resolve), by creating the ops now with
        // empty operands and patching later.
        let mut op_ids: Vec<Vec<crate::ids::OpId>> = Vec::new();
        for pb in &pr.blocks {
            let mut ids = Vec::new();
            for pop in &pb.ops {
                let result_tys: Vec<Type> = match (pop.results.len(), pop.ty) {
                    (0, _) => vec![],
                    (1, Some(t)) => vec![t],
                    (1, None) => return Err("op with result needs a `: type` suffix".into()),
                    _ => return Err("ops have at most one result".into()),
                };
                let attrs: Vec<_> = pop
                    .attrs
                    .iter()
                    .map(|(k, a)| (*k, self.bind_attr(a)))
                    .collect();
                let op = body.create_op(pop.opcode, Vec::new(), &result_tys, attrs);
                for (&n, &r) in pop
                    .results
                    .iter()
                    .zip(&body.ops[op.index()].results.to_vec())
                {
                    self.values.insert(n, r);
                }
                ids.push(op);
            }
            op_ids.push(ids);
        }
        // Phase 2: operands, successors, nested regions; attach ops.
        for (bi, pb) in pr.blocks.iter().enumerate() {
            for (oi, pop) in pb.ops.iter().enumerate() {
                let op = op_ids[bi][oi];
                let operands: Result<Vec<ValueId>, String> = pop
                    .operands
                    .iter()
                    .map(|n| {
                        self.values
                            .get(n)
                            .copied()
                            .ok_or_else(|| format!("use of undefined value %{n}"))
                    })
                    .collect();
                body.ops[op.index()].operands = operands?.into();
                for (lbl, args) in &pop.succs {
                    let block = *self
                        .blocks
                        .get(lbl)
                        .ok_or_else(|| format!("use of undefined block ^bb{lbl}"))?;
                    let args: Result<Vec<ValueId>, String> = args
                        .iter()
                        .map(|n| {
                            self.values
                                .get(n)
                                .copied()
                                .ok_or_else(|| format!("use of undefined value %{n}"))
                        })
                        .collect();
                    body.ops[op.index()]
                        .successors
                        .push(Successor::with_args(block, args?));
                }
                body.push_op(block_ids[bi], op);
                for nested in &pop.regions {
                    let r = body.new_region(op);
                    self.bind_region(body, nested, r, false)?;
                }
            }
        }
        Ok(())
    }

    fn bind_attr(&mut self, a: &PAttr) -> Attr {
        match a {
            PAttr::Int(v) => Attr::Int(*v),
            PAttr::Str(s) => Attr::Str(s.as_str().into()),
            PAttr::Sym(s) => Attr::Sym(self.module.intern(s)),
            PAttr::IntList(vs) => Attr::IntList(vs.as_slice().into()),
            PAttr::Pred(p) => Attr::Pred(*p),
        }
    }
}

/// Parses the textual form of a module.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut module = Module::new();
    let mut parser = Parser::new(src)?;
    parser.parse_module(&mut module)?;
    if parser.tok != Tok::Eof {
        return Err(parser.err(format!("trailing input: {:?}", parser.tok)));
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    /// The body's ops in walk order.
    fn walk(body: &crate::body::Body) -> Vec<crate::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn round_trip(src: &str) {
        let m = parse_module(src).expect("first parse");
        let printed = print_module(&m);
        let m2 =
            parse_module(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let printed2 = print_module(&m2);
        assert_eq!(printed, printed2, "printer not canonical");
    }

    #[test]
    fn parse_minimal_function() {
        let src = r#"
module {
  func @id(%0: !lp.t) -> !lp.t {
    lp.ret(%0)
  }
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.func_by_name("id").unwrap();
        assert_eq!(f.sig.params.len(), 1);
        round_trip(src);
    }

    #[test]
    fn parse_arith_and_attrs() {
        let src = r#"
module {
  func @f(%0: i64) -> i64 {
    %1 = arith.constant {value = -7} : i64
    %2 = arith.addi(%0, %1) : i64
    %3 = arith.cmpi(%2, %1) {pred = slt} : i1
    %4 = arith.select(%3, %0, %2) : i64
    func.return(%4)
  }
}
"#;
        round_trip(src);
    }

    #[test]
    fn parse_blocks_and_successors() {
        let src = r#"
module {
  func @g(%0: i1) -> i64 {
    %1 = arith.constant {value = 9} : i64
    cf.cond_br(%0) [^bb1, ^bb2(%1)]
  ^bb1:
    %2 = arith.constant {value = 0} : i64
    func.return(%2)
  ^bb2(%3: i64):
    func.return(%3)
  }
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.func_by_name("g").unwrap();
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.regions[0].blocks.len(), 3);
        round_trip(src);
    }

    #[test]
    fn parse_regions() {
        let src = r#"
module {
  func @h(%0: !lp.t) -> !lp.t {
    %1 = lp.getlabel(%0) : i8
    lp.switch(%1) {cases = [0]} ({
      %2 = lp.int {value = 0} : !lp.t
      lp.ret(%2)
    }, {
      %3 = lp.int {value = 1} : !lp.t
      lp.ret(%3)
    })
  }
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.func_by_name("h").unwrap();
        let body = f.body.as_ref().unwrap();
        let switch = walk(body)
            .into_iter()
            .find(|&op| body.ops[op.index()].opcode == Opcode::LpSwitch)
            .unwrap();
        assert_eq!(body.ops[switch.index()].regions.len(), 2);
        round_trip(src);
    }

    #[test]
    fn parse_rgn_dialect() {
        let src = r#"
module {
  func @r(%0: i1) -> !lp.t {
    %1 = rgn.val ({
      %2 = lp.int {value = 3} : !lp.t
      lp.ret(%2)
    }) : !rgn.region
    %3 = rgn.val ({
      %4 = lp.int {value = 5} : !lp.t
      lp.ret(%4)
    }) : !rgn.region
    %5 = arith.select(%0, %1, %3) : !rgn.region
    rgn.run(%5)
  }
}
"#;
        round_trip(src);
        let m = parse_module(src).unwrap();
        let f = m.func_by_name("r").unwrap();
        let body = f.body.as_ref().unwrap();
        let vals: Vec<_> = walk(body)
            .into_iter()
            .filter(|&op| body.ops[op.index()].opcode == Opcode::RgnVal)
            .collect();
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn parse_extern_global_and_calls() {
        let src = r#"
module {
  extern func @lean_nat_add(!lp.t, !lp.t) -> !lp.t
  global @kslot : !lp.t
  func @k42(%0: !lp.t) -> !lp.t {
    %1 = lp.global.load {global = @kslot} : !lp.t
    %2 = func.call(%0, %1) {callee = @lean_nat_add} : !lp.t
    func.return(%2)
  }
}
"#;
        let m = parse_module(src).unwrap();
        assert!(m.func_by_name("lean_nat_add").unwrap().is_extern());
        assert_eq!(m.globals.len(), 1);
        round_trip(src);
    }

    #[test]
    fn parse_region_with_block_args() {
        let src = r#"
module {
  func @jp(%0: !lp.t) -> !lp.t {
    %1 = rgn.val ({
    ^bb1(%2: !lp.t):
      lp.ret(%2)
    }) : !rgn.region
    rgn.run(%1, %0)
  }
}
"#;
        round_trip(src);
    }

    #[test]
    fn error_has_position() {
        let err = parse_module("module {\n  func !\n}").unwrap_err();
        // The lexer keeps one token of lookahead, so the reported position
        // is at or just past the offending line.
        assert!(err.line >= 2, "{err}");
        assert!(err.to_string().contains(&format!("{}:", err.line)));
    }

    #[test]
    fn error_on_unknown_op() {
        let src = "module { func @f() -> i64 { %0 = bogus.op : i64 } }";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("unknown operation"), "{err}");
    }

    #[test]
    fn error_on_undefined_value() {
        let src = "module { func @f() -> i64 { func.return(%9) } }";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn parse_string_attr() {
        let src = r#"
module {
  func @big() -> !lp.t {
    %0 = lp.bigint {value = "99999999999999999999"} : !lp.t
    lp.ret(%0)
  }
}
"#;
        let m = parse_module(src).unwrap();
        round_trip(src);
        let f = m.func_by_name("big").unwrap();
        let body = f.body.as_ref().unwrap();
        let op = walk(body)[0];
        assert_eq!(
            body.ops[op.index()].attr(AttrKey::Value).unwrap().as_str(),
            Some("99999999999999999999")
        );
    }
}
