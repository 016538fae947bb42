//! Lowering `.lssa` S-expressions to the [`lssa_lambda`] AST, with inline
//! wellformedness checking.
//!
//! The grammar (see the repository README for the full EBNF):
//!
//! ```text
//! program := def*
//! def     := "(" "def" name "(" var* ")" expr ")"
//! expr    := "(" "let"  var value expr ")"
//!          | "(" "join" join "(" var* ")" expr expr ")"
//!          | "(" "case" var arm+ ")"        arm := "(" (tag | "else") expr ")"
//!          | "(" "jump" join var* ")"
//!          | "(" "ret"  var ")"
//!          | "(" "inc"  var nat expr ")"
//!          | "(" "dec"  var expr ")"
//! value   := var | int | string
//!          | "(" "big"  digits | string ")"
//!          | "(" "ctor" tag var* ")"
//!          | "(" "proj" nat var ")"
//!          | "(" "call" name var* ")"
//!          | "(" "pap"  name var* ")"
//!          | "(" "app"  var var* ")"
//! var     := "x" digits          join := "j" digits
//! ```
//!
//! Lowering checks the same wellformedness rules as
//! [`lssa_lambda::wellformed::check_program`], but reports them as
//! [`Diagnostic`]s with precise source spans (the AST checker works on
//! location-free terms). The two checkers share their `E01xx` codes, so
//! `lssa check` and `lssa run` agree on what a defect is called.
//!
//! `next_var`/`next_join` of each [`FnDef`] are reconstructed as one past the
//! highest id mentioned anywhere in the function — exactly what the
//! programmatic lowering produces, which is what makes
//! `parse(print(p)) == p` hold structurally *and* on the id bounds.

use crate::diag::{Diagnostic, E_BAD_FORM, E_BAD_TOKEN};
use crate::sexp::{read, Forest, Sexp, SexpKind};
use crate::span::Span;
use lssa_lambda::ast::{Alt, Expr, FnDef, JoinId, Program, Value, VarId};
use lssa_lambda::dense::{IdSet, JoinArities, Scope, MAX_ID};
use lssa_lambda::wellformed::{builtin_name_message, codes};
use lssa_rt::Builtin;
use std::collections::{HashMap, HashSet};

/// Result of parsing a `.lssa` source: the program (when structurally
/// recoverable) plus every diagnostic found.
///
/// `program` is `Some` whenever the text was *syntactically* complete, even
/// if wellformedness diagnostics were reported — the formatter needs exactly
/// that (reformatting an ill-scoped program is fine; reformatting half a
/// parse tree is not).
#[derive(Debug, Clone)]
pub struct ParseOutcome {
    /// The lowered program, absent when syntax errors made lowering lossy.
    pub program: Option<Program>,
    /// All diagnostics, in source order per phase (lexical, structural,
    /// wellformedness).
    pub diagnostics: Vec<Diagnostic>,
}

impl ParseOutcome {
    /// Whether no diagnostics at all were reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Parses strictly: a program is returned only when there are no
/// diagnostics of any kind.
///
/// # Errors
///
/// Returns every diagnostic found (never an empty list).
pub fn parse_program(src: &str) -> Result<Program, Vec<Diagnostic>> {
    let outcome = parse_source(src);
    match outcome.program {
        Some(p) if outcome.diagnostics.is_empty() => Ok(p),
        _ => Err(outcome.diagnostics),
    }
}

/// Checks `src`, returning all diagnostics (empty = wellformed program).
pub fn check_source(src: &str) -> Vec<Diagnostic> {
    parse_source(src).diagnostics
}

/// Parses leniently; see [`ParseOutcome`].
pub fn parse_source(src: &str) -> ParseOutcome {
    let (forest, mut diagnostics) = read(src);
    let structurally_clean = diagnostics.is_empty();
    let mut lowerer = Lowerer {
        forest: &forest,
        diags: &mut diagnostics,
        structural_ok: structurally_clean,
        sigs: HashMap::new(),
        func: "",
        bound_once: IdSet::default(),
        scope: Scope::default(),
        joins: JoinArities::default(),
        undo: Vec::new(),
        cases: 0,
        tags: HashSet::new(),
        max_var: None,
        max_join: None,
    };
    let program = lowerer.lower_program();
    let structural_ok = lowerer.structural_ok;
    ParseOutcome {
        program: structural_ok.then_some(program),
        diagnostics,
    }
}

/// Why an `x`/`j` id atom was refused.
enum IdError {
    /// Not the prefix followed by decimal digits.
    Malformed,
    /// Digits at or above [`MAX_ID`].
    OutOfRange,
}

/// Parses `text` as `prefix` followed by an id below [`MAX_ID`].
fn parse_id_text(text: &str, prefix: char) -> Result<u32, IdError> {
    let digits = text
        .strip_prefix(prefix)
        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
        .ok_or(IdError::Malformed)?;
    match digits.parse::<u32>() {
        Ok(id) if id < MAX_ID => Ok(id),
        _ => Err(IdError::OutOfRange),
    }
}

/// The text of a name atom or string.
fn name_text<'f>(sexp: &'f Sexp) -> Option<&'f str> {
    match &sexp.kind {
        SexpKind::Atom(s) => Some(s),
        SexpKind::Str(s) => Some(s),
        SexpKind::List(_) => None,
    }
}

struct Lowerer<'f, 'a> {
    forest: &'f Forest<'a>,
    diags: &'f mut Vec<Diagnostic>,
    /// False once any lexical/structural error was reported.
    structural_ok: bool,
    /// Top-level function name → arity (pass 1).
    sigs: HashMap<&'f str, usize>,
    /// Name of the function currently being lowered (for notes).
    func: &'f str,
    /// Binders seen in the current function (uniqueness check).
    bound_once: IdSet,
    /// The variables in scope at the form being lowered.
    scope: Scope,
    /// The join points a `jump` here may target.
    joins: JoinArities,
    /// Unbind tokens of the join parameters in scope.
    undo: Vec<(VarId, u32)>,
    /// The `case` forms lowered so far.
    cases: u32,
    /// The tags each `case` has had, by the case's number.
    tags: HashSet<(u32, u32)>,
    max_var: Option<VarId>,
    max_join: Option<JoinId>,
}

impl<'f> Lowerer<'f, '_> {
    // ---- diagnostics ------------------------------------------------------

    fn form_error(&mut self, span: Span, message: impl Into<String>) {
        self.structural_ok = false;
        self.diags.push(Diagnostic::new(E_BAD_FORM, message, span));
    }

    fn token_error(&mut self, span: Span, message: impl Into<String>) {
        self.structural_ok = false;
        self.diags.push(Diagnostic::new(E_BAD_TOKEN, message, span));
    }

    /// A wellformedness diagnostic, annotated with the enclosing function.
    fn wf(&mut self, code: &'static str, message: impl Into<String>, span: Span) {
        let note = format!("in function @{}", self.func);
        self.diags
            .push(Diagnostic::new(code, message, span).with_note(note));
    }

    // ---- token helpers ----------------------------------------------------

    fn list(&self, sexp: &'f Sexp) -> Option<&'f [Sexp<'f>]> {
        self.forest.list(sexp)
    }

    fn parse_id(&mut self, sexp: &Sexp, prefix: char, what: &str) -> Option<u32> {
        let text = match sexp.as_atom() {
            Some(t) => t,
            None => {
                self.token_error(
                    sexp.span,
                    format!(
                        "expected {what} like `{prefix}0`, found {}",
                        sexp.describe()
                    ),
                );
                return None;
            }
        };
        match parse_id_text(text, prefix) {
            Ok(id) => Some(id),
            Err(IdError::Malformed) => {
                self.token_error(
                    sexp.span,
                    format!("expected {what} like `{prefix}0`, found `{text}`"),
                );
                None
            }
            Err(IdError::OutOfRange) => {
                self.token_error(sexp.span, format!("{what} `{text}` is out of range"));
                None
            }
        }
    }

    fn parse_var(&mut self, sexp: &Sexp) -> Option<VarId> {
        let id = self.parse_id(sexp, 'x', "a variable")?;
        self.max_var = Some(self.max_var.map_or(id, |m| m.max(id)));
        Some(id)
    }

    fn parse_join(&mut self, sexp: &Sexp) -> Option<JoinId> {
        let id = self.parse_id(sexp, 'j', "a join label")?;
        self.max_join = Some(self.max_join.map_or(id, |m| m.max(id)));
        Some(id)
    }

    fn parse_u32(&mut self, sexp: &Sexp, what: &str) -> Option<u32> {
        let ok = sexp
            .as_atom()
            .filter(|t| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|t| t.parse::<u32>().ok());
        if ok.is_none() {
            self.token_error(
                sexp.span,
                format!(
                    "expected {what} (a small decimal number), found {}",
                    sexp.describe()
                ),
            );
        }
        ok
    }

    fn parse_name(&mut self, sexp: &'f Sexp) -> Option<&'f str> {
        let name = name_text(sexp);
        if name.is_none() {
            self.token_error(sexp.span, "expected a function name".to_string());
        }
        name
    }

    // ---- program / defs ---------------------------------------------------

    fn lower_program(&mut self) -> Program {
        // Pass 1: signatures (arity of every def, for call checking).
        // A def awaiting pass 2: its items, name, and where its lowered
        // params sit in `params`.
        let mut order: Vec<(&'f [Sexp<'f>], &'f str, std::ops::Range<usize>)> = Vec::new();
        let mut params: Vec<(VarId, Span)> = Vec::new();
        let forest = self.forest;
        for top in forest.top() {
            let Some(items) = self.list(top) else {
                self.form_error(
                    top.span,
                    format!("expected a `(def ...)` form, found {}", top.describe()),
                );
                continue;
            };
            if items.first().and_then(Sexp::as_atom) != Some("def") {
                self.form_error(
                    top.span,
                    "expected a `(def name (params) body)` form".to_string(),
                );
                continue;
            }
            if items.len() != 4 {
                self.form_error(
                    top.span,
                    format!(
                        "`def` takes a name, a parameter list, and one body ({} items found)",
                        items.len() - 1
                    ),
                );
                continue;
            }
            let Some(name) = self.parse_name(&items[1]) else {
                continue;
            };
            let Some(param_items) = self.list(&items[2]) else {
                self.form_error(
                    items[2].span,
                    format!(
                        "expected a parameter list `(x0 x1 ...)`, found {}",
                        items[2].describe()
                    ),
                );
                continue;
            };
            let start = params.len();
            let mut params_ok = true;
            for p in param_items {
                // Ids are recorded during pass 2 (per-function max); here we
                // only need the shape.
                match p.as_atom().map(|t| (t, parse_id_text(t, 'x'))) {
                    Some((_, Ok(id))) => params.push((id, p.span)),
                    Some((text, Err(IdError::OutOfRange))) => {
                        self.token_error(p.span, format!("parameter `{text}` is out of range"));
                        params_ok = false;
                    }
                    _ => {
                        self.token_error(
                            p.span,
                            format!("expected a parameter like `x0`, found {}", p.describe()),
                        );
                        params_ok = false;
                    }
                }
            }
            if !params_ok {
                params.truncate(start);
                continue;
            }
            let arity = params.len() - start;
            if name.starts_with("lean_") {
                self.func = name;
                self.wf(
                    codes::DUPLICATE_FUNCTION,
                    builtin_name_message(name),
                    items[1].span,
                );
            } else if self.sigs.insert(name, arity).is_some() {
                self.func = name;
                self.wf(
                    codes::DUPLICATE_FUNCTION,
                    "duplicate function name".to_string(),
                    items[1].span,
                );
            }
            order.push((items, name, start..params.len()));
        }
        // Pass 2: lower bodies.
        let mut program = Program {
            fns: Vec::with_capacity(order.len()),
        };
        for (items, name, range) in order {
            self.func = name;
            self.bound_once.clear();
            self.scope.clear();
            self.max_var = None;
            self.max_join = None;
            let mut param_ids = Vec::with_capacity(range.len());
            for &(id, span) in &params[range] {
                self.max_var = Some(self.max_var.map_or(id, |m| m.max(id)));
                if !self.bound_once.insert(id) {
                    self.wf(codes::REBOUND, format!("parameter x{id} bound twice"), span);
                }
                self.scope.bind(id);
                param_ids.push(id);
            }
            let body = self.lower_expr(&items[3], None);
            program.fns.push(FnDef {
                name: name.to_string(),
                params: param_ids,
                body: body.unwrap_or(Expr::Ret(0)),
                next_var: self.max_var.map_or(0, |m| m + 1),
                next_join: self.max_join.map_or(0, |m| m + 1),
            });
        }
        program
    }

    // ---- expressions ------------------------------------------------------

    /// Lowers one expression. `jp` is `Some((label, outer_frame))` while
    /// inside a join-point body: `outer_frame` is the scope frame that was
    /// visible at the join's declaration, used to tell a *capture* (E0105)
    /// from a plain out-of-scope use (E0101).
    fn lower_expr(&mut self, sexp: &'f Sexp, jp: Option<(JoinId, u32)>) -> Option<Expr> {
        let Some(items) = self.list(sexp) else {
            self.form_error(
                sexp.span,
                format!("expected an expression form, found {}", sexp.describe()),
            );
            return None;
        };
        let Some(head) = items.first().and_then(Sexp::as_atom) else {
            self.form_error(
                sexp.span,
                "expected an expression form like `(ret x0)`".to_string(),
            );
            return None;
        };
        match head {
            "let" => self.lower_let(sexp, items, jp),
            "join" => self.lower_join(sexp, items, jp),
            "case" => self.lower_case(sexp, items, jp),
            "jump" => self.lower_jump(sexp, items, jp),
            "ret" => self.lower_ret(sexp, items, jp),
            "inc" => self.lower_inc(sexp, items, jp),
            "dec" => self.lower_dec(sexp, items, jp),
            other => {
                self.form_error(
                    sexp.span,
                    format!(
                        "unknown expression form `{other}` (expected let, join, case, jump, ret, inc, or dec)"
                    ),
                );
                None
            }
        }
    }

    /// Lowers `(let var value body)`; `items` are the form's list items.
    fn lower_let(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() != 4 {
            self.form_error(sexp.span, "`let` takes a variable, a value, and a body");
            return None;
        }
        let var = self.parse_var(&items[1]);
        let val = self.lower_value(&items[2], jp);
        let token = var.map(|v| self.bind(v, items[1].span));
        let body = self.lower_expr(&items[3], jp);
        if let (Some(v), Some(token)) = (var, token) {
            self.scope.unbind(v, token);
        }
        Some(Expr::Let {
            var: var?,
            val: val?,
            body: Box::new(body?),
        })
    }

    /// Lowers `(join label (params) jp_body body)`; `items` are the form's list items.
    fn lower_join(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() != 5 {
            self.form_error(
                sexp.span,
                "`join` takes a label, a parameter list, the join body, and the scope body",
            );
            return None;
        }
        let label = self.parse_join(&items[1]);
        let Some(param_items) = self.list(&items[2]) else {
            self.form_error(
                items[2].span,
                format!(
                    "expected a parameter list `(x0 ...)`, found {}",
                    items[2].describe()
                ),
            );
            return None;
        };
        // The join point's body sees only its parameters; the scope
        // at the declaration stays visible as the outer frame for
        // capture classification. Enclosing join points stay
        // jumpable (mirroring the AST checker).
        let outer = self.scope.enter_frame();
        let mark = self.undo.len();
        let mut params = Vec::with_capacity(param_items.len());
        let mut params_ok = true;
        for p in param_items {
            match self.parse_var(p) {
                Some(v) => {
                    let token = self.bind(v, p.span);
                    self.undo.push((v, token));
                    params.push(v);
                }
                None => params_ok = false,
            }
        }
        let jp_body = self.lower_expr(&items[3], label.map(|l| (l, outer)));
        while self.undo.len() > mark {
            let (v, token) = self.undo.pop().expect("above the mark");
            self.scope.unbind(v, token);
        }
        self.scope.leave_frame(outer);
        let token = label.map(|l| self.joins.declare(l, params.len()));
        let body = self.lower_expr(&items[4], jp);
        if let (Some(l), Some(token)) = (label, token) {
            self.joins.restore(l, token);
        }
        if !params_ok {
            return None;
        }
        Some(Expr::LetJoin {
            label: label?,
            params,
            jp_body: Box::new(jp_body?),
            body: Box::new(body?),
        })
    }

    /// Lowers `(case var arm+)`; `items` are the form's list items.
    fn lower_case(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() < 3 {
            self.form_error(sexp.span, "`case` takes a scrutinee and at least one arm");
            return None;
        }
        let scrutinee = self.parse_var(&items[1]);
        if let Some(v) = scrutinee {
            self.check_use(v, items[1].span, jp);
        }
        let mut alts: Vec<Alt> = Vec::with_capacity(items.len() - 2);
        let mut default: Option<Box<Expr>> = None;
        let case = self.cases;
        self.cases = case.checked_add(1).expect("fewer than 2^32 case forms");
        let mut ok = true;
        for arm in &items[2..] {
            let Some(arm_items) = self.list(arm) else {
                self.form_error(
                    arm.span,
                    format!(
                        "expected an arm `(tag body)` or `(else body)`, found {}",
                        arm.describe()
                    ),
                );
                ok = false;
                continue;
            };
            if arm_items.len() != 2 {
                self.form_error(arm.span, "an arm takes a tag (or `else`) and one body");
                ok = false;
                continue;
            }
            if arm_items[0].as_atom() == Some("else") {
                if default.is_some() {
                    self.form_error(arm_items[0].span, "duplicate `else` arm");
                    ok = false;
                }
                let body = self.lower_expr(&arm_items[1], jp);
                match body {
                    Some(b) if default.is_none() => default = Some(Box::new(b)),
                    _ => ok = false,
                }
                continue;
            }
            let tag = self.parse_u32(&arm_items[0], "a constructor tag");
            if let Some(t) = tag {
                if !self.tags.insert((case, t)) {
                    self.wf(
                        codes::DUPLICATE_TAG,
                        format!("duplicate case tag {t}"),
                        arm_items[0].span,
                    );
                }
            }
            let body = self.lower_expr(&arm_items[1], jp);
            match (tag, body) {
                (Some(tag), Some(body)) => alts.push(Alt { tag, body }),
                _ => ok = false,
            }
        }
        if alts.is_empty() && default.is_none() && ok {
            self.wf(
                codes::EMPTY_CASE,
                "case with no arms".to_string(),
                sexp.span,
            );
        }
        if !ok {
            return None;
        }
        Some(Expr::Case {
            scrutinee: scrutinee?,
            alts,
            default,
        })
    }

    /// Lowers `(jump label var*)`; `items` are the form's list items.
    fn lower_jump(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() < 2 {
            self.form_error(sexp.span, "`jump` takes a join label and arguments");
            return None;
        }
        let label = self.parse_join(&items[1]);
        let mut args = Vec::with_capacity(items.len() - 2);
        let mut ok = true;
        for a in &items[2..] {
            match self.parse_var(a) {
                Some(v) => {
                    self.check_use(v, a.span, jp);
                    args.push(v);
                }
                None => ok = false,
            }
        }
        if let Some(l) = label {
            match self.joins.get(l) {
                Some(arity) if arity == args.len() => {}
                Some(arity) => self.wf(
                    codes::JUMP_ARITY,
                    format!("jump to j{l} with {} args (expects {arity})", args.len()),
                    sexp.span,
                ),
                None => self.wf(
                    codes::UNKNOWN_JOIN,
                    format!("jump to unknown join point j{l}"),
                    items[1].span,
                ),
            }
        }
        if !ok {
            return None;
        }
        Some(Expr::Jump {
            label: label?,
            args,
        })
    }

    /// Lowers `(ret var)`; `items` are the form's list items.
    fn lower_ret(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() != 2 {
            self.form_error(sexp.span, "`ret` takes exactly one variable");
            return None;
        }
        let v = self.parse_var(&items[1])?;
        self.check_use(v, items[1].span, jp);
        Some(Expr::Ret(v))
    }

    /// Lowers `(inc var n body)`; `items` are the form's list items.
    fn lower_inc(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() != 4 {
            self.form_error(sexp.span, "`inc` takes a variable, a count, and a body");
            return None;
        }
        let var = self.parse_var(&items[1]);
        if let Some(v) = var {
            self.check_use(v, items[1].span, jp);
        }
        let n = self.parse_u32(&items[2], "a retain count");
        let body = self.lower_expr(&items[3], jp);
        Some(Expr::Inc {
            var: var?,
            n: n?,
            body: Box::new(body?),
        })
    }

    /// Lowers `(dec var body)`; `items` are the form's list items.
    fn lower_dec(
        &mut self,
        sexp: &'f Sexp,
        items: &'f [Sexp<'f>],
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        if items.len() != 3 {
            self.form_error(sexp.span, "`dec` takes a variable and a body");
            return None;
        }
        let var = self.parse_var(&items[1]);
        if let Some(v) = var {
            self.check_use(v, items[1].span, jp);
        }
        let body = self.lower_expr(&items[2], jp);
        Some(Expr::Dec {
            var: var?,
            body: Box::new(body?),
        })
    }

    // ---- values -----------------------------------------------------------

    fn lower_value(&mut self, sexp: &'f Sexp, jp: Option<(JoinId, u32)>) -> Option<Value> {
        let items = match &sexp.kind {
            SexpKind::Str(s) => return Some(Value::LitStr(s.to_string())),
            SexpKind::Atom(text) => {
                let text: &str = text;
                if text.starts_with('x')
                    && text.len() > 1
                    && text.as_bytes()[1..].iter().all(u8::is_ascii_digit)
                {
                    let v = self.parse_var(sexp)?;
                    self.check_use(v, sexp.span, jp);
                    return Some(Value::Var(v));
                }
                return match text.parse::<i64>() {
                    Ok(n) => Some(Value::LitInt(n)),
                    Err(_) if text.bytes().all(|b| b.is_ascii_digit()) && !text.is_empty() => {
                        self.token_error(
                            sexp.span,
                            format!("integer literal `{text}` out of range; write `(big {text})`"),
                        );
                        None
                    }
                    Err(_) => {
                        self.token_error(
                            sexp.span,
                            format!("expected a value, found atom `{text}`"),
                        );
                        None
                    }
                };
            }
            SexpKind::List(_) => self.list(sexp).expect("a list"),
        };
        let Some(head) = items.first().and_then(Sexp::as_atom) else {
            self.form_error(
                sexp.span,
                "expected a value form like `(call f x0)`".to_string(),
            );
            return None;
        };
        match head {
            "big" => {
                if items.len() != 2 {
                    self.form_error(sexp.span, "`big` takes one digit sequence");
                    return None;
                }
                let Some(digits) = name_text(&items[1]) else {
                    self.token_error(items[1].span, "expected digits");
                    return None;
                };
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    self.wf(
                        codes::BAD_BIGINT,
                        format!("malformed bigint literal {digits:?}"),
                        items[1].span,
                    );
                }
                Some(Value::LitBig(digits.to_string()))
            }
            "ctor" => {
                if items.len() < 2 {
                    self.form_error(sexp.span, "`ctor` takes a tag and field variables");
                    return None;
                }
                let tag = self.parse_u32(&items[1], "a constructor tag");
                let args = self.lower_var_list(&items[2..], jp);
                Some(Value::Ctor {
                    tag: tag?,
                    args: args?,
                })
            }
            "proj" => {
                if items.len() != 3 {
                    self.form_error(sexp.span, "`proj` takes a field index and a variable");
                    return None;
                }
                let idx = self.parse_u32(&items[1], "a field index");
                let var = self.parse_var(&items[2]);
                if let Some(v) = var {
                    self.check_use(v, items[2].span, jp);
                }
                Some(Value::Proj {
                    var: var?,
                    idx: idx?,
                })
            }
            "call" | "pap" => {
                if items.len() < 2 {
                    self.form_error(
                        sexp.span,
                        format!("`{head}` takes a function name and argument variables"),
                    );
                    return None;
                }
                let func = self.parse_name(&items[1]);
                let args = self.lower_var_list(&items[2..], jp);
                let (func, args) = (func?, args?);
                if head == "call" {
                    self.check_call(func, args.len(), items[1].span);
                    Some(Value::Call {
                        func: func.to_string(),
                        args,
                    })
                } else {
                    self.check_pap(func, args.len(), items[1].span);
                    Some(Value::Pap {
                        func: func.to_string(),
                        args,
                    })
                }
            }
            "app" => {
                if items.len() < 2 {
                    self.form_error(
                        sexp.span,
                        "`app` takes a closure variable and argument variables",
                    );
                    return None;
                }
                let closure = self.parse_var(&items[1]);
                if let Some(v) = closure {
                    self.check_use(v, items[1].span, jp);
                }
                let args = self.lower_var_list(&items[2..], jp);
                let args = args?;
                if args.is_empty() {
                    self.wf(
                        codes::EMPTY_APP,
                        "closure application with no arguments".to_string(),
                        sexp.span,
                    );
                }
                Some(Value::App {
                    closure: closure?,
                    args,
                })
            }
            other => {
                self.form_error(
                    sexp.span,
                    format!(
                        "unknown value form `{other}` (expected big, ctor, proj, call, pap, or app)"
                    ),
                );
                None
            }
        }
    }

    fn lower_var_list(&mut self, items: &[Sexp], jp: Option<(JoinId, u32)>) -> Option<Vec<VarId>> {
        let mut out = Vec::with_capacity(items.len());
        let mut ok = true;
        for item in items {
            match self.parse_var(item) {
                Some(v) => {
                    self.check_use(v, item.span, jp);
                    out.push(v);
                }
                None => ok = false,
            }
        }
        ok.then_some(out)
    }

    // ---- wellformedness ---------------------------------------------------

    /// Binds `v` in the current scope; returns the token that unbinds it.
    fn bind(&mut self, v: VarId, span: Span) -> u32 {
        if !self.bound_once.insert(v) {
            self.wf(codes::REBOUND, format!("x{v} bound more than once"), span);
        }
        self.scope.bind(v)
    }

    fn check_use(&mut self, v: VarId, span: Span, jp: Option<(JoinId, u32)>) {
        if self.scope.contains(v) {
            return;
        }
        match jp {
            Some((label, outer)) if self.scope.visible_in(v, outer) => self.wf(
                codes::JOIN_CAPTURE,
                format!("join point j{label} body references x{v}, which is not a parameter"),
                span,
            ),
            _ => self.wf(
                codes::OUT_OF_SCOPE,
                format!("use of x{v} out of scope"),
                span,
            ),
        }
    }

    fn check_call(&mut self, func: &str, nargs: usize, span: Span) {
        if func.starts_with("lean_") {
            match func.parse::<Builtin>() {
                Ok(b) => {
                    if b.arity() != nargs {
                        self.wf(
                            codes::BUILTIN_ARITY,
                            format!("builtin {func} expects {} args, got {nargs}", b.arity()),
                            span,
                        );
                    }
                }
                Err(_) => self.wf(
                    codes::UNKNOWN_BUILTIN,
                    format!("unknown builtin {func}"),
                    span,
                ),
            }
            return;
        }
        match self.sigs.get(func).copied() {
            Some(a) if a == nargs => {}
            Some(a) => self.wf(
                codes::CALL_ARITY,
                format!("call to @{func} with {nargs} args (arity {a})"),
                span,
            ),
            None => self.wf(
                codes::UNKNOWN_FUNCTION,
                format!("call to unknown function @{func}"),
                span,
            ),
        }
    }

    fn check_pap(&mut self, func: &str, nargs: usize, span: Span) {
        match self.sigs.get(func).copied() {
            Some(a) if nargs < a => {}
            Some(a) => self.wf(
                codes::BAD_PAP,
                format!("pap of @{func} with {nargs} args must under-apply (arity {a})"),
                span,
            ),
            None => self.wf(
                codes::BAD_PAP,
                format!("pap of unknown function @{func}"),
                span,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(src: &str) -> Vec<&'static str> {
        check_source(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn minimal_program_parses() {
        let p = parse_program("(def main () (let x0 42 (ret x0)))").unwrap();
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "main");
        assert_eq!(f.params, Vec::<VarId>::new());
        assert_eq!(f.next_var, 1);
        assert_eq!(f.next_join, 0);
        assert_eq!(
            f.body,
            Expr::Let {
                var: 0,
                val: Value::LitInt(42),
                body: Box::new(Expr::Ret(0)),
            }
        );
    }

    #[test]
    fn all_value_forms_parse() {
        let src = r#"
(def helper (x0 x1) (ret x0))
(def main (x0)
  (let x1 17
  (let x2 (big 123456789012345678901234567890)
  (let x3 "hi\n"
  (let x4 (ctor 2 x0 x1)
  (let x5 (proj 0 x4)
  (let x6 (call helper x1 x2)
  (let x7 (pap helper x1)
  (let x8 (app x7 x2)
  (let x9 x8
  (ret x9)))))))))))
"#;
        let p = parse_program(src).unwrap_or_else(|d| panic!("{d:?}"));
        assert_eq!(p.fns[1].next_var, 10);
        let text = p.fns[1].body.to_string();
        assert!(
            text.contains("big(123456789012345678901234567890)"),
            "{text}"
        );
        assert!(text.contains("ctor_2(x0, x1)"), "{text}");
        assert!(text.contains("pap @helper(x1)"), "{text}");
    }

    #[test]
    fn join_case_inc_dec_parse() {
        let src = r#"
(def f (x0)
  (join j0 (x1)
    (inc x1 2
    (dec x1
    (ret x1)))
  (case x0
    (0 (jump j0 x0))
    (else (jump j0 x0)))))
"#;
        let p = parse_program(src).unwrap_or_else(|d| panic!("{d:?}"));
        let f = &p.fns[0];
        assert_eq!(f.next_join, 1);
        assert_eq!(f.next_var, 2);
        assert!(f.body.has_rc_ops());
    }

    #[test]
    fn out_of_scope_has_span_and_code() {
        let diags = check_source("(def main () (ret x7))");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OUT_OF_SCOPE);
        let span = diags[0].span.unwrap();
        assert_eq!(span, Span::new(18, 20));
        assert_eq!(diags[0].notes, vec!["in function @main".to_string()]);
    }

    #[test]
    fn join_capture_classified_separately() {
        // x0 is in the enclosing scope but not a join parameter: E0105.
        let src = "(def f (x0) (join j0 (x1) (ret x0) (jump j0 x0)))";
        assert_eq!(codes_of(src), vec![codes::JOIN_CAPTURE]);
        // x9 is nowhere: plain out-of-scope.
        let src = "(def f (x0) (join j0 (x1) (ret x9) (jump j0 x0)))";
        assert_eq!(codes_of(src), vec![codes::OUT_OF_SCOPE]);
    }

    #[test]
    fn call_checks_mirror_ast_checker() {
        assert_eq!(
            codes_of("(def main () (let x0 (call nosuch) (ret x0)))"),
            vec![codes::UNKNOWN_FUNCTION]
        );
        assert_eq!(
            codes_of("(def f (x0) (ret x0)) (def main () (let x0 (call f) (ret x0)))"),
            vec![codes::CALL_ARITY]
        );
        assert_eq!(
            codes_of("(def main () (let x0 (call lean_nosuch) (ret x0)))"),
            vec![codes::UNKNOWN_BUILTIN]
        );
        assert_eq!(
            codes_of("(def main () (let x0 (call lean_nat_add x0) (ret x0)))"),
            // x0 used before bound + arity: two diagnostics.
            vec![codes::OUT_OF_SCOPE, codes::BUILTIN_ARITY]
        );
        assert_eq!(
            codes_of("(def f (x0) (ret x0)) (def main () (let x0 (pap f x0) (ret x0)))"),
            vec![codes::OUT_OF_SCOPE, codes::BAD_PAP]
        );
    }

    #[test]
    fn rebinding_and_duplicate_tags_reported() {
        assert_eq!(
            codes_of("(def main () (let x0 1 (let x0 2 (ret x0))))"),
            vec![codes::REBOUND]
        );
        assert_eq!(
            codes_of("(def main (x0) (case x0 (0 (ret x0)) (0 (ret x0))))"),
            vec![codes::DUPLICATE_TAG]
        );
    }

    #[test]
    fn duplicate_tags_are_found_in_wide_and_nested_cases() {
        // Twenty arms with tags 0..20, then repeats of 17 and 0; the inner
        // case of arm 3 reuses the outer tags 0 and 1 without clashing.
        let mut arms: Vec<String> = (0..20).map(|t| format!("({t} (ret x0))")).collect();
        arms[3] = "(3 (case x0 (0 (ret x0)) (1 (ret x0)) (1 (ret x0))))".to_string();
        arms.push("(17 (ret x0))".to_string());
        arms.push("(0 (ret x0))".to_string());
        let src = format!("(def main (x0) (case x0 {}))", arms.join(" "));
        let messages: Vec<String> = parse_source(&src)
            .diagnostics
            .into_iter()
            .map(|d| d.message)
            .collect();
        assert_eq!(
            messages,
            [
                "duplicate case tag 1",
                "duplicate case tag 17",
                "duplicate case tag 0"
            ]
        );
    }

    #[test]
    fn duplicate_function_name_reported() {
        assert_eq!(
            codes_of("(def f () (let x0 1 (ret x0))) (def f () (let x0 2 (ret x0)))"),
            vec![codes::DUPLICATE_FUNCTION]
        );
    }

    #[test]
    fn jump_checks() {
        assert_eq!(
            codes_of("(def f (x0) (jump j3 x0))"),
            vec![codes::UNKNOWN_JOIN]
        );
        assert_eq!(
            codes_of("(def f (x0) (join j0 (x1) (ret x1) (jump j0)))"),
            vec![codes::JUMP_ARITY]
        );
    }

    #[test]
    fn structural_errors_block_the_program_but_not_other_diags() {
        let out = parse_source("(def main () (ret x0");
        assert!(out.program.is_none());
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == crate::diag::E_UNBALANCED));
        // The out-of-scope use inside the broken tree still surfaces.
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == codes::OUT_OF_SCOPE));
    }

    #[test]
    fn wellformedness_errors_keep_the_program() {
        let out = parse_source("(def main () (ret x7))");
        assert!(out.program.is_some(), "formatter needs the tree");
        assert_eq!(out.diagnostics.len(), 1);
        assert!(parse_program("(def main () (ret x7))").is_err());
    }

    #[test]
    fn huge_int_literal_guides_to_big() {
        let diags = check_source("(def main () (let x0 99999999999999999999 (ret x0)))");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_BAD_TOKEN);
        assert!(diags[0].message.contains("(big"), "{}", diags[0].message);
    }

    #[test]
    fn malformed_big_flagged_with_shared_code() {
        assert_eq!(
            codes_of("(def main () (let x0 (big \"12a\") (ret x0)))"),
            vec![codes::BAD_BIGINT]
        );
    }

    #[test]
    fn unknown_forms_rejected() {
        let out = parse_source("(def main () (frob x0))");
        assert!(out.program.is_none());
        assert_eq!(out.diagnostics[0].code, E_BAD_FORM);
        let out = parse_source("(module (def main () (ret x0)))");
        assert!(out.program.is_none());
    }

    #[test]
    fn quoted_function_names_roundtrip_oddities() {
        let p = parse_program(
            "(def \"weird name\" () (let x0 1 (ret x0))) (def main () (let x0 (call \"weird name\") (ret x0)))",
        )
        .unwrap_or_else(|d| panic!("{d:?}"));
        assert_eq!(p.fns[0].name, "weird name");
    }
}
