//! Source-level lints over the `.lssa` S-expression forest.
//!
//! These are the hygiene checks `lssa lint` runs *in addition to* the
//! `check` wellformedness pass: the program is accepted and runs, but
//! something about it is suspicious. Each finding carries a stable `E02xx`
//! code (see [`crate::diag`]) and a precise source span:
//!
//! - `E0203` — a join point is declared but never jumped to (dead block),
//! - `E0204` — a function parameter is never referenced,
//! - `E0205` — a `case` arm whose tag can never match because the
//!   scrutinee was bound to a constructor with a different tag in the
//!   enclosing `let` chain,
//! - `E0206` — a `join` declaration shadows an enclosing, still-jumpable
//!   join point with the same label.
//!
//! The linter assumes a *clean* parse: [`lint_source`] returns nothing when
//! the reader reported any diagnostic (the errors are the story then), and
//! the tree walk skips malformed forms rather than re-reporting them —
//! `check` owns rejection, `lint` owns hygiene.

use crate::diag::{
    Diagnostic, E_LINT_DEAD_JOIN, E_LINT_SHADOWED_BINDING, E_LINT_UNREACHABLE_ARM,
    E_LINT_UNUSED_PARAM,
};
use crate::sexp::{read, Forest, Sexp, SexpKind};
use std::collections::{HashMap, HashSet};

/// Lints `src`, returning all findings (warnings). Returns an empty list if
/// the source does not even read as an S-expression forest — run
/// [`crate::check_source`] first; lints are meaningless on broken syntax.
pub fn lint_source(src: &str) -> Vec<Diagnostic> {
    let (forest, diags) = read(src);
    if !diags.is_empty() {
        return Vec::new();
    }
    lint_forest(&forest)
}

/// Lints an already-read forest (see [`lint_source`]).
pub fn lint_forest(forest: &Forest) -> Vec<Diagnostic> {
    let mut linter = Linter {
        forest,
        out: Vec::new(),
        func: String::new(),
        used_vars: HashSet::new(),
        joins: Vec::new(),
    };
    for top in forest.top() {
        linter.lint_def(top);
    }
    linter.out
}

/// One declared join point, tracked while its scope body is walked.
struct JoinEntry {
    label: u32,
    jumped: bool,
}

struct Linter<'f, 'a> {
    forest: &'f Forest<'a>,
    out: Vec<Diagnostic>,
    /// Name of the function being walked (for notes).
    func: String,
    /// Variable ids referenced (not bound) anywhere in the current body.
    used_vars: HashSet<u32>,
    /// Join points whose scope body is currently being walked, innermost
    /// last; shadowed labels keep their earlier entries on the stack.
    joins: Vec<JoinEntry>,
}

/// Parses `x0`-style atoms, returning the id.
fn id_of(sexp: &Sexp, prefix: char) -> Option<u32> {
    let digits = sexp.as_atom()?.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn tag_of(sexp: &Sexp) -> Option<u32> {
    let text = sexp.as_atom()?;
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

impl Linter<'_, '_> {
    fn warn(&mut self, code: &'static str, message: String, span: crate::span::Span) {
        let note = format!("in function @{}", self.func);
        self.out
            .push(Diagnostic::warning(code, message, span).with_note(note));
    }

    fn lint_def(&mut self, top: &Sexp) {
        let Some(items) = self.forest.list(top) else {
            return;
        };
        if items.first().and_then(Sexp::as_atom) != Some("def") || items.len() != 4 {
            return;
        }
        let Some(name) = items[1].as_atom() else {
            return;
        };
        self.func = name.to_string();
        self.used_vars = HashSet::new();
        self.joins = Vec::new();
        self.walk_expr(&items[3], &HashMap::new());
        let Some(params) = self.forest.list(&items[2]) else {
            return;
        };
        for p in params {
            if let Some(v) = id_of(p, 'x') {
                if !self.used_vars.contains(&v) {
                    self.warn(
                        E_LINT_UNUSED_PARAM,
                        format!("parameter x{v} is never used"),
                        p.span,
                    );
                }
            }
        }
    }

    fn mark_use(&mut self, sexp: &Sexp) {
        if let Some(v) = id_of(sexp, 'x') {
            self.used_vars.insert(v);
        }
    }

    /// Walks one expression form. `known` maps variables to the constructor
    /// tag they were bound to (`(let xN (ctor T ...) ...)`) in the enclosing
    /// `let` chain.
    fn walk_expr(&mut self, sexp: &Sexp, known: &HashMap<u32, u32>) {
        let Some(items) = self.forest.list(sexp) else {
            return;
        };
        let Some(head) = items.first().and_then(Sexp::as_atom) else {
            return;
        };
        match (head, items.len()) {
            ("let", 4) => {
                self.walk_value(&items[2]);
                let mut inner = known.clone();
                if let (Some(v), Some(tag)) =
                    (id_of(&items[1], 'x'), ctor_tag(self.forest, &items[2]))
                {
                    inner.insert(v, tag);
                }
                self.walk_expr(&items[3], &inner);
            }
            ("join", 5) => {
                let label = id_of(&items[1], 'j');
                if let Some(l) = label {
                    if self.joins.iter().any(|j| j.label == l) {
                        self.warn(
                            E_LINT_SHADOWED_BINDING,
                            format!("join point j{l} shadows an enclosing join point with the same label"),
                            items[1].span,
                        );
                    }
                }
                // The join's own body sees enclosing joins but not itself,
                // and its parameters hide the outer variable scope — so no
                // `known` facts survive into it.
                self.walk_expr(&items[3], &HashMap::new());
                if let Some(l) = label {
                    self.joins.push(JoinEntry {
                        label: l,
                        jumped: false,
                    });
                    self.walk_expr(&items[4], known);
                    let entry = self.joins.pop().expect("pushed above");
                    if !entry.jumped {
                        self.warn(
                            E_LINT_DEAD_JOIN,
                            format!("join point j{l} is never jumped to"),
                            items[1].span,
                        );
                    }
                } else {
                    self.walk_expr(&items[4], known);
                }
            }
            ("case", n) if n >= 3 => {
                self.mark_use(&items[1]);
                let scrutinee_tag = id_of(&items[1], 'x').and_then(|v| known.get(&v).copied());
                for arm in &items[2..] {
                    let Some(arm_items) = self.forest.list(arm) else {
                        continue;
                    };
                    if arm_items.len() != 2 {
                        continue;
                    }
                    if let (Some(always), Some(tag)) = (scrutinee_tag, tag_of(&arm_items[0])) {
                        if tag != always {
                            self.warn(
                                E_LINT_UNREACHABLE_ARM,
                                format!(
                                    "unreachable case arm: tag {tag} never matches \
                                     (scrutinee is always constructor tag {always})"
                                ),
                                arm_items[0].span,
                            );
                        }
                    }
                    self.walk_expr(&arm_items[1], known);
                }
            }
            ("jump", n) if n >= 2 => {
                if let Some(l) = id_of(&items[1], 'j') {
                    // The innermost entry owns the label; shadowed outer
                    // entries stay un-jumped.
                    if let Some(entry) = self.joins.iter_mut().rev().find(|j| j.label == l) {
                        entry.jumped = true;
                    }
                }
                for a in &items[2..] {
                    self.mark_use(a);
                }
            }
            ("ret", 2) => self.mark_use(&items[1]),
            ("inc", 4) => {
                self.mark_use(&items[1]);
                self.walk_expr(&items[3], known);
            }
            ("dec", 3) => {
                self.mark_use(&items[1]);
                self.walk_expr(&items[2], known);
            }
            _ => {}
        }
    }

    fn walk_value(&mut self, sexp: &Sexp) {
        match &sexp.kind {
            SexpKind::Atom(_) => self.mark_use(sexp),
            SexpKind::Str(_) => {}
            SexpKind::List(_) => {
                let items = self.forest.list(sexp).expect("a list");
                let Some(head) = items.first().and_then(Sexp::as_atom) else {
                    return;
                };
                match head {
                    "ctor" | "call" | "pap" => {
                        for a in items.iter().skip(2) {
                            self.mark_use(a);
                        }
                    }
                    "proj" => {
                        if let Some(v) = items.get(2) {
                            self.mark_use(v);
                        }
                    }
                    "app" => {
                        for a in items.iter().skip(1) {
                            self.mark_use(a);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The constructor tag of a `(ctor T ...)` value form, if that is what
/// `sexp` is.
fn ctor_tag(forest: &Forest, sexp: &Sexp) -> Option<u32> {
    let items = forest.list(sexp)?;
    if items.first().and_then(Sexp::as_atom) != Some("ctor") {
        return None;
    }
    tag_of(items.get(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        lint_source(src).iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_function_has_no_findings() {
        let src = "(def id (x0) (ret x0))";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn unused_parameter_is_found() {
        let src = "(def fst (x0 x1) (ret x0))";
        assert_eq!(codes(src), vec![E_LINT_UNUSED_PARAM]);
        let d = &lint_source(src)[0];
        assert!(d.message.contains("x1"), "{}", d.message);
        assert_eq!(d.notes, vec!["in function @fst"]);
    }

    #[test]
    fn dead_join_is_found() {
        let src = "(def f (x0) (join j0 (x1) (ret x1) (ret x0)))";
        assert_eq!(codes(src), vec![E_LINT_DEAD_JOIN]);
    }

    #[test]
    fn jumped_join_is_not_dead() {
        let src = "(def f (x0) (join j0 (x1) (ret x1) (jump j0 x0)))";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn jump_from_inner_join_body_counts() {
        // j0's only jump sits inside j1's body: still live.
        let src = "(def f (x0) \
                   (join j0 (x1) (ret x1) \
                   (join j1 (x2) (jump j0 x2) (jump j1 x0))))";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn unreachable_arm_is_found() {
        let src = "(def f (x0) \
                   (let x1 (ctor 1 x0) \
                   (case x1 (0 (ret x0)) (1 (ret x1)))))";
        let diags = lint_source(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LINT_UNREACHABLE_ARM);
        assert!(diags[0].message.contains("tag 0"), "{}", diags[0].message);
    }

    #[test]
    fn known_tags_do_not_cross_join_bodies() {
        // Inside j0's body x1 is out of scope anyway; the lint must not
        // carry the ctor fact into it via a same-id parameter.
        let src = "(def f (x0) \
                   (let x1 (ctor 1 x0) \
                   (join j0 (x1) (case x1 (0 (ret x1)) (else (ret x1))) \
                   (jump j0 x1))))";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn shadowed_join_label_is_found() {
        let src = "(def f (x0) \
                   (join j0 (x1) (ret x1) \
                   (join j0 (x2) (ret x2) (jump j0 x0))))";
        let diags = lint_source(src);
        // The inner j0 shadows the outer; the outer is then never jumped to
        // (the jump binds to the inner one).
        let found: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(found, vec![E_LINT_SHADOWED_BINDING, E_LINT_DEAD_JOIN]);
    }

    #[test]
    fn broken_syntax_yields_no_lints() {
        assert!(lint_source("(def f (x0) (ret x0)").is_empty());
    }
}
