//! Structured diagnostics: stable codes, spans, notes, and two renderings —
//! human-readable lines and machine-readable JSON lines.
//!
//! Codes are stable across releases so tooling (and the `tests/corpus/bad`
//! goldens) can match on them:
//!
//! - `E00xx` — lexical / syntactic errors produced by the `.lssa` reader,
//! - `E01xx` — wellformedness violations, shared verbatim with the AST-level
//!   checker in [`lssa_lambda::wellformed`] (see its `codes` module), so
//!   `lssa check` and `lssa run` report identical codes for the same defect,
//! - `E02xx` — IR-level lint findings produced by `lssa lint` (RC-linearity
//!   verdicts from the `lssa-ir` analysis framework plus source-level
//!   hygiene checks). Unlike the other families these are mostly
//!   [`Severity::Warning`]: the program runs, but something is off.

use crate::span::{LineIndex, Span};
use std::fmt;

/// Lint: the RC-linearity checker proved an inc/dec imbalance — some path
/// leaks or double-releases a reference.
pub const E_LINT_RC_UNBALANCED: &str = "E0201";
/// Lint: the RC-linearity checker could not prove balance (aliasing or a
/// reference that escaped into a container) — reported, not asserted.
pub const E_LINT_RC_UNPROVABLE: &str = "E0202";
/// Lint: a join point is never jumped to.
pub const E_LINT_DEAD_JOIN: &str = "E0203";
/// Lint: a function parameter is never referenced.
pub const E_LINT_UNUSED_PARAM: &str = "E0204";
/// Lint: a `case` arm repeats an already-handled constructor tag.
pub const E_LINT_UNREACHABLE_ARM: &str = "E0205";
/// Lint: a `let`/`jp` rebinds a name already in scope, shadowing it.
pub const E_LINT_SHADOWED_BINDING: &str = "E0206";

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The input is rejected (or, for `E0201`, provably broken).
    Error,
    /// The input is accepted but suspicious; `lssa lint` reports it without
    /// failing the run.
    Warning,
}

impl Severity {
    /// The lowercase keyword used in both renderings.
    pub fn word(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Lexical error: a character that cannot start any token.
pub const E_LEX_CHAR: &str = "E0001";
/// Lexical error: unterminated string literal or invalid escape.
pub const E_LEX_STRING: &str = "E0002";
/// Syntactic error: unbalanced parentheses / unexpected token.
pub const E_UNBALANCED: &str = "E0003";
/// Structural error: malformed special form (wrong head or shape).
pub const E_BAD_FORM: &str = "E0004";
/// Structural error: malformed literal, variable, or label token (including
/// an `x`/`j` id at or above [`lssa_lambda::dense::MAX_ID`]).
pub const E_BAD_TOKEN: &str = "E0005";
/// Structural error: lists nested deeper than [`crate::sexp::MAX_DEPTH`].
pub const E_TOO_DEEP: &str = "E0006";

/// One reported defect: a stable code, a message, an optional source span,
/// and optional follow-up notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-matchable code (`E0xxx`).
    pub code: &'static str,
    /// Error or warning (warnings come from `lssa lint`).
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Where in the source the defect sits, when known.
    pub span: Option<Span>,
    /// Additional context lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error diagnostic with a span.
    pub fn new(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: Some(span),
            notes: Vec::new(),
        }
    }

    /// An error diagnostic without location information.
    pub fn spanless(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// A warning diagnostic with a span.
    pub fn warning(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(code, message, span)
        }
    }

    /// Adds a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders `file:line:col: error[CODE]: message` plus indented notes.
    pub fn render_human(&self, file: &str, index: &LineIndex) -> String {
        use fmt::Write;
        let mut out = String::new();
        match self.span {
            Some(span) => {
                let (line, col) = index.line_col(span.start);
                let _ = write!(out, "{file}:{line}:{col}: ");
            }
            None => {
                let _ = write!(out, "{file}: ");
            }
        }
        let _ = write!(
            out,
            "{}[{}]: {}",
            self.severity.word(),
            self.code,
            self.message
        );
        for note in &self.notes {
            let _ = write!(out, "\n  note: {note}");
        }
        out
    }

    /// Renders one JSON object (a single line, no trailing newline):
    ///
    /// ```json
    /// {"code":"E0101","severity":"error","message":"...","file":"f.lssa",
    ///  "span":{"start":9,"end":11,"line":2,"col":3},"notes":[]}
    /// ```
    ///
    /// `span` is `null` when the location is unknown.
    pub fn render_json(&self, file: &str, index: &LineIndex) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"file\":\"{}\",\"span\":",
            self.code,
            self.severity.word(),
            escape_json(&self.message),
            escape_json(file)
        );
        match self.span {
            Some(span) => {
                let (line, col) = index.line_col(span.start);
                let _ = write!(
                    out,
                    "{{\"start\":{},\"end\":{},\"line\":{line},\"col\":{col}}}",
                    span.start, span.end
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape_json(note));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.word(),
            self.code,
            self.message
        )
    }
}

/// Renders every diagnostic in `format`, one per line.
pub fn render_all(diags: &[Diagnostic], file: &str, src: &str, format: RenderFormat) -> String {
    let index = LineIndex::new(src);
    let mut out = String::new();
    for d in diags {
        let rendered = match format {
            RenderFormat::Human => d.render_human(file, &index),
            RenderFormat::Json => d.render_json(file, &index),
        };
        out.push_str(&rendered);
        out.push('\n');
    }
    out
}

/// Output style for [`render_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderFormat {
    /// `file:line:col: error[CODE]: message` (+ notes).
    Human,
    /// One JSON object per line.
    Json,
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes,
/// `\n`/`\t`/`\r`, and every other control character as `\u00xx`. The
/// one escaper behind every hand-written JSON emitter in the workspace
/// (diagnostics here, job reports and bench records in `lssa-driver`).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_includes_location_and_notes() {
        let src = "hello\nworld";
        let idx = LineIndex::new(src);
        let d = Diagnostic::new(E_BAD_FORM, "broken", Span::new(6, 11)).with_note("context");
        assert_eq!(
            d.render_human("f.lssa", &idx),
            "f.lssa:2:1: error[E0004]: broken\n  note: context"
        );
        let d = Diagnostic::spanless(E_BAD_FORM, "broken");
        assert_eq!(
            d.render_human("f.lssa", &idx),
            "f.lssa: error[E0004]: broken"
        );
    }

    #[test]
    fn json_rendering_escapes_and_locates() {
        let src = "ab\ncd";
        let idx = LineIndex::new(src);
        let d = Diagnostic::new(E_BAD_TOKEN, "bad \"tok\"\n", Span::new(3, 5)).with_note("n1");
        let json = d.render_json("a\\b.lssa", &idx);
        assert_eq!(
            json,
            "{\"code\":\"E0005\",\"severity\":\"error\",\"message\":\"bad \\\"tok\\\"\\n\",\
             \"file\":\"a\\\\b.lssa\",\
             \"span\":{\"start\":3,\"end\":5,\"line\":2,\"col\":1},\"notes\":[\"n1\"]}"
        );
        let d = Diagnostic::spanless(E_BAD_TOKEN, "x");
        assert!(d.render_json("f", &idx).contains("\"span\":null"));
    }

    #[test]
    fn warnings_render_with_their_severity() {
        let idx = LineIndex::new("xy");
        let d = Diagnostic::warning(E_LINT_UNUSED_PARAM, "unused parameter x", Span::new(0, 1));
        assert_eq!(
            d.render_human("f.lssa", &idx),
            "f.lssa:1:1: warning[E0204]: unused parameter x"
        );
        assert_eq!(d.to_string(), "warning[E0204]: unused parameter x");
        assert!(d
            .render_json("f.lssa", &idx)
            .contains("\"severity\":\"warning\""));
    }

    #[test]
    fn render_all_is_line_oriented() {
        let diags = vec![
            Diagnostic::spanless(E_BAD_FORM, "one"),
            Diagnostic::spanless(E_BAD_TOKEN, "two"),
        ];
        let text = render_all(&diags, "f", "", RenderFormat::Json);
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
