//! The S-expression reader: tokens → spanned trees.
//!
//! This is the only place parenthesis structure is interpreted; everything
//! above ([`crate::parse`]) works on [`Sexp`] trees and never sees tokens.

use crate::diag::{Diagnostic, E_UNBALANCED};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::Span;

/// A spanned S-expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sexp {
    /// Payload.
    pub kind: SexpKind,
    /// Byte range covering the node including its parentheses.
    pub span: Span,
}

/// The node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexpKind {
    /// A bare atom.
    Atom(String),
    /// A string literal (escapes decoded).
    Str(String),
    /// `( ... )`
    List(Vec<Sexp>),
}

impl Sexp {
    /// The atom text, if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match &self.kind {
            SexpKind::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The list items, if this is a list.
    pub fn as_list(&self) -> Option<&[Sexp]> {
        match &self.kind {
            SexpKind::List(items) => Some(items),
            _ => None,
        }
    }

    /// Short description for diagnostics ("atom `foo`", "string", "list").
    pub fn describe(&self) -> String {
        match &self.kind {
            SexpKind::Atom(s) => format!("atom `{s}`"),
            SexpKind::Str(_) => "string literal".to_string(),
            SexpKind::List(_) => "list".to_string(),
        }
    }
}

/// Reads all top-level S-expressions in `src`.
///
/// Always returns the forest that could be recovered; lexical and structural
/// errors are reported in the diagnostic list (empty = clean parse).
pub fn read(src: &str) -> (Vec<Sexp>, Vec<Diagnostic>) {
    let (tokens, mut diags) = lex(src);
    let mut reader = Reader {
        tokens: tokens.into_iter().peekable(),
        diags: &mut diags,
    };
    let mut top = Vec::new();
    while reader.tokens.peek().is_some() {
        match reader.read_one() {
            Some(sexp) => top.push(sexp),
            None => break,
        }
    }
    (top, diags)
}

struct Reader<'a> {
    /// The lexed tokens, consumed front to back: each atom's text moves
    /// into its tree node instead of being copied.
    tokens: std::iter::Peekable<std::vec::IntoIter<Token>>,
    diags: &'a mut Vec<Diagnostic>,
}

impl Reader<'_> {
    /// Reads the next S-expression, or `None` at end of input.
    fn read_one(&mut self) -> Option<Sexp> {
        let token = self.tokens.next()?;
        match token.kind {
            TokenKind::Atom(s) => Some(Sexp {
                kind: SexpKind::Atom(s),
                span: token.span,
            }),
            TokenKind::Str(s) => Some(Sexp {
                kind: SexpKind::Str(s),
                span: token.span,
            }),
            TokenKind::LParen => {
                let mut items = Vec::new();
                loop {
                    match self.tokens.peek() {
                        Some(t) if t.kind == TokenKind::RParen => {
                            let close = t.span;
                            self.tokens.next();
                            return Some(Sexp {
                                kind: SexpKind::List(items),
                                span: token.span.to(close),
                            });
                        }
                        Some(_) => {
                            if let Some(item) = self.read_one() {
                                items.push(item);
                            }
                        }
                        None => {
                            self.diags.push(
                                Diagnostic::new(
                                    E_UNBALANCED,
                                    "unclosed `(`".to_string(),
                                    token.span,
                                )
                                .with_note("expected a matching `)` before end of input"),
                            );
                            let span = items
                                .last()
                                .map(|s: &Sexp| token.span.to(s.span))
                                .unwrap_or(token.span);
                            return Some(Sexp {
                                kind: SexpKind::List(items),
                                span,
                            });
                        }
                    }
                }
            }
            TokenKind::RParen => {
                self.diags.push(Diagnostic::new(
                    E_UNBALANCED,
                    "unmatched `)`".to_string(),
                    token.span,
                ));
                // Skip it and keep reading so later errors still surface.
                self.read_one()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(src: &str) -> Vec<Sexp> {
        let (forest, diags) = read(src);
        assert!(diags.is_empty(), "{diags:?}");
        forest
    }

    #[test]
    fn reads_nested_lists_with_spans() {
        let forest = clean("(a (b c) \"s\")");
        assert_eq!(forest.len(), 1);
        let items = forest[0].as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_atom(), Some("a"));
        assert_eq!(items[1].span, Span::new(3, 8));
        assert_eq!(forest[0].span, Span::new(0, 13));
    }

    #[test]
    fn unclosed_paren_reported_with_span_of_opener() {
        let (forest, diags) = read("(a (b");
        assert_eq!(diags.len(), 2, "both unclosed lists report");
        assert!(diags.iter().all(|d| d.code == E_UNBALANCED));
        assert_eq!(forest.len(), 1, "partial tree still recovered");
    }

    #[test]
    fn unmatched_close_paren_reported() {
        let (forest, diags) = read(") (a)");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_UNBALANCED);
        assert_eq!(diags[0].span, Some(Span::new(0, 1)));
        assert_eq!(forest.len(), 1, "reading continues past the stray paren");
    }

    #[test]
    fn describe_names_node_kinds() {
        let forest = clean("x (y) \"z\"");
        assert_eq!(forest[0].describe(), "atom `x`");
        assert_eq!(forest[1].describe(), "list");
        assert_eq!(forest[2].describe(), "string literal");
    }
}
