//! The S-expression reader: tokens → spanned trees.
//!
//! This is the only place parenthesis structure is interpreted; everything
//! above ([`crate::parse`]) works on [`Sexp`] trees and never sees tokens.
//!
//! A [`Forest`] keeps every node in one arena, the items of each list side
//! by side, and atoms borrow the source text: reading a file makes a
//! handful of allocations however many forms it holds. The reader keeps an
//! explicit stack, so no input nests it deeper than its own loop; lists
//! deeper than [`MAX_DEPTH`] are refused with `E0006`, which bounds the
//! recursion of every layer behind it.

use crate::diag::{Diagnostic, E_TOO_DEEP, E_UNBALANCED};
use crate::lexer::{Lexer, TokenKind};
use crate::span::Span;
use std::borrow::Cow;

pub use lssa_lambda::MAX_DEPTH;

/// A spanned S-expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sexp<'a> {
    /// Payload.
    pub kind: SexpKind<'a>,
    /// Byte range covering the node including its parentheses.
    pub span: Span,
}

/// The node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexpKind<'a> {
    /// A bare atom, borrowed from the source.
    Atom(&'a str),
    /// A string literal (escapes decoded).
    Str(Cow<'a, str>),
    /// `( ... )`: its items, read through [`Forest::list`].
    List(Items),
}

/// Where a list's items sit in its [`Forest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Items {
    start: u32,
    len: u32,
}

impl Sexp<'_> {
    /// The atom text, if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match &self.kind {
            SexpKind::Atom(s) => Some(s),
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

/// Every S-expression read from one source.
#[derive(Debug, Clone, Default)]
pub struct Forest<'a> {
    /// All nodes; each list's items are contiguous.
    nodes: Vec<Sexp<'a>>,
    /// The top-level nodes.
    top: Items,
}

impl<'a> Forest<'a> {
    /// Number of nodes, at every depth.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The top-level S-expressions, in source order.
    pub fn top(&self) -> &[Sexp<'a>] {
        self.items(self.top)
    }

    /// The items of `sexp`, if it is a list.
    pub fn list(&self, sexp: &Sexp<'a>) -> Option<&[Sexp<'a>]> {
        match sexp.kind {
            SexpKind::List(items) => Some(self.items(items)),
            _ => None,
        }
    }

    fn items(&self, items: Items) -> &[Sexp<'a>] {
        let start = items.start as usize;
        &self.nodes[start..start + items.len as usize]
    }
}

/// Reads all top-level S-expressions in `src`.
///
/// Always returns the forest that could be recovered; lexical and structural
/// errors are reported in the diagnostic list (empty = clean parse). Lexical
/// errors come first, then structural ones. Input nested deeper than
/// [`MAX_DEPTH`] stops the reader: the diagnostics end with one `E0006` and
/// the forest is empty.
pub fn read(src: &str) -> (Forest<'_>, Vec<Diagnostic>) {
    let mut lexer = Lexer::new(src);
    let mut structural = Vec::new();
    // Sized for printed programs, which spend about four bytes a node (an
    // id, a space, a parenthesis): the buffers rarely grow.
    let mut nodes: Vec<Sexp> = Vec::with_capacity(src.len() / 4);
    // Finished items whose list is still open, innermost list's last.
    let mut pending: Vec<Sexp> = Vec::with_capacity(src.len() / 16);
    // Open lists: the `(` span and where the list's items start in
    // `pending`.
    let mut open: Vec<(Span, usize)> = Vec::with_capacity(src.len() / 32);
    while let Some(token) = lexer.next() {
        let span = token.span;
        match token.kind {
            TokenKind::Atom(s) => pending.push(Sexp {
                kind: SexpKind::Atom(s),
                span,
            }),
            TokenKind::Str(s) => pending.push(Sexp {
                kind: SexpKind::Str(s),
                span,
            }),
            TokenKind::LParen if open.len() == MAX_DEPTH => {
                let mut diags = lexer.diags;
                diags.extend(structural);
                diags.push(
                    Diagnostic::new(
                        E_TOO_DEEP,
                        format!("lists nest deeper than {MAX_DEPTH} levels"),
                        span,
                    )
                    .with_note("the reader stops here; split the function into smaller ones"),
                );
                return (Forest::default(), diags);
            }
            TokenKind::LParen => open.push((span, pending.len())),
            TokenKind::RParen => match open.pop() {
                Some((open_span, start)) => {
                    let list = close(&mut nodes, &mut pending, start, open_span.to(span));
                    pending.push(list);
                }
                None => {
                    // Skip it and keep reading so later errors still surface.
                    structural.push(Diagnostic::new(
                        E_UNBALANCED,
                        "unmatched `)`".to_string(),
                        span,
                    ));
                }
            },
        }
    }
    // Lists still open at the end of input, innermost first.
    while let Some((open_span, start)) = open.pop() {
        structural.push(
            Diagnostic::new(E_UNBALANCED, "unclosed `(`".to_string(), open_span)
                .with_note("expected a matching `)` before end of input"),
        );
        let span = pending[start..]
            .last()
            .map(|s| open_span.to(s.span))
            .unwrap_or(open_span);
        let list = close(&mut nodes, &mut pending, start, span);
        pending.push(list);
    }
    let top = Items {
        start: nodes.len() as u32,
        len: pending.len() as u32,
    };
    nodes.append(&mut pending);
    let mut diags = lexer.diags;
    diags.extend(structural);
    (Forest { nodes, top }, diags)
}

/// Moves the items from `start` on out of `pending` into the arena and
/// returns the list node holding them.
fn close<'a>(
    nodes: &mut Vec<Sexp<'a>>,
    pending: &mut Vec<Sexp<'a>>,
    start: usize,
    span: Span,
) -> Sexp<'a> {
    let items = Items {
        start: nodes.len() as u32,
        len: (pending.len() - start) as u32,
    };
    nodes.extend(pending.drain(start..));
    Sexp {
        kind: SexpKind::List(items),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(src: &str) -> Forest<'_> {
        let (forest, diags) = read(src);
        assert!(diags.is_empty(), "{diags:?}");
        forest
    }

    #[test]
    fn reads_nested_lists_with_spans() {
        let forest = clean("(a (b c) \"s\")");
        assert_eq!(forest.top().len(), 1);
        let items = forest.list(&forest.top()[0]).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_atom(), Some("a"));
        assert_eq!(items[1].span, Span::new(3, 8));
        let inner = forest.list(&items[1]).unwrap();
        assert_eq!(inner[1].as_atom(), Some("c"));
        assert_eq!(forest.top()[0].span, Span::new(0, 13));
    }

    #[test]
    fn unclosed_paren_reported_with_span_of_opener() {
        let (forest, diags) = read("(a (b");
        assert_eq!(diags.len(), 2, "both unclosed lists report");
        assert!(diags.iter().all(|d| d.code == E_UNBALANCED));
        assert_eq!(diags[0].span, Some(Span::new(3, 4)), "innermost first");
        assert_eq!(forest.top().len(), 1, "partial tree still recovered");
    }

    #[test]
    fn unmatched_close_paren_reported() {
        let (forest, diags) = read(") (a)");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_UNBALANCED);
        assert_eq!(diags[0].span, Some(Span::new(0, 1)));
        assert_eq!(
            forest.top().len(),
            1,
            "reading continues past the stray paren"
        );
    }

    #[test]
    fn describe_names_node_kinds() {
        let forest = clean("x (y) \"z\"");
        assert_eq!(forest.top()[0].describe(), "atom `x`");
        assert_eq!(forest.top()[1].describe(), "list");
        assert_eq!(forest.top()[2].describe(), "string literal");
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        clean(&at_limit);
        let past = format!("{}{}", "(".repeat(MAX_DEPTH + 1), ")".repeat(MAX_DEPTH + 1));
        let (forest, diags) = read(&past);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, E_TOO_DEEP);
        assert_eq!(
            diags[0].span,
            Some(Span::new(MAX_DEPTH as u32, MAX_DEPTH as u32 + 1))
        );
        assert!(forest.top().is_empty());
    }
}
