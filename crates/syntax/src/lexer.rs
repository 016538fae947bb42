//! The `.lssa` lexer: S-expression tokens, every one carrying its byte span.
//!
//! Token classes are deliberately small — parentheses, atoms, and string
//! literals. `;` starts a comment running to end of line. Atoms are maximal
//! runs of characters that are not whitespace, parentheses, quotes, or `;`;
//! the parser decides whether an atom is a variable (`x12`), a join label
//! (`j3`), an integer, a keyword (`def`, `let`, …), or a function name.

use crate::diag::{Diagnostic, E_LEX_CHAR, E_LEX_STRING};
use crate::span::Span;
use std::borrow::Cow;

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// A bare atom (identifier, number, keyword), borrowed from the source.
    Atom(&'a str),
    /// A string literal, with escapes already decoded. Only a literal that
    /// has escapes owns its text.
    Str(Cow<'a, str>),
}

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token's class and payload.
    pub kind: TokenKind<'a>,
    /// Byte range in the source.
    pub span: Span,
}

/// Splits `src` into tokens. Lexical errors are collected (and the offending
/// bytes skipped) so one bad character does not hide later diagnostics.
pub fn lex(src: &str) -> (Vec<Token<'_>>, Vec<Diagnostic>) {
    let mut lexer = Lexer::new(src);
    let tokens = lexer.by_ref().collect();
    (tokens, lexer.diags)
}

/// The lexer as an iterator over the tokens of one source: the reader
/// pulls tokens one at a time, so no token list is built.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Lexical errors met so far, in source order.
    pub diags: Vec<Diagnostic>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            diags: Vec::new(),
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let src = self.src;
        let bytes = src.as_bytes();
        while self.pos < bytes.len() {
            let i = self.pos;
            match bytes[i] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b';' => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' | b')' => {
                    self.pos += 1;
                    let kind = if bytes[i] == b'(' {
                        TokenKind::LParen
                    } else {
                        TokenKind::RParen
                    };
                    return Some(Token {
                        kind,
                        span: Span::new(i as u32, i as u32 + 1),
                    });
                }
                b'"' => {
                    let (len, result) = lex_string(&src[i..], i as u32);
                    self.pos += len;
                    match result {
                        Ok(token) => return Some(token),
                        Err(d) => self.diags.push(d),
                    }
                }
                b if is_atom_byte(b) => {
                    while self.pos < bytes.len() && is_atom_byte(bytes[self.pos]) {
                        self.pos += 1;
                    }
                    return Some(Token {
                        kind: TokenKind::Atom(&src[i..self.pos]),
                        span: Span::new(i as u32, self.pos as u32),
                    });
                }
                _ => {
                    // A control byte or other character no token can start
                    // with. Skip the whole (possibly multi-byte) character.
                    let c = src[i..].chars().next().expect("in-bounds char");
                    self.diags.push(Diagnostic::new(
                        E_LEX_CHAR,
                        format!("unexpected character {:?}", c),
                        Span::new(i as u32, (i + c.len_utf8()) as u32),
                    ));
                    self.pos += c.len_utf8();
                }
            }
        }
        None
    }
}

/// Whether `b` can appear inside a bare atom.
fn is_atom_byte(b: u8) -> bool {
    !matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')' | b'"' | b';')
        && (0x21..0x7f).contains(&b)
}

/// Lexes one string literal starting at `src[0] == '"'`. Returns the number
/// of bytes consumed and the token or a diagnostic.
///
/// On a bad escape the first error is recorded but scanning continues to the
/// closing quote, so the rest of the input still lexes token-aligned.
fn lex_string(src: &str, base: u32) -> (usize, Result<Token<'_>, Diagnostic>) {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[0], b'"');
    // The decoded text is built only once an escape shows up; until then it
    // is the source between the quotes.
    let mut out: Option<String> = None;
    let mut err: Option<Diagnostic> = None;
    let mut i = 1usize;
    loop {
        let Some(&b) = bytes.get(i) else {
            let unterminated = Diagnostic::new(
                E_LEX_STRING,
                "unterminated string literal".to_string(),
                Span::new(base, base + i as u32),
            );
            return (i, Err(err.unwrap_or(unterminated)));
        };
        match b {
            b'"' => {
                i += 1;
                return (
                    i,
                    match err {
                        Some(e) => Err(e),
                        None => Ok(Token {
                            kind: TokenKind::Str(match out {
                                Some(text) => Cow::Owned(text),
                                None => Cow::Borrowed(&src[1..i - 1]),
                            }),
                            span: Span::new(base, base + i as u32),
                        }),
                    },
                );
            }
            b'\\' => {
                let escape_start = i;
                let out = out.get_or_insert_with(|| src[1..i].to_string());
                i += 1;
                match bytes.get(i).copied() {
                    Some(b'"') => {
                        out.push('"');
                        i += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        i += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        i += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        i += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        i += 1;
                    }
                    Some(b'u') => {
                        // \u{HEX}
                        i += 1;
                        let ok = bytes.get(i) == Some(&b'{');
                        let close = src[i..].find('}').map(|off| i + off);
                        match (ok, close) {
                            (true, Some(close)) => {
                                let hex = &src[i + 1..close];
                                match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
                                    Some(c) => {
                                        out.push(c);
                                        i = close + 1;
                                    }
                                    None => {
                                        err.get_or_insert_with(|| {
                                            Diagnostic::new(
                                                E_LEX_STRING,
                                                format!("invalid unicode escape \\u{{{hex}}}"),
                                                Span::new(
                                                    base + escape_start as u32,
                                                    base + close as u32 + 1,
                                                ),
                                            )
                                        });
                                        i = close + 1;
                                    }
                                }
                            }
                            _ => {
                                err.get_or_insert_with(|| {
                                    Diagnostic::new(
                                        E_LEX_STRING,
                                        "malformed \\u{...} escape".to_string(),
                                        Span::new(base + escape_start as u32, base + i as u32),
                                    )
                                });
                            }
                        }
                    }
                    other => {
                        let len = other.map(|_| 2).unwrap_or(1);
                        err.get_or_insert_with(|| {
                            Diagnostic::new(
                                E_LEX_STRING,
                                "invalid escape sequence".to_string(),
                                Span::new(
                                    base + escape_start as u32,
                                    base + (escape_start + len) as u32,
                                ),
                            )
                        });
                        if other.is_some() {
                            i += 1;
                        }
                    }
                }
            }
            _ => {
                let c = src[i..].chars().next().expect("in-bounds char");
                if let Some(out) = &mut out {
                    out.push(c);
                }
                i += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (tokens, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokens_and_spans() {
        let (tokens, diags) = lex("(ret x0) ; trailing comment\n42");
        assert!(diags.is_empty());
        assert_eq!(tokens.len(), 5);
        assert_eq!(tokens[0].kind, TokenKind::LParen);
        assert_eq!(tokens[1].kind, TokenKind::Atom("ret"));
        assert_eq!(tokens[1].span, Span::new(1, 4));
        assert_eq!(tokens[2].kind, TokenKind::Atom("x0"));
        assert_eq!(tokens[3].kind, TokenKind::RParen);
        assert_eq!(tokens[4].kind, TokenKind::Atom("42"));
        assert_eq!(tokens[4].span, Span::new(28, 30));
    }

    #[test]
    fn strings_decode_escapes() {
        assert_eq!(
            kinds(r#""a\nb\t\"\\\u{3b1}""#),
            vec![TokenKind::Str("a\nb\t\"\\α".into())]
        );
        // Only a literal with escapes owns its text.
        let tokens = kinds(r#""plain" "a\"""#);
        assert!(matches!(&tokens[0], TokenKind::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&tokens[1], TokenKind::Str(Cow::Owned(s)) if s == "a\""));
        assert!(matches!(kinds("abc")[0], TokenKind::Atom("abc")));
    }

    #[test]
    fn unterminated_string_reported() {
        let (_, diags) = lex("\"abc");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_STRING);
        assert_eq!(diags[0].span, Some(Span::new(0, 4)));
    }

    #[test]
    fn bad_escape_reported() {
        let (_, diags) = lex(r#""a\q""#);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_STRING);
    }

    #[test]
    fn stray_control_character_reported_and_skipped() {
        let (tokens, diags) = lex("(ret \u{1} x0)");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_CHAR);
        assert_eq!(tokens.len(), 4, "lexing continues after the bad byte");
    }

    #[test]
    fn negative_numbers_and_rich_atoms() {
        assert_eq!(
            kinds("-42 lean_nat_add else"),
            vec![
                TokenKind::Atom("-42"),
                TokenKind::Atom("lean_nat_add"),
                TokenKind::Atom("else"),
            ]
        );
    }
}
