//! `lssa-syntax`: the `.lssa` text frontend for λpure/λrc programs.
//!
//! The in-memory [`lssa_lambda::ast`] IR finally gets a surface: a small
//! S-expression syntax with
//!
//! - a lexer that attaches a byte [`span::Span`] to every token,
//! - an S-expression reader with parenthesis-error recovery
//!   ([`sexp::read`]),
//! - a recursive-descent lowering to the existing AST that doubles as a
//!   wellformedness checker with *spans* ([`parse::parse_source`]) — its
//!   `E01xx` codes are shared verbatim with the span-free AST checker in
//!   [`lssa_lambda::wellformed`], so `lssa check file.lssa` and
//!   `lssa run file.lssa` name defects identically,
//! - a canonical, idempotent formatter ([`printer::print_program`]) with the
//!   round-trip guarantee `parse(print(p)) == p` (including the
//!   `next_var`/`next_join` id bounds), and
//! - a [`diag::Diagnostic`] type rendered either human-readable
//!   (`file:line:col: error[E0101]: …`) or as JSON lines for tooling.
//!
//! ```
//! let src = "(def main () (let x0 42 (ret x0)))";
//! let program = lssa_syntax::parse_program(src).unwrap();
//! assert_eq!(program.fns[0].name, "main");
//! let printed = lssa_syntax::print_program(&program);
//! assert_eq!(lssa_syntax::parse_program(&printed).unwrap(), program);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod lint;
pub mod parse;
pub mod printer;
pub mod sexp;
pub mod span;

pub use diag::{escape_json, render_all, Diagnostic, RenderFormat, Severity};
pub use lint::lint_source;
pub use parse::{check_source, parse_program, parse_source, ParseOutcome};
pub use printer::{format_source, print_fn_def, print_program};
pub use span::{LineIndex, Span};
