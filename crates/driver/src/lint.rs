//! The `lssa lint` engine: IR-level findings over `.lssa` sources.
//!
//! Lint is `check`'s hygiene-minded sibling. Where `check` rejects programs
//! (syntax + wellformedness, `E00xx`/`E01xx` errors), `lint` accepts them
//! and reports what is *suspicious* (`E02xx`), in the same two renderings:
//!
//! 1. the source-level lints from [`lssa_syntax::lint`] (dead join points,
//!    unused parameters, unreachable case arms, shadowed join labels), and
//! 2. the RC-linearity verdicts from the `lssa-ir` analysis framework
//!    ([`lssa_ir::analysis::rc_check`]), obtained by compiling the program
//!    through the full MLIR-style pipeline and checking every function:
//!    a proven inc/dec imbalance is `error[E0201]` (with the offending
//!    block path as a note), an unprovable one is `warning[E0202]`.
//!
//! λrc sources (programs that already contain `inc`/`dec`) are compiled
//! as-is, so the checker audits the *author's* annotations; pure sources
//! get the compiler's own `insert_rc` pass first, so their verdicts audit
//! the compiler. IR-level findings are anchored to the `def` name's source
//! span.
//!
//! On sources that fail `check`, lint reports those errors and stops —
//! hygiene findings over a rejected program would be noise.

use lssa_core::pipeline::PipelineOptions;
use lssa_ir::analysis::rc_check;
use lssa_ir::analysis::RcVerdict;
use lssa_syntax::diag::{E_LINT_RC_UNBALANCED, E_LINT_RC_UNPROVABLE};
use lssa_syntax::sexp::Sexp;
use lssa_syntax::{Diagnostic, Severity, Span};
use std::collections::HashMap;

/// Lints one `.lssa` source, returning every diagnostic: `check` errors if
/// the program is rejected, `E02xx` findings otherwise. A finding with
/// [`Severity::Error`] (including re-reported check errors) means the lint
/// run should fail; warnings alone should not.
pub fn lint_source(src: &str) -> Vec<Diagnostic> {
    let outcome = lssa_syntax::parse_source(src);
    if !outcome.diagnostics.is_empty() {
        return outcome.diagnostics;
    }
    let program = outcome
        .program
        .expect("clean parse always yields a program");
    let mut diags = lssa_syntax::lint_source(src);
    let rc = if program.fns.iter().any(|f| f.arena.has_rc_ops()) {
        program
    } else {
        lssa_lambda::insert_rc(&program)
    };
    let module = lssa_core::pipeline::compile(&rc, PipelineOptions::full());
    let spans = def_name_spans(src);
    for (sym, verdict) in rc_check::check_module(&module) {
        let name = module.name_of(sym);
        let span = spans.get(name).copied();
        match verdict {
            RcVerdict::Balanced => {}
            RcVerdict::Unbalanced { detail, path } => {
                let path: Vec<String> = path.iter().map(|b| format!("{b}")).collect();
                diags.push(
                    at(
                        E_LINT_RC_UNBALANCED,
                        Severity::Error,
                        format!("rc-linearity violated in @{name}: {detail}"),
                        span,
                    )
                    .with_note(format!("path: {}", path.join(" -> ")))
                    .with_note(format!("in function @{name}")),
                );
            }
            RcVerdict::Unprovable { reason } => {
                diags.push(
                    at(
                        E_LINT_RC_UNPROVABLE,
                        Severity::Warning,
                        format!("rc-linearity unprovable for @{name}: {reason}"),
                        span,
                    )
                    .with_note(format!("in function @{name}")),
                );
            }
        }
    }
    diags
}

/// Whether any diagnostic in `diags` should fail the lint run.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn at(code: &'static str, severity: Severity, message: String, span: Option<Span>) -> Diagnostic {
    let mut d = match span {
        Some(span) => Diagnostic::new(code, message, span),
        None => Diagnostic::spanless(code, message),
    };
    d.severity = severity;
    d
}

/// Maps each `def`'s name to the span of its name atom, so IR-level
/// findings (which only know function symbols) anchor to source.
fn def_name_spans(src: &str) -> HashMap<String, Span> {
    let (forest, _) = lssa_syntax::sexp::read(src);
    let mut spans = HashMap::new();
    for top in forest.top() {
        let Some(items) = forest.list(top) else {
            continue;
        };
        if items.first().and_then(Sexp::as_atom) != Some("def") || items.len() < 2 {
            continue;
        }
        if let Some(name) = items[1].as_atom() {
            spans.entry(name.to_string()).or_insert(items[1].span);
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pure_source_has_no_findings() {
        let diags = lint_source("(def main () (let x0 42 (ret x0)))");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn author_leak_is_an_unbalanced_error() {
        // λrc input: the author retains x0 once too often.
        let diags = lint_source("(def leak (x0) (inc x0 1 (ret x0)))");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, E_LINT_RC_UNBALANCED);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("@leak"), "{}", diags[0].message);
        assert!(diags[0].span.is_some(), "anchored to the def name");
        assert!(has_errors(&diags));
    }

    #[test]
    fn alias_release_is_an_unprovable_warning() {
        // Releasing a projection: validity depends on the aliased object.
        let diags = lint_source("(def f (x0) (let x1 (proj 0 x0) (dec x1 (ret x0))))");
        assert!(
            diags.iter().any(|d| d.code == E_LINT_RC_UNPROVABLE),
            "{diags:?}"
        );
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn check_errors_preempt_lints() {
        // Out-of-scope use: `check` errors come back verbatim, no lints.
        let diags = lint_source("(def f (x0) (ret x1))");
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code.starts_with("E01")), "{diags:?}");
        assert!(has_errors(&diags));
    }
}
