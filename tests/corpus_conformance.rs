//! File-based conformance corpus.
//!
//! `tests/corpus/*.lssa` are the eight benchmark workloads as checked-in
//! text (regenerate with `cargo run --example gen_corpus`); each sibling
//! `.expected` holds the checksum `main()` must print at `Scale::Test`.
//! The tests here pin three invariants:
//!
//! 1. the corpus is exactly what the generator produces (no silent drift
//!    between the workloads, the lowering, and the formatter),
//! 2. every file parses to the *same AST* as the programmatic build and
//!    executes to its checksum under every compiler configuration and both
//!    decode modes (fused and no-fuse), compiled in parallel on the
//!    shared batch executor,
//! 3. `tests/corpus/bad/*.lssa` keep reporting byte-identical JSON
//!    diagnostics (stable codes *and* spans) — the machine-readable
//!    interface `lssa check --format json` promises to tooling.

use lambda_ssa::driver::par;
use lambda_ssa::driver::pipelines::{compile_ast_with_report, CompilerConfig};
use lambda_ssa::driver::workloads::{all, Scale};
use lambda_ssa::{lambda, syntax, vm};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const MAX_STEPS: u64 = 2_000_000_000;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// All `.lssa` files directly inside `dir`, sorted by name.
fn lssa_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("read_dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "lssa") && p.is_file())
        .collect();
    files.sort();
    files
}

fn stem(path: &Path) -> &str {
    path.file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 stem")
}

#[test]
fn corpus_matches_generator_exactly() {
    let workloads = all(Scale::Test);
    for w in &workloads {
        let path = corpus_dir().join(format!("{}.lssa", w.name));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} — regenerate with `cargo run --example gen_corpus`",
                path.display()
            )
        });
        let program = lambda::parse_program(&w.src).expect("workload parses");
        assert_eq!(
            text,
            syntax::print_program(&program),
            "{}: corpus file is stale — rerun `cargo run --example gen_corpus`",
            w.name
        );
        // The text round-trips to the exact AST the programmatic build
        // produces, id bounds included.
        assert_eq!(
            syntax::parse_program(&text).expect("corpus parses"),
            program,
            "{}: parsed corpus differs from programmatic AST",
            w.name
        );
        let expected = std::fs::read_to_string(corpus_dir().join(format!("{}.expected", w.name)))
            .expect("sibling .expected");
        assert_eq!(expected.trim_end(), w.expected_test, "{}", w.name);
    }
    // No orphan corpus files either: every .lssa maps back to a workload.
    let names: BTreeSet<&str> = workloads.iter().map(|w| w.name).collect();
    let files = lssa_files(&corpus_dir());
    assert_eq!(files.len(), workloads.len(), "corpus count");
    for f in &files {
        assert!(
            names.contains(stem(f)),
            "{}: no matching workload",
            f.display()
        );
    }
}

#[test]
fn corpus_is_canonically_formatted() {
    for path in lssa_files(&corpus_dir()) {
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let formatted = syntax::format_source(&src).expect("corpus formats");
        assert_eq!(
            formatted,
            src,
            "{}: not canonical (lssa fmt --write)",
            path.display()
        );
    }
}

#[test]
fn corpus_executes_under_every_config_and_decode_mode() {
    let files = lssa_files(&corpus_dir());
    let programs: Vec<lambda::ast::Program> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("read corpus file");
            syntax::parse_program(&src).unwrap_or_else(|d| panic!("{}: {d:?}", path.display()))
        })
        .collect();
    let expected: Vec<String> = files
        .iter()
        .map(|path| {
            std::fs::read_to_string(path.with_extension("expected"))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .trim_end()
                .to_string()
        })
        .collect();
    for config in [
        CompilerConfig::leanc(),
        CompilerConfig::mlir(),
        CompilerConfig::rgn_only(),
        CompilerConfig::none(),
    ] {
        let results = par::par_map(&programs, |p| compile_ast_with_report(p, config));
        for ((path, compiled), want) in files.iter().zip(&results).zip(&expected) {
            let (compiled, _) = compiled
                .as_ref()
                .unwrap_or_else(|e| panic!("[{}] {}: {e}", config.label(), path.display()));
            for decode in [vm::DecodeOptions::fused(), vm::DecodeOptions::no_fuse()] {
                let out = vm::run_program_with(compiled, "main", MAX_STEPS, decode)
                    .unwrap_or_else(|e| panic!("[{}] {}: {e}", config.label(), path.display()));
                assert_eq!(
                    &out.rendered,
                    want,
                    "[{}] {} (fused={})",
                    config.label(),
                    path.display(),
                    decode.fuse
                );
                assert_eq!(
                    out.stats.heap.live,
                    0,
                    "[{}] {}: leak",
                    config.label(),
                    path.display()
                );
            }
        }
    }
}

#[test]
fn bad_corpus_diagnostics_are_stable() {
    let dir = corpus_dir().join("bad");
    let files = lssa_files(&dir);
    assert!(
        files.len() >= 12,
        "bad corpus shrank: {} files",
        files.len()
    );
    let mut codes_seen: BTreeSet<&'static str> = BTreeSet::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read bad corpus file");
        let name = path
            .file_name()
            .and_then(|s| s.to_str())
            .expect("file name");
        let diags = syntax::check_source(&src);
        assert!(!diags.is_empty(), "{name}: expected diagnostics");
        codes_seen.extend(diags.iter().map(|d| d.code));
        // Goldens embed only the file *name*, so they are path-independent.
        let got = syntax::render_all(&diags, name, &src, syntax::RenderFormat::Json);
        let want = std::fs::read_to_string(path.with_extension("expected"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, want, "{name}: diagnostics drifted from the golden");
    }
    // The corpus must keep covering the syntax error class and the full
    // range of wellformedness codes it was built for.
    for code in [
        "E0003", "E0101", "E0102", "E0103", "E0104", "E0105", "E0106", "E0107", "E0108", "E0109",
        "E0110", "E0112", "E0113", "E0115",
    ] {
        assert!(
            codes_seen.contains(code),
            "bad corpus no longer covers {code}"
        );
    }
}

#[test]
fn lint_corpus_findings_are_stable() {
    // `tests/corpus/bad/lint/*.lssa` are accepted-but-suspicious programs:
    // every file passes `check` cleanly, triggers at least one `E02xx`
    // finding, and its JSON rendering is pinned byte-for-byte — the machine
    // interface `lssa lint --format json` promises to tooling. Together the
    // files cover every lint code.
    let dir = corpus_dir().join("bad/lint");
    let files = lssa_files(&dir);
    assert!(
        files.len() >= 6,
        "lint corpus shrank: {} files",
        files.len()
    );
    let mut codes_seen: BTreeSet<&'static str> = BTreeSet::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read lint corpus file");
        let name = path
            .file_name()
            .and_then(|s| s.to_str())
            .expect("file name");
        assert!(
            syntax::check_source(&src).is_empty(),
            "{name}: lint corpus files must pass `check` — only lints allowed"
        );
        let diags = lambda_ssa::driver::lint::lint_source(&src);
        assert!(!diags.is_empty(), "{name}: expected lint findings");
        codes_seen.extend(diags.iter().map(|d| d.code));
        let got = syntax::render_all(&diags, name, &src, syntax::RenderFormat::Json);
        let want = std::fs::read_to_string(path.with_extension("expected"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, want, "{name}: findings drifted from the golden");
    }
    for code in ["E0201", "E0202", "E0203", "E0204", "E0205", "E0206"] {
        assert!(
            codes_seen.contains(code),
            "lint corpus no longer covers {code}"
        );
    }
}

#[test]
fn good_corpus_is_lint_error_free() {
    // The workload corpus must keep linting without error-severity
    // findings: warnings (e.g. an unprovable RC verdict on rc-opt output)
    // are allowed, a proven RC imbalance is not.
    for path in lssa_files(&corpus_dir()) {
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let diags = lambda_ssa::driver::lint::lint_source(&src);
        assert!(
            !lambda_ssa::driver::lint::has_errors(&diags),
            "{}: {diags:?}",
            path.display()
        );
    }
}

#[test]
fn bad_corpus_agrees_with_the_ast_checker() {
    // Satellite guarantee: `lssa check` (text frontend) and `lssa run`
    // (AST checker via the pipeline) name defects identically. For every
    // bad-corpus file whose *syntax* is fine, the AST checker must report
    // the same set of codes the text frontend reported.
    let dir = corpus_dir().join("bad");
    for path in lssa_files(&dir) {
        let src = std::fs::read_to_string(&path).expect("read bad corpus file");
        let outcome = syntax::parse_source(&src);
        let Some(program) = outcome.program else {
            continue; // syntactically broken: the AST checker never sees it
        };
        let mut text_codes: BTreeSet<&'static str> =
            outcome.diagnostics.iter().map(|d| d.code).collect();
        // One deliberate refinement: where the AST checker reports a join
        // capture twice (E0101 out-of-scope *and* E0105 capture), the text
        // frontend classifies it as the single more precise E0105.
        if text_codes.contains("E0105") {
            text_codes.insert("E0101");
        }
        let ast_codes: BTreeSet<&'static str> = match lambda::check_program(&program) {
            Ok(()) => BTreeSet::new(),
            Err(errs) => errs.iter().map(|e| e.code).collect(),
        };
        assert!(
            ast_codes.is_subset(&text_codes),
            "{}: AST checker found {ast_codes:?}, text frontend {text_codes:?}",
            path.display()
        );
    }
}
