//! Smoke tests for the `lssa` command-line driver.

use std::io::Write;
use std::process::Command;

fn lssa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lssa"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lssa-cli-{name}-{}.fl", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const PROGRAM: &str = r#"
inductive List := Nil | Cons(h, t)
def len(xs) := case xs of | Nil => 0 | Cons(h, t) => 1 + len(t) end
def main() := len(Cons(1, Cons(2, Cons(3, Nil))))
"#;

#[test]
fn run_prints_result() {
    let path = write_temp("run", PROGRAM);
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_prints_nullary_ctor_as_its_tag() {
    let path = write_temp(
        "nullary",
        "inductive List := Nil | Cons(h, t)\ndef main() := Cons(7, Nil)\n",
    );
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "ctor1(7, 0)");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_all_backends() {
    let path = write_temp("backends", PROGRAM);
    for backend in ["leanc", "mlir", "rgn-only", "none"] {
        let out = lssa()
            .args(["run"])
            .arg(&path)
            .args(["--backend", backend])
            .output()
            .unwrap();
        assert!(out.status.success(), "{backend}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "3",
            "{backend}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn dump_stages_emit_expected_dialects() {
    let path = write_temp("dump", PROGRAM);
    for (stage, needle) in [
        ("lambda", "case x0 of"),
        ("lp", "lp.switch"),
        ("rgn", "rgn.run"),
        ("cfg", "cf."),
    ] {
        let out = lssa()
            .args(["dump"])
            .arg(&path)
            .args(["--stage", stage])
            .output()
            .unwrap();
        assert!(out.status.success(), "{stage}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "{stage}: missing {needle}\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn diff_reports_pass() {
    let path = write_temp("diff", PROGRAM);
    let out = lssa().args(["diff"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    std::fs::remove_file(path).ok();
}

#[test]
fn pass_stats_prints_pipeline_tables() {
    let path = write_temp("stats", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--pass-stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "pipeline `rgn-opt`",
        "pipeline `cleanup`",
        "ops-in",
        "global-region-numbering",
        "cse",
    ] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    // Dead-op erasure ends every canonicalize sweep, so no pipeline has a
    // DCE slot.
    assert!(
        !text.lines().any(|l| l.trim_start().starts_with("dce ")),
        "unexpected dce row\n{text}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn vm_stats_prints_opcode_class_table() {
    let path = write_temp("vmstats", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["opcode class", "executed", "frames:", "heap:", "max depth"] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn vm_stats_shows_fusion_and_no_fuse_disables_it() {
    let path = write_temp("fuse", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fused:"), "{text}");
    assert!(!text.contains("fused: 0 superinstruction"), "{text}");
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats", "--no-fuse"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fused: 0 superinstruction"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bench_check_gates_every_counter() {
    let json_path = std::env::temp_dir().join(format!(
        "lssa-cli-bench-counters-{}.json",
        std::process::id()
    ));
    let out = lssa()
        .args(["bench", "filter", "--scale", "quick", "--json", "--out"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Raise four counters of the first (`full`) row: each is deterministic,
    // so each must fail the check on its own line, whatever the tolerance.
    let mut json = std::fs::read_to_string(&json_path).unwrap();
    let raised = ["heap_allocs", "rc_cells", "fused_cells", "cache_hits"];
    for key in raised {
        let field = format!("\"{key}\": ");
        json = json.replacen(&field, &format!("{field}9"), 1);
    }
    std::fs::write(&json_path, json).unwrap();
    let out = lssa()
        .args([
            "bench",
            "filter",
            "--scale",
            "quick",
            "--check",
            "--tolerance",
            "300",
            "--out",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    for key in raised {
        assert!(
            stderr.contains(&format!("REGRESSION: filter/full: {key} changed")),
            "{key} not gated:\n{stderr}"
        );
    }
    assert!(stderr.contains("4 regression(s)"), "{stderr}");
    std::fs::remove_file(json_path).ok();
}

#[test]
fn bench_json_writes_records() {
    let json_path =
        std::env::temp_dir().join(format!("lssa-cli-bench-{}.json", std::process::id()));
    let out = lssa()
        .args(["bench", "filter", "--scale", "quick", "--json", "--out"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    for needle in [
        "\"scale\": \"test\"",
        "\"name\": \"filter\"",
        "\"configs\": [\"full\", \"full_nofuse\", \"full_norc\", \"leanc\", \"rgn_only\", \"none\"]",
        "\"full\":",
        "\"full_nofuse\":",
        "\"full_norc\":",
        "\"leanc\":",
        "\"rgn_only\":",
        "\"none\":",
        "\"cache_hits\":",
        "\"rc_cells\":",
    ] {
        assert!(json.contains(needle), "missing {needle}\n{json}");
    }
    // `bench --check` against the file just written passes (counters are
    // deterministic; the wall tolerance absorbs timer noise).
    let out = lssa()
        .args([
            "bench",
            "filter",
            "--scale",
            "quick",
            "--check",
            "--tolerance",
            "500",
            "--out",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checked"));
    // A corrupted instruction count is a regression: non-zero exit.
    let tampered = json.replacen("\"instructions\": ", "\"instructions\": 9", 1);
    std::fs::write(&json_path, tampered).unwrap();
    let out = lssa()
        .args([
            "bench",
            "filter",
            "--scale",
            "quick",
            "--check",
            "--tolerance",
            "500",
            "--out",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("REGRESSION"));
    std::fs::remove_file(json_path).ok();
    // A single-workload run without --out must refuse rather than clobber
    // the committed full-suite BENCH_<scale>.json baseline.
    let out = lssa()
        .args(["bench", "filter", "--scale", "quick", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    // `--no-fuse` is not a bench flag: every run measures both modes.
    let out = lssa()
        .args(["bench", "all", "--scale", "quick", "--json", "--no-fuse"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--no-fuse"));
}

/// The six rungs of the bench ladder, in order.
const RUNGS: [&str; 6] = [
    "full",
    "full_nofuse",
    "full_norc",
    "leanc",
    "rgn_only",
    "none",
];

/// Runs `lssa <args>`, asserts it prints one row per rung and both
/// figures, and returns its stdout.
fn assert_bench_report(args: &[&str]) -> String {
    let out = lssa().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let rungs: Vec<&str> = text
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    assert_eq!(rungs, RUNGS, "{args:?}\n{text}");
    for needle in [
        "Figure 9",
        "leanc/full",
        "Figure 10",
        "full/rgn_only",
        "none/full",
    ] {
        assert!(text.contains(needle), "{args:?}: missing {needle}\n{text}");
    }
    assert_eq!(text.matches("paper reports").count(), 2, "{text}");
    text
}

#[test]
fn bench_prints_every_rung_and_both_figures() {
    let text = assert_bench_report(&["bench", "filter", "--scale", "quick", "--runs", "1"]);
    assert!(text.contains("filter"), "{text}");
}

#[test]
fn bench_check_pins_the_paper_rungs() {
    // The committed quick-scale baseline, copied so it can be edited.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_test.json");
    let json = std::fs::read_to_string(committed).unwrap();
    let copy =
        std::env::temp_dir().join(format!("lssa-cli-bench-rungs-{}.json", std::process::id()));
    // This is a debug build checked against release-build walls: the huge
    // tolerance leaves only the deterministic counters to the check.
    let check = |path: &std::path::Path| {
        lssa()
            .args(["bench", "all", "--scale", "quick", "--runs", "1", "--check"])
            .args(["--tolerance", "1000000", "--out"])
            .arg(path)
            .output()
            .unwrap()
    };
    std::fs::write(&copy, &json).unwrap();
    let out = check(&copy);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("checked 48 rows"), "{stderr}");
    // Move one counter of one `leanc` row: that exact row must fail.
    let row = json.find("\"leanc\": {").unwrap();
    let field = row + json[row..].find("\"instructions\": ").unwrap() + "\"instructions\": ".len();
    std::fs::write(&copy, format!("{}9{}", &json[..field], &json[field..])).unwrap();
    let out = check(&copy);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("REGRESSION: binarytrees/leanc: instructions changed 9"),
        "{stderr}"
    );
    assert!(stderr.contains("1 regression(s)"), "{stderr}");
    std::fs::remove_file(copy).ok();
}

#[test]
fn print_ir_after_all_dumps_to_stderr() {
    let path = write_temp("irdump", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--print-ir-after-all"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("IR dump after"), "{err}");
    assert!(err.contains("func.return"), "{err}");
    // The result still lands on stdout.
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    // And the leanc backend rejects the flag (no pipeline to dump).
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--backend", "leanc", "--print-ir-after-all"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

fn write_lssa(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lssa-cli-{name}-{}.lssa", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const LSSA_PROGRAM: &str = "(def main ()
  (let x0 40
  (let x1 2
  (let x2 (call lean_nat_add x0 x1)
  (ret x2)))))
";

const LSSA_ILL_FORMED: &str = "(def main ()\n  (ret x7))\n";

#[test]
fn check_passes_clean_lssa_and_flags_defects() {
    let good = write_lssa("check-good", LSSA_PROGRAM);
    let out = lssa().args(["check"]).arg(&good).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "clean check must print nothing");

    let bad = write_lssa("check-bad", LSSA_ILL_FORMED);
    let out = lssa().args(["check"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[E0101]"), "{text}");
    assert!(
        text.contains(":2:8:"),
        "human format carries line:col\n{text}"
    );
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

#[test]
fn check_json_is_machine_readable() {
    let bad = write_lssa("check-json", LSSA_ILL_FORMED);
    let out = lssa()
        .args(["check"])
        .arg(&bad)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{text}");
    assert!(lines[0].starts_with("{\"code\":\"E0101\""), "{text}");
    assert!(lines[0].contains("\"span\":{\"start\":"), "{text}");
    assert!(lines[0].contains("\"line\":2,\"col\":8"), "{text}");
    std::fs::remove_file(bad).ok();
}

#[test]
fn fmt_prints_canonical_form_and_write_check_cycle() {
    let path = write_lssa("fmt", "(def main()(let x0 1(ret x0)))");
    // Default: canonical form on stdout, file untouched.
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let formatted = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(formatted, "(def main ()\n  (let x0 1\n  (ret x0)))\n");
    // --check flags the drift without touching the file.
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--check"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // --write rewrites; --check then passes.
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--write"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), formatted);
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--check"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn fmt_formats_ill_scoped_but_rejects_broken_syntax() {
    // Wellformedness problems don't block formatting…
    let path = write_lssa("fmt-illformed", LSSA_ILL_FORMED);
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("(ret x7)"));
    std::fs::remove_file(path).ok();
    // …but unbalanced parentheses do.
    let path = write_lssa("fmt-broken", "(def main () (ret x0");
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[E0003]"));
    std::fs::remove_file(path).ok();
}

#[test]
fn run_executes_lssa_files_on_every_backend() {
    let path = write_lssa("run", LSSA_PROGRAM);
    for backend in ["leanc", "mlir", "rgn-only", "none"] {
        let out = lssa()
            .args(["run"])
            .arg(&path)
            .args(["--backend", backend])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "42",
            "{backend}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn run_reports_lssa_wellformedness_with_check_codes() {
    // Regression: `run` on an ill-formed `.lssa` file must exit 1 and
    // report the same stable code `check` does — as a diagnostic, not a
    // usage error.
    let path = write_lssa("run-illformed", LSSA_ILL_FORMED);
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[E0101]"), "{err}");
    assert!(err.contains("use of x7 out of scope"), "{err}");
    assert!(
        !err.contains("usage:"),
        "diagnostics must not trigger usage spam\n{err}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn diff_and_bench_accept_lssa_files() {
    let path = write_lssa("diff", LSSA_PROGRAM);
    let out = lssa().args(["diff"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    let text = assert_bench_report(&["bench", path.to_str().unwrap(), "--runs", "1"]);
    assert!(text.contains("  42\n"), "{text}");
    // The JSON baseline is keyed by workload name: .lssa files refuse it.
    let out = lssa()
        .args(["bench"])
        .arg(&path)
        .args(["--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

/// Runs `lssa <args> <path>` and asserts a plain error: exit 1, an
/// `error` line on stderr, no panic.
fn assert_plain_error(args: &[&str], path: &std::path::Path) -> String {
    let out = lssa().args(args).arg(path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("error"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn lambda_rc_input_is_an_error_not_a_panic() {
    // Well-formed λrc: `check` accepts it and `lint` audits it as written,
    // but the pipelines insert reference counting themselves.
    let path = write_lssa(
        "lambda-rc",
        "(def main () (let x0 1 (inc x0 3 (dec x0 (dec x0 (dec x0 (ret x0)))))))\n",
    );
    let out = lssa().args(["check"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    for args in [
        &["run"][..],
        &["run", "--backend", "leanc"],
        &["run", "--backend", "none"],
        &["dump", "--stage", "lp"],
        &["diff"],
    ] {
        let stderr = assert_plain_error(args, &path);
        assert!(
            stderr.contains("@main already holds inc/dec"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("lssa lint"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn a_def_in_the_builtin_namespace_is_e0115() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/bad/builtin_name.lssa"
    );
    let path = std::path::Path::new(path);
    for verb in ["run", "lint"] {
        let out = lssa().args([verb]).arg(path).output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{verb}: {text}");
        assert!(text.contains("error[E0115]"), "{verb}: {text}");
        assert!(!text.contains("panicked"), "{verb}: {text}");
    }
}

#[test]
fn unknown_and_incomplete_flags_are_usage_errors() {
    let path = write_temp("flags", PROGRAM);
    for flags in [
        &["--bogus-flag"][..],
        &["--no-fusee"],
        &["--step-budget"],
        &["--backend"],
        &["--step-budget", "--vm-stats"],
        &["--dispatch", "match"],
        &["--no-inline-cache"],
        &["--no-renumber"],
    ] {
        let out = lssa()
            .args(["run"])
            .arg(&path)
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flags[0]), "{flags:?}: {err}");
        assert!(err.contains("usage:"), "{flags:?}: {err}");
        assert!(out.stdout.is_empty(), "{flags:?}: must not run");
    }
    // Each verb checks against its own list: `--write` is a `fmt` flag.
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .arg("--write")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    for flags in [
        &["--dispatch", "match"][..],
        &["--no-inline-cache"],
        &["--diff", "a.json"],
    ] {
        let out = lssa()
            .args(["bench", "filter", "--scale", "quick"])
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "bench {flags:?}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = lssa().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn parse_error_is_reported() {
    let path = write_temp("bad", "def !");
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    std::fs::remove_file(path).ok();
}

/// Runs `lssa <verb> <path> [args]` and asserts a diagnostic failure: exit
/// code exactly 1 (a signal or a panic's 101 fails), `code` reported
/// (`check` prints to stdout, `run` to stderr) and no usage text.
fn assert_rejected(verb: &str, path: &std::path::Path, args: &[&str], code: &str) {
    let out = lssa().arg(verb).arg(path).args(args).output().unwrap();
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(1), "{verb} {args:?}: {text}");
    assert!(text.contains(&format!("error[{code}]")), "{verb}: {text}");
    assert!(!text.contains("usage:"), "{verb}: no usage spam\n{text}");
    assert!(!text.contains("panicked"), "{verb}: {text}");
}

#[test]
fn ids_at_and_above_the_bound_are_out_of_range() {
    let bound = lssa_lambda::dense::MAX_ID;
    let last = format!(
        "(def main () (let x{0} 7 (join j{0} (x0) (ret x0) (jump j{0} x{0}))))\n",
        bound - 1
    );
    let path = write_lssa("id-last", &last);
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().next(),
        Some("7")
    );
    std::fs::remove_file(path).ok();
    for bad in [
        format!("(def main () (let x{bound} 7 (ret x{bound})))\n"),
        "(def main () (let x4294967295 7 (ret x4294967295)))\n".to_string(),
        format!("(def main (x0) (join j{bound} (x1) (ret x1) (jump j{bound} x0)))\n"),
        format!("(def f (x{bound}) (ret x{bound}))\n"),
    ] {
        let path = write_lssa("id-past", &bad);
        for verb in ["check", "run"] {
            assert_rejected(verb, &path, &[], "E0005");
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn retain_counts_at_the_bound_lint_and_one_past_is_e0005() {
    let bound = lssa_syntax::parse::MAX_RETAIN;
    let path = write_lssa(
        "inc-last",
        &format!("(def main (x0) (inc x0 {bound} (ret x0)))\n"),
    );
    let out = lssa().args(["check"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // `lint` audits the λrc as written: retains that are never released are
    // an rc-linearity finding, not a refusal of the count.
    let out = lssa().args(["lint"]).arg(&path).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("error[E0201]") && text.contains(&format!("leaks {bound} ")),
        "{text}"
    );
    std::fs::remove_file(path).ok();
    for n in [u64::from(bound) + 1, 4_000_000_000] {
        let path = write_lssa(
            "inc-past",
            &format!("(def main (x0) (inc x0 {n} (ret x0)))\n"),
        );
        for verb in ["check", "lint", "run"] {
            assert_rejected(verb, &path, &[], "E0005");
        }
        std::fs::remove_file(path).ok();
    }
}

/// A `.fl` `main` of `depth` nested `let`s that returns the first binding,
/// 0.
fn fl_let_chain(depth: usize) -> String {
    let mut s = String::from("def main() :=\n");
    for i in 0..depth {
        s.push_str(&format!("  let x{i} := {i};\n"));
    }
    s.push_str("  x0\n");
    s
}

/// A `.fl` `main` of `depth` nested parenthesised additions,
/// `(1 + (1 + … (1 + 1)))`, which is `depth + 1`.
fn fl_nested_parens(depth: usize) -> String {
    format!(
        "def main() := {}1{}\n",
        "(1 + ".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn fl_nesting_at_the_depth_bound_runs_and_one_past_exits_1() {
    let depth = lssa_lambda::MAX_DEPTH;
    for (shape, src, want) in [
        ("let", fl_let_chain(depth), "0".to_string()),
        ("parens", fl_nested_parens(depth), (depth + 1).to_string()),
    ] {
        let path = write_temp(&format!("deep-{shape}"), &src);
        for backend in ["leanc", "mlir", "rgn-only", "none"] {
            let out = lssa()
                .args(["run"])
                .arg(&path)
                .args(["--backend", backend])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{shape} {backend}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                String::from_utf8_lossy(&out.stdout).lines().next(),
                Some(want.as_str()),
                "{shape} {backend}"
            );
        }
        std::fs::remove_file(path).ok();
    }
    for (shape, src) in [
        ("let", fl_let_chain(depth + 1)),
        ("parens", fl_nested_parens(depth + 1)),
        (
            "sum",
            format!("def main() := 1{}\n", " + 1".repeat(depth + 1)),
        ),
    ] {
        let path = write_temp(&format!("too-deep-{shape}"), &src);
        for verb in ["run", "dump", "diff"] {
            let out = lssa().arg(verb).arg(&path).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{verb} {shape}: {stderr}");
            assert!(
                stderr.contains(&format!("nest deeper than {depth} levels")),
                "{verb} {shape}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{verb} {shape}: {stderr}");
            // A parse error is the input's fault, not the command line's.
            assert!(!stderr.contains("usage:"), "{verb} {shape}: {stderr}");
        }
        std::fs::remove_file(path).ok();
    }
}

/// `check` reads a surface-language file as `run` does; `lint` and `fmt`,
/// which work on `.lssa` text, refuse one in a line of their own.
#[test]
fn check_lint_and_fmt_on_surface_language_files() {
    const SUM: &str = "inductive List := Nil | Cons(h, t)\n\
        def sum(xs) := case xs of | Nil => 0 | Cons(h, t) => h + sum(t) end\n\
        def main() := sum(Cons(1, Cons(2, Nil)))\n";
    let path = write_temp("check-sum", SUM);
    let out = lssa().arg("run").arg(&path).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    for format in ["human", "json"] {
        let out = lssa()
            .arg("check")
            .arg(&path)
            .args(["--format", format])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{format}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty() && out.stderr.is_empty(), "{format}");
    }
    for verb in [
        &["lint"][..],
        &["fmt"],
        &["fmt", "--check"],
        &["fmt", "--write"],
    ] {
        let out = lssa().args(verb).arg(&path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{verb:?}: {stderr}");
        assert!(stderr.contains(".lssa"), "{verb:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{verb:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{verb:?}");
    }
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        SUM,
        "fmt left it alone"
    );
    std::fs::remove_file(path).ok();
    // A parse error and a wellformedness error each exit 1 with a coded
    // diagnostic and no usage text.
    for (name, src, code) in [
        ("check-parse", "def main() := (1 +\n", "E0003"),
        (
            "check-wf",
            "def f(x) := @nosuch(x)\ndef main() := f(1)\n",
            "E0108",
        ),
    ] {
        let path = write_temp(name, src);
        assert_rejected("check", &path, &[], code);
        let out = lssa()
            .arg("check")
            .arg(&path)
            .args(["--format", "json"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {stdout}");
        assert!(stdout.contains(&format!("\"code\":\"{code}\"")), "{stdout}");
        std::fs::remove_file(path).ok();
    }
}

/// A program whose lists nest exactly `depth` deep: `f` is a chain of
/// `let`s adding its parameter (`f(1)` returns `depth - 1`).
fn let_chain(depth: usize) -> String {
    let n = depth - 2;
    let mut s = String::from("(def f (x0)\n(let x1 (call lean_nat_add x0 x0)\n");
    for i in 2..=n {
        s.push_str(&format!("(let x{i} (call lean_nat_add x{} x0)\n", i - 1));
    }
    s.push_str(&format!("(ret x{n}){})\n", ")".repeat(n)));
    s.push_str("(def main () (let x0 1 (let x1 (call f x0) (ret x1))))\n");
    s
}

/// A program whose lists nest exactly `depth` deep: `f` is a chain of
/// `case`s on its parameter (`f(0)` returns 0).
fn case_chain(depth: usize) -> String {
    let levels = (depth - 2) / 2;
    let mut s = String::from("(def f (x0)\n");
    s.push_str(&"(case x0 (0\n".repeat(levels));
    // An odd depth needs one more list at the bottom.
    s.push_str(if depth % 2 == 1 {
        "(let x1 x0 (ret x1))"
    } else {
        "(ret x0)"
    });
    s.push_str(&") (else (ret x0)))".repeat(levels));
    s.push_str(")\n(def main () (let x0 0 (let x1 (call f x0) (ret x1))))\n");
    s
}

#[test]
fn nesting_at_the_depth_bound_runs_and_one_past_is_e0006() {
    let depth = lssa_syntax::sexp::MAX_DEPTH;
    for (shape, src, want) in [
        ("let", let_chain(depth), (depth - 1).to_string()),
        ("case", case_chain(depth), "0".to_string()),
    ] {
        let path = write_lssa(&format!("deep-{shape}"), &src);
        let out = lssa().args(["check"]).arg(&path).output().unwrap();
        assert!(
            out.status.success(),
            "{shape}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for backend in ["leanc", "mlir", "rgn-only", "none"] {
            let out = lssa()
                .args(["run"])
                .arg(&path)
                .args(["--backend", backend])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{shape} {backend}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                String::from_utf8_lossy(&out.stdout).lines().next(),
                Some(want.as_str()),
                "{shape} {backend}"
            );
        }
        std::fs::remove_file(path).ok();
    }
    for (shape, src) in [
        ("let", let_chain(depth + 1)),
        ("case", case_chain(depth + 1)),
    ] {
        let path = write_lssa(&format!("too-deep-{shape}"), &src);
        for verb in ["check", "run"] {
            assert_rejected(verb, &path, &[], "E0006");
        }
        std::fs::remove_file(path).ok();
    }
}

/// `(def f (x0 … x{n-1}) (ret x0))` beside a `main` returning 1.
fn wide_params(n: usize) -> String {
    let params: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    format!(
        "(def f ({}) (ret x0))\n(def main () (let x0 1 (ret x0)))\n",
        params.join(" ")
    )
}

/// A register file is counted in a `u16`: `check` accepts a function of
/// 65,536 parameters, and every backend refuses it with a plain bytecode
/// error instead of a panic.
#[test]
fn a_function_past_the_register_limit_is_a_bytecode_error() {
    let path = write_lssa("params-65536", &wide_params(65_536));
    let out = lssa().args(["check"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    for backend in ["leanc", "mlir", "rgn-only", "none"] {
        let stderr = assert_plain_error(&["run", "--backend", backend], &path);
        assert!(
            stderr.contains("bytecode error")
                && stderr.contains("@f needs more than 65535 registers"),
            "{backend}: {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}
