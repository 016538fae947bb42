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
    for needle in ["pipeline `rgn-opt`", "pipeline `cleanup`", "ops-in", "dce"] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
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
        "\"configs\": [\"full\", \"full_nofuse\", \"full_norc\"]",
        "\"full\":",
        "\"full_nofuse\":",
        "\"full_norc\":",
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
    // And --json refuses --no-fuse (it always measures both modes).
    let out = lssa()
        .args(["bench", "all", "--scale", "quick", "--json", "--no-fuse"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--no-fuse"));
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

    let out = lssa().args(["bench"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 4, "one line per config\n{text}");
    assert!(text.contains("result=42"), "{text}");

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
