//! The benchmark's own checks, on tiny inputs: `Scale::Test` programs, one
//! set-up and one measured round per run.

use lssa_driver::workloads::Scale;
use perfbench::{cases, Bench, Report, Workload};

/// Measures exactly one round of each kind.
const ONE_ROUND: f64 = 0.0;

fn measure(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut bench = Bench::setup(workload, seed, Scale::Test).expect("set-up succeeds");
    bench.measure(ONE_ROUND, trace, 0).expect("measured")
}

#[test]
fn deterministic_counters_repeat_for_one_seed() {
    for w in Workload::ALL {
        let (a, b) = (measure(w, 7, false), measure(w, 7, false));
        assert!(a.correct && b.correct, "{}", w.name());
        assert_eq!(a.get("code_cells"), b.get("code_cells"), "{}", w.name());
        let (a, b) = (measure(w, 7, true), measure(w, 7, true));
        for name in ["core.ops_out", "vm.instructions", "rt.allocs"] {
            let value = a.get(name).expect("printed");
            assert!(value > 0.0, "{} {name}", w.name());
            assert_eq!(Some(value), b.get(name), "{} {name}", w.name());
        }
    }
}

#[test]
fn a_second_seed_changes_the_draw_and_the_lcg_inputs() {
    let build = |w, seed| cases(w, seed, Scale::Test).expect("sources build");
    let (a, b) = (
        build(Workload::CompileCorpus, 1),
        build(Workload::CompileCorpus, 2),
    );
    assert_eq!(a.len(), b.len());
    let changed = a.iter().zip(&b).filter(|(x, y)| x.text != y.text).count();
    assert!(changed > 0, "the generated draw must depend on the seed");
    for w in [Workload::RunAlloc, Workload::RunArray] {
        for (x, y) in build(w, 1).iter().zip(&build(w, 2)) {
            let seeded = ["qsort", "unionfind", "rbmap_checkpoint"].contains(&x.name.as_str());
            assert_eq!(x.text != y.text, seeded, "{}", x.name);
            if x.name == "qsort" {
                assert_ne!(x.expected, y.expected, "new inputs, new checksum");
            }
        }
    }
}

#[test]
fn a_planted_wrong_reference_counts_as_a_failure() {
    for trace in [false, true] {
        let mut bench = Bench::setup(Workload::RunArray, 3, Scale::Test).expect("set-up");
        bench.cases[0].expected.push_str("-planted");
        let report = bench.measure(ONE_ROUND, trace, 0).expect("measured");
        assert!(!report.correct);
        assert!(report.failed > 0);
        if trace {
            assert!(report.get("fail_share").expect("printed") > 0.0);
            assert_eq!(report.get("fail.output"), Some(report.failed as f64));
        } else {
            assert!(report.get("pass_share").expect("printed") < 1.0);
        }
    }
}

/// `(name, unit)` of every metric declared in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(&str, &str)> {
    fn field<'a>(entry: &'a str, key: &str) -> &'a str {
        entry
            .split_once(key)
            .map_or("", |(_, rest)| rest.split('"').next().unwrap_or(""))
    }
    section
        .split('{')
        .skip(1)
        .filter(|entry| entry.contains("\"unit\""))
        .map(|entry| (field(entry, "\"name\": \""), field(entry, "\"unit\": \"")))
        .collect()
}

#[test]
fn printed_names_are_well_formed_carry_units_and_match_the_declaration() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let (head, per_layer) = spec.split_once("\"per_layer\"").expect("per_layer section");
    let (_, end_to_end) = head
        .split_once("\"end_to_end\"")
        .expect("end_to_end section");
    let name_ok = |s: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for (trace, section) in [(false, end_to_end), (true, per_layer)] {
        let report = measure(Workload::CompileCorpus, 5, trace);
        let printed: Vec<(&str, &str)> = report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(printed, declared(section), "trace {trace}");
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!json.contains('\n'));
        for m in &report.metrics {
            assert!(name_ok(&m.name, 64), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.value.is_finite(), "{}", m.name);
            let entry = format!("\"{}\": {{\"value\": ", m.name);
            assert!(json.contains(&entry), "{} missing from {json}", m.name);
        }
    }
}
