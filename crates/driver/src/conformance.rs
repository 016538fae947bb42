//! The conformance corpus — this project's analogue of the LEAN test suite.
//!
//! The paper validates feature-completeness by passing all 648 tests of the
//! LEAN4 suite (§V-A). Here the corpus is (a) a set of hand-written programs
//! covering every λrc construct and edge case, and (b) a seeded generator
//! producing hundreds of terminating programs over a safe prelude. Each
//! program is differentially tested across all pipelines
//! ([`crate::diff::run_differential`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A corpus entry.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Name (stable across runs).
    pub name: String,
    /// Source text.
    pub src: String,
}

/// Hand-written cases: one per language feature/edge case.
pub fn handwritten() -> Vec<TestCase> {
    let mk = |name: &str, src: &str| TestCase {
        name: name.to_string(),
        src: src.to_string(),
    };
    vec![
        mk("lit", "def main() := 0"),
        mk("lit-max-small", "def main() := 4611686018427387903"),
        mk("lit-big", "def main() := 4611686018427387904"),
        mk("lit-huge", "def main() := 123456789012345678901234567890"),
        mk("add", "def main() := 1 + 2"),
        mk("sub-truncates", "def main() := 3 - 5"),
        mk("mul", "def main() := 6 * 7"),
        mk("div", "def main() := 17 / 5"),
        mk("div-zero", "def main() := 17 / 0"),
        mk("mod", "def main() := 17 % 5"),
        mk("mod-zero", "def main() := 17 % 0"),
        mk("big-add", "def main() := 9999999999999999999999 + 1"),
        mk("big-mul", "def main() := 99999999999999999999 * 99999999999999999999"),
        mk("big-cross", "def main() := 4611686018427387903 + 4611686018427387903"),
        mk("cmp-eq", "def main() := if 3 == 3 then 1 else 0"),
        mk("cmp-ne", "def main() := if 3 != 3 then 1 else 0"),
        mk("cmp-lt", "def main() := if 2 < 3 then 1 else 0"),
        mk("cmp-le", "def main() := if 3 <= 3 then 1 else 0"),
        mk("cmp-gt", "def main() := if 3 > 2 then 1 else 0"),
        mk("cmp-ge", "def main() := if 2 >= 3 then 1 else 0"),
        mk("bool-consts", "def main() := if true then (if false then 0 else 1) else 2"),
        mk("nested-if", "def main() := if 1 < 2 then if 2 < 1 then 10 else 20 else 30"),
        mk(
            "let-chain",
            "def main() := let a := 1; let b := a + 1; let c := b + a; c * b",
        ),
        mk(
            "shadowing",
            "def main() := let a := 1; let a := a + 1; let a := a + 1; a",
        ),
        mk(
            "int-ops",
            "def main() := @int_to_nat(@int_add(@int_neg(5), @int_mul(3, 4)))",
        ),
        mk(
            "int-neg-result",
            "def main() := @int_sub(3, 10)",
        ),
        mk(
            "int-div-trunc",
            "def main() := @int_to_nat(@int_div(@int_neg(7), 2)) + @int_to_nat(@int_neg(@int_div(@int_neg(7), 2)))",
        ),
        mk(
            "ctor-basic",
            r#"
inductive Pair := MkPair(a, b)
def main() := case MkPair(3, 4) of | MkPair(a, b) => a * 10 + b end
"#,
        ),
        mk(
            "ctor-nested",
            r#"
inductive Pair := MkPair(a, b)
def main() :=
  case MkPair(MkPair(1, 2), MkPair(3, 4)) of
  | MkPair(x, y) =>
    case x of
    | MkPair(a, b) =>
      case y of
      | MkPair(c, d) => a * 1000 + b * 100 + c * 10 + d
      end
    end
  end
"#,
        ),
        mk(
            "enum-three-way",
            r#"
inductive RGB := R | G | B
def pick(c) := case c of | R => 1 | G => 2 | B => 3 end
def main() := pick(R) * 100 + pick(G) * 10 + pick(B)
"#,
        ),
        mk(
            "case-default",
            r#"
inductive RGB := R | G | B
def pick(c) := case c of | G => 7 | _ => 9 end
def main() := pick(R) * 100 + pick(G) * 10 + pick(B)
"#,
        ),
        mk(
            "int-pattern-figure4",
            r#"
def intUsage(n) := case n of | 42 => 43 | _ => 99999999 end
def main() := intUsage(42) + intUsage(7)
"#,
        ),
        mk(
            "int-pattern-multi",
            r#"
def f(n) := case n of | 0 => 10 | 1 => 20 | 5 => 30 | _ => 40 end
def main() := f(0) + f(1) + f(5) + f(9)
"#,
        ),
        mk(
            "int-pattern-big",
            r#"
def f(n) := case n of | 99999999999999999999 => 1 | _ => 2 end
def main() := f(99999999999999999999) * 10 + f(3)
"#,
        ),
        mk(
            "figure5-eval",
            r#"
def eval(x, y, z) :=
  case x of
  | 0 =>
    case y of
    | 2 => 40
    | _ =>
      case z of
      | 2 => 50
      | _ => 60
      end
    end
  | _ => 60
  end
def main() := eval(0, 2, 9) + eval(0, 9, 2) + eval(0, 9, 9) + eval(7, 2, 2)
"#,
        ),
        mk(
            "figure6-length",
            r#"
inductive List := Nil | Cons(i, l)
def singleton(n) := Cons(n, Nil)
def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(n, l) => 1 + length(l)
  end
def main() := length(singleton(99))
"#,
        ),
        mk(
            "recursion-fact",
            "def fact(n) := if n == 0 then 1 else n * fact(n - 1)\ndef main() := fact(15)",
        ),
        mk(
            "recursion-fib",
            "def fib(n) := if n < 2 then n else fib(n - 1) + fib(n - 2)\ndef main() := fib(15)",
        ),
        mk(
            "mutual-recursion",
            r#"
def is_even(n) := if n == 0 then 1 else is_odd(n - 1)
def is_odd(n) := if n == 0 then 0 else is_even(n - 1)
def main() := is_even(10) * 10 + is_odd(7)
"#,
        ),
        mk(
            "deep-tail-recursion",
            r#"
def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)
def main() := loop(200000, 0)
"#,
        ),
        mk(
            "closure-figure7",
            r#"
def k(x, y) := x
def ap42(f) := f(42)
def main() := ap42(k(10))
"#,
        ),
        mk(
            "closure-zero-capture",
            r#"
def k(x, y) := y
def apply2(f) := f(7, 8)
def main() := apply2(k)
"#,
        ),
        mk(
            "closure-oversaturated",
            r#"
def add2(a, b) := a + b
def mkadd(a) := add2(a)
def main() := mkadd(1)(2)
"#,
        ),
        mk(
            "closure-chain",
            r#"
def add3(a, b, c) := a + b * 10 + c * 100
def main() := add3(1)(2)(3)
"#,
        ),
        mk(
            "closure-twice",
            r#"
def add(a, b) := a + b
def twice(f, x) := f(f(x))
def main() := twice(add(10), 1)
"#,
        ),
        mk(
            "closure-captures-structure",
            r#"
inductive Pair := MkPair(a, b)
def first_of(p, unused) := case p of | MkPair(a, b) => a end
def main() :=
  let p := MkPair(5, 6);
  let f := first_of(p);
  f(0) + f(1)
"#,
        ),
        mk(
            "value-case-join",
            r#"
def f(b, y) := let x := case b of | true => 1 | false => 2 end; x + y
def main() := f(true, 10) + f(false, 100)
"#,
        ),
        mk(
            "join-nested",
            r#"
def f(a, b) :=
  let x := case a of | true => 1 | false => 2 end;
  let y := case b of | true => 10 | false => 20 end;
  x + y
def main() := f(true, false) + f(false, true) * 100
"#,
        ),
        mk(
            "shared-subtree",
            r#"
inductive Tree := Leaf | Node(l, r)
def weight(t) := case t of | Leaf => 1 | Node(l, r) => weight(l) + weight(r) end
def main() :=
  let shared := Node(Leaf, Leaf);
  weight(Node(shared, shared))
"#,
        ),
        mk(
            "list-append-rev",
            r#"
inductive List := Nil | Cons(h, t)
def append(xs, ys) :=
  case xs of
  | Nil => ys
  | Cons(h, t) => Cons(h, append(t, ys))
  end
def rev(xs, acc) :=
  case xs of
  | Nil => acc
  | Cons(h, t) => rev(t, Cons(h, acc))
  end
def sum(xs) := case xs of | Nil => 0 | Cons(h, t) => h + sum(t) end
def upto(n) := if n == 0 then Nil else Cons(n, upto(n - 1))
def main() := sum(rev(append(upto(5), upto(3)), Nil))
"#,
        ),
        mk(
            "map-via-closure",
            r#"
inductive List := Nil | Cons(h, t)
def map(f, xs) :=
  case xs of
  | Nil => Nil
  | Cons(h, t) => Cons(f(h), map(f, t))
  end
def double(x) := x * 2
def sum(xs) := case xs of | Nil => 0 | Cons(h, t) => h + sum(t) end
def upto(n) := if n == 0 then Nil else Cons(n, upto(n - 1))
def main() := sum(map(double, upto(10)))
"#,
        ),
        mk(
            "array-basic",
            r#"
def main() :=
  let a := @array_push(@array_push(@mk_empty_array(), 10), 20);
  @array_get(a, 0) + @array_get(a, 1) + @array_size(a)
"#,
        ),
        mk(
            "array-set-shared",
            r#"
def main() :=
  let a := @array_push(@mk_empty_array(), 1);
  let b := @array_set(a, 0, 2);
  @array_get(b, 0)
"#,
        ),
        mk(
            "string-ops",
            r#"
def main() := @string_length(@string_append("hello ", "world"))
"#,
        ),
        mk(
            "string-eq",
            r#"
def main() :=
  if @string_dec_eq("abc", "abc") == 1 then
    if @string_dec_eq("abc", "abd") == 1 then 0 else 1
  else 2
"#,
        ),
        mk(
            "nat-to-string",
            "def main() := @string_length(@nat_to_string(1234567))",
        ),
        mk(
            "pow-gcd",
            "def main() := @nat_pow(3, 7) + @nat_gcd(48, 36)",
        ),
        mk(
            "dead-code",
            r#"
def main() :=
  let dead1 := 100 * 100;
  let dead2 := dead1 + 5;
  42
"#,
        ),
        mk(
            "common-branches",
            r#"
inductive AB := A | B
def f(x) := case x of | A => 123 | B => 123 end
def main() := f(A) + f(B)
"#,
        ),
        mk(
            "unused-params",
            r#"
def ignore2(a, b, c) := b
def main() := ignore2(1, 2, 3)
"#,
        ),
        mk(
            "arity-zero-through-closure",
            r#"
def const7(unused) := 7
def main() :=
  let f := const7;
  f(99)
"#,
        ),
    ]
}

/// Deterministically generates `count` programs over a safe prelude.
///
/// Generated expressions cannot diverge: the only recursive functions are in
/// the prelude and are structurally decreasing on small literal inputs.
pub fn generated(count: usize, seed: u64) -> Vec<TestCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let body = gen_expr(&mut rng, 0);
            TestCase {
                name: format!("gen-{i:04}"),
                src: format!("{PRELUDE}\ndef main() := {body}"),
            }
        })
        .collect()
}

const PRELUDE: &str = r#"
inductive List := Nil | Cons(h, t)
inductive Option := None | Some(v)
inductive Pair := MkPair(a, b)
def id(x) := x
def add3(a, b, c) := a + b + c
def twice(f, x) := f(f(x))
def compose_apply(f, g, x) := f(g(x))
def sumto(n) := if n == 0 then 0 else n + sumto(n - 1)
def len(xs) := case xs of | Nil => 0 | Cons(h, t) => 1 + len(t) end
def nth(xs, i) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => if i == 0 then h else nth(t, i - 1)
  end
def upto(n) := if n == 0 then Nil else Cons(n, upto(n - 1))
def maybe_add(o, k) := case o of | None => k | Some(v) => v + k end
"#;

fn gen_expr(rng: &mut StdRng, depth: u32) -> String {
    let leaf = depth >= 4;
    let choice = if leaf {
        rng.random_range(0..3)
    } else {
        rng.random_range(0..12)
    };
    match choice {
        0 => format!("{}", rng.random_range(0..100)),
        1 => format!("{}", rng.random_range(0..10_000)),
        2 => "4611686018427387900".to_string(),
        3 => format!(
            "({} {} {})",
            gen_expr(rng, depth + 1),
            ["+", "-", "*", "/", "%"][rng.random_range(0..5)],
            gen_expr(rng, depth + 1)
        ),
        4 => format!(
            "(if {} {} {} then {} else {})",
            gen_expr(rng, depth + 1),
            ["==", "<", "<=", "!=", ">", ">="][rng.random_range(0..6)],
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1)
        ),
        5 => format!(
            "(let v{depth} := {}; v{depth} + {})",
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1)
        ),
        6 => format!(
            "(case {} % 3 of | 0 => {} | 1 => {} | _ => {} end)",
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1)
        ),
        7 => format!(
            "(case Some({}) of | None => 0 | Some(v) => v + 1 end)",
            gen_expr(rng, depth + 1)
        ),
        8 => format!("sumto({})", rng.random_range(0..50)),
        9 => format!(
            "nth(upto({}), {})",
            rng.random_range(1..20),
            rng.random_range(0..25)
        ),
        10 => format!(
            "twice(add3({}, {}), {})",
            gen_expr(rng, depth + 1),
            rng.random_range(0..10),
            rng.random_range(0..10)
        ),
        11 => format!(
            "(case MkPair({}, {}) of | MkPair(a, b) => a * 2 + b end)",
            gen_expr(rng, depth + 1),
            gen_expr(rng, depth + 1)
        ),
        _ => unreachable!(),
    }
}

/// The full corpus: handwritten + generated, at least `min_total` cases (the
/// LEAN suite the paper runs has 648).
pub fn full_corpus(min_total: usize, seed: u64) -> Vec<TestCase> {
    let mut cases = handwritten();
    let need = min_total.saturating_sub(cases.len());
    cases.extend(generated(need, seed));
    cases
}

/// Size and seed of the generated draw pinned by [`codegen_golden`].
pub const GOLDEN_DRAW: (usize, u64) = (40, 2022);

/// The codegen-stability golden: for each of the 8 workloads at
/// `Scale::Test`, the handwritten cases and a seeded generated draw
/// ([`GOLDEN_DRAW`]), one line with an FNV-1a digest of every function's
/// decoded cells and pools under [`CompilerConfig::mlir`] and the default
/// decode options, then one `total` line digesting all of them.
///
/// `tests/codegen_golden.rs` compares it with the committed
/// `tests/golden/codegen.txt`; regenerate that file with
/// `cargo run --example gen_codegen_golden`. A compiler change that is
/// meant to leave the generated code alone must leave the file unchanged.
///
/// [`CompilerConfig::mlir`]: crate::pipelines::CompilerConfig::mlir
pub fn codegen_golden() -> String {
    use crate::pipelines::{compile, CompilerConfig};
    use crate::workloads::{all, Scale};
    use std::fmt::Write as _;
    let workloads = all(Scale::Test)
        .into_iter()
        .map(|w| (format!("workload/{}", w.name), w.src));
    let handwritten = handwritten()
        .into_iter()
        .map(|c| (format!("handwritten/{}", c.name), c.src));
    let generated = generated(GOLDEN_DRAW.0, GOLDEN_DRAW.1)
        .into_iter()
        .map(|c| (format!("generated/{}", c.name), c.src));
    let mut out = String::new();
    for (name, src) in workloads.chain(handwritten).chain(generated) {
        let _ = match compile(&src, CompilerConfig::mlir()) {
            Ok(p) => {
                let mut h = Fnv1a::default();
                let d = p.decoded(lssa_vm::DecodeOptions::default());
                for f in &d.fns {
                    let _ = write!(
                        h,
                        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
                        f.name,
                        f.arity,
                        f.n_regs,
                        f.code,
                        f.args,
                        f.cases,
                        f.classes,
                        f.cache_base,
                        f.cache_sites
                    );
                }
                let _ = write!(h, "{:?}{:?}{:?}", d.big_pool, d.str_pool, d.globals);
                writeln!(out, "{name} {:016x}", h.0)
            }
            Err(e) => writeln!(out, "{name} error: {e}"),
        };
    }
    let mut total = Fnv1a::default();
    let _ = total.write_str(&out);
    let _ = writeln!(out, "total {:016x}", total.0);
    out
}

/// 64-bit FNV-1a over everything written to it: a digest that is the same
/// on every platform and every run.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_enough() {
        let corpus = full_corpus(648, 42);
        assert!(corpus.len() >= 648);
        // Names are unique.
        let mut names: Vec<&str> = corpus.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generated(10, 7);
        let b = generated(10, 7);
        assert_eq!(
            a.iter().map(|c| &c.src).collect::<Vec<_>>(),
            b.iter().map(|c| &c.src).collect::<Vec<_>>()
        );
        let c = generated(10, 8);
        assert_ne!(
            a.iter().map(|c| &c.src).collect::<Vec<_>>(),
            c.iter().map(|c| &c.src).collect::<Vec<_>>()
        );
    }

    #[test]
    fn handwritten_cases_all_pass_differential() {
        // The smoke oracle path: sharded through the shared batch executor
        // rather than looped serially.
        let cases = handwritten();
        crate::par::par_map(&cases, |case| {
            let r = crate::diff::run_differential(&case.name, &case.src, 200_000_000);
            assert!(r.passed(), "{}: {:?}", case.name, r.failure);
        });
    }

    #[test]
    fn sample_of_generated_cases_pass_differential() {
        // The full 648-case run lives in the integration suite; keep a
        // representative sample in unit tests.
        let cases = generated(25, 20260612);
        crate::par::par_map(&cases, |case| {
            let r = crate::diff::run_differential(&case.name, &case.src, 200_000_000);
            assert!(r.passed(), "{}:\n{}\n{:?}", case.name, case.src, r.failure);
        });
    }
}
