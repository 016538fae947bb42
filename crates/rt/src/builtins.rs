//! The runtime-call surface: the `lean_*` functions the generated code calls.
//!
//! The paper's `lp` dialect lowers arithmetic, comparisons and data-structure
//! primitives to calls into `libleanrt` (e.g. `@lean_nat_dec_eq` in Figure 4).
//! This module is that surface. Calling convention: **every builtin consumes
//! (takes ownership of) its arguments and returns an owned result** — the
//! same owned convention λrc uses for ordinary calls, which keeps
//! reference-count reasoning uniform across the compiler.

use crate::bignum::{Int, Nat};
use crate::heap::Heap;
use crate::object::{ObjRef, MAX_SMALL_INT, MIN_SMALL_INT};
use std::fmt;
use std::str::FromStr;

/// A runtime builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Builtin {
    // Naturals (LEAN `Nat`: truncating subtraction, x/0 = 0, x%0 = x).
    /// `lean_nat_add`
    NatAdd,
    /// `lean_nat_sub` (truncating at zero)
    NatSub,
    /// `lean_nat_mul`
    NatMul,
    /// `lean_nat_div` (`x / 0 = 0`)
    NatDiv,
    /// `lean_nat_mod` (`x % 0 = x`)
    NatMod,
    /// `lean_nat_pow`
    NatPow,
    /// `lean_nat_gcd`
    NatGcd,
    /// `lean_nat_dec_eq` → 0/1
    NatDecEq,
    /// `lean_nat_dec_lt` → 0/1
    NatDecLt,
    /// `lean_nat_dec_le` → 0/1
    NatDecLe,
    // Integers.
    /// `lean_int_add`
    IntAdd,
    /// `lean_int_sub`
    IntSub,
    /// `lean_int_mul`
    IntMul,
    /// `lean_int_div` (truncated; `x / 0 = 0`)
    IntDiv,
    /// `lean_int_mod` (truncated; `x % 0 = x`)
    IntMod,
    /// `lean_int_neg`
    IntNeg,
    /// `lean_int_dec_eq` → 0/1
    IntDecEq,
    /// `lean_int_dec_lt` → 0/1
    IntDecLt,
    /// `lean_int_dec_le` → 0/1
    IntDecLe,
    /// `lean_nat_to_int` (identity on the erased representation)
    NatToInt,
    /// `lean_int_to_nat` (clamps negatives to 0)
    IntToNat,
    // Arrays.
    /// `lean_mk_empty_array`
    ArrayMk,
    /// `lean_array_get` (panics on out-of-bounds, like a proof obligation hole)
    ArrayGet,
    /// `lean_array_set` (in place when exclusive)
    ArraySet,
    /// `lean_array_push`
    ArrayPush,
    /// `lean_array_size`
    ArraySize,
    // Strings.
    /// `lean_string_append`
    StrAppend,
    /// `lean_string_length`
    StrLength,
    /// `lean_string_dec_eq` → 0/1
    StrDecEq,
    /// `lean_nat_to_string`
    NatToString,
}

/// Error when a builtin name is unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBuiltinError(pub String);

impl fmt::Display for UnknownBuiltinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown runtime builtin `{}`", self.0)
    }
}

impl std::error::Error for UnknownBuiltinError {}

impl Builtin {
    /// All builtins, for registry iteration.
    pub const ALL: &'static [Builtin] = &[
        Builtin::NatAdd,
        Builtin::NatSub,
        Builtin::NatMul,
        Builtin::NatDiv,
        Builtin::NatMod,
        Builtin::NatPow,
        Builtin::NatGcd,
        Builtin::NatDecEq,
        Builtin::NatDecLt,
        Builtin::NatDecLe,
        Builtin::IntAdd,
        Builtin::IntSub,
        Builtin::IntMul,
        Builtin::IntDiv,
        Builtin::IntMod,
        Builtin::IntNeg,
        Builtin::IntDecEq,
        Builtin::IntDecLt,
        Builtin::IntDecLe,
        Builtin::NatToInt,
        Builtin::IntToNat,
        Builtin::ArrayMk,
        Builtin::ArrayGet,
        Builtin::ArraySet,
        Builtin::ArrayPush,
        Builtin::ArraySize,
        Builtin::StrAppend,
        Builtin::StrLength,
        Builtin::StrDecEq,
        Builtin::NatToString,
    ];

    /// The `lean_*` symbol name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::NatAdd => "lean_nat_add",
            Builtin::NatSub => "lean_nat_sub",
            Builtin::NatMul => "lean_nat_mul",
            Builtin::NatDiv => "lean_nat_div",
            Builtin::NatMod => "lean_nat_mod",
            Builtin::NatPow => "lean_nat_pow",
            Builtin::NatGcd => "lean_nat_gcd",
            Builtin::NatDecEq => "lean_nat_dec_eq",
            Builtin::NatDecLt => "lean_nat_dec_lt",
            Builtin::NatDecLe => "lean_nat_dec_le",
            Builtin::IntAdd => "lean_int_add",
            Builtin::IntSub => "lean_int_sub",
            Builtin::IntMul => "lean_int_mul",
            Builtin::IntDiv => "lean_int_div",
            Builtin::IntMod => "lean_int_mod",
            Builtin::IntNeg => "lean_int_neg",
            Builtin::IntDecEq => "lean_int_dec_eq",
            Builtin::IntDecLt => "lean_int_dec_lt",
            Builtin::IntDecLe => "lean_int_dec_le",
            Builtin::NatToInt => "lean_nat_to_int",
            Builtin::IntToNat => "lean_int_to_nat",
            Builtin::ArrayMk => "lean_mk_empty_array",
            Builtin::ArrayGet => "lean_array_get",
            Builtin::ArraySet => "lean_array_set",
            Builtin::ArrayPush => "lean_array_push",
            Builtin::ArraySize => "lean_array_size",
            Builtin::StrAppend => "lean_string_append",
            Builtin::StrLength => "lean_string_length",
            Builtin::StrDecEq => "lean_string_dec_eq",
            Builtin::NatToString => "lean_nat_to_string",
        }
    }

    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::IntNeg
            | Builtin::NatToInt
            | Builtin::IntToNat
            | Builtin::ArraySize
            | Builtin::StrLength
            | Builtin::NatToString => 1,
            Builtin::ArrayMk => 0,
            Builtin::ArraySet => 3,
            _ => 2,
        }
    }

    /// Whether the builtin is pure (safe to constant-fold / CSE).
    ///
    /// All current builtins are observationally pure; array operations are
    /// still excluded because folding them would duplicate or elide the
    /// exclusivity-dependent in-place update.
    pub fn is_pure(self) -> bool {
        !matches!(
            self,
            Builtin::ArrayMk | Builtin::ArrayGet | Builtin::ArraySet | Builtin::ArrayPush
        )
    }

    /// Whether the builtin is a decidable comparison: its result is always
    /// the scalar `0` or `1` (LEAN's unboxed `Bool`), never a heap object,
    /// so reference counting it is a no-op and code may branch on it
    /// directly.
    pub fn returns_scalar(self) -> bool {
        matches!(
            self,
            Builtin::NatDecEq
                | Builtin::NatDecLt
                | Builtin::NatDecLe
                | Builtin::IntDecEq
                | Builtin::IntDecLt
                | Builtin::IntDecLe
                | Builtin::StrDecEq
        )
    }

    /// Invokes the builtin. Consumes `args`, returns an owned result.
    ///
    /// # Panics
    ///
    /// Panics when given the wrong number of arguments, arguments of the
    /// wrong runtime shape, or an out-of-bounds array index — all of which
    /// are compiler bugs (the LEAN type system rules them out at the source
    /// level).
    pub fn call(self, heap: &mut Heap, args: &[ObjRef]) -> ObjRef {
        assert_eq!(
            args.len(),
            self.arity(),
            "builtin {} expects {} args, got {}",
            self.name(),
            self.arity(),
            args.len()
        );
        match self {
            Builtin::NatAdd => nat_binop(heap, args, |a, b| a + b, |a, b| a.add(&b)),
            Builtin::NatSub => nat_binop(heap, args, |a, b| (a - b).max(0), |a, b| a.sat_sub(&b)),
            Builtin::NatMul => nat_binop(heap, args, |a, b| a * b, |a, b| a.mul(&b)),
            Builtin::NatDiv => nat_binop(
                heap,
                args,
                |a, b| a.checked_div(b).unwrap_or(0),
                |a, b| a.div(&b),
            ),
            Builtin::NatMod => nat_binop(
                heap,
                args,
                |a, b| a.checked_rem(b).unwrap_or(a),
                |a, b| a.rem(&b),
            ),
            Builtin::NatPow => {
                let a = heap.get_nat(args[0]);
                let e = heap
                    .get_nat(args[1])
                    .to_u64()
                    .expect("exponent exceeds u64");
                consume2(heap, args);
                let r = a.pow(e);
                heap.mk_nat(r)
            }
            Builtin::NatGcd => nat_binop(heap, args, gcd_word, |a, b| a.gcd(&b)),
            Builtin::NatDecEq => nat_cmp(heap, args, |o| o == std::cmp::Ordering::Equal),
            Builtin::NatDecLt => nat_cmp(heap, args, |o| o == std::cmp::Ordering::Less),
            Builtin::NatDecLe => nat_cmp(heap, args, |o| o != std::cmp::Ordering::Greater),
            Builtin::IntAdd => int_binop(heap, args, |a, b| a + b, |a, b| a.add(&b)),
            Builtin::IntSub => int_binop(heap, args, |a, b| a - b, |a, b| a.sub(&b)),
            Builtin::IntMul => int_binop(heap, args, |a, b| a * b, |a, b| a.mul(&b)),
            Builtin::IntDiv => int_binop(
                heap,
                args,
                |a, b| a.checked_div(b).unwrap_or(0),
                |a, b| a.div(&b),
            ),
            Builtin::IntMod => int_binop(
                heap,
                args,
                |a, b| a.checked_rem(b).unwrap_or(a),
                |a, b| a.rem(&b),
            ),
            Builtin::IntNeg => {
                let a = heap.get_int(args[0]);
                heap.dec(args[0]);
                let r = a.neg();
                heap.mk_int(r)
            }
            Builtin::IntDecEq => int_cmp(heap, args, |o| o == std::cmp::Ordering::Equal),
            Builtin::IntDecLt => int_cmp(heap, args, |o| o == std::cmp::Ordering::Less),
            Builtin::IntDecLe => int_cmp(heap, args, |o| o != std::cmp::Ordering::Greater),
            Builtin::NatToInt => args[0],
            Builtin::IntToNat => {
                let a = heap.get_int(args[0]);
                if a.is_neg() {
                    heap.dec(args[0]);
                    ObjRef::scalar(0)
                } else {
                    args[0]
                }
            }
            Builtin::ArrayMk => heap.alloc_array(Vec::new()),
            Builtin::ArrayGet => {
                let idx = index_of(heap, args[1]);
                let v = heap.array_get(args[0], idx);
                heap.inc(v);
                heap.dec(args[0]);
                v
            }
            Builtin::ArraySet => {
                let idx = index_of(heap, args[1]);
                heap.array_set(args[0], idx, args[2])
            }
            Builtin::ArrayPush => heap.array_push(args[0], args[1]),
            Builtin::ArraySize => {
                let n = heap.array_len(args[0]);
                heap.dec(args[0]);
                heap.mk_nat(Nat::from_u64(n as u64))
            }
            Builtin::StrAppend => {
                let mut s = heap.get_str(args[0]).to_owned();
                s.push_str(heap.get_str(args[1]));
                consume2(heap, args);
                heap.alloc_str(s)
            }
            Builtin::StrLength => {
                let n = heap.get_str(args[0]).chars().count() as u64;
                heap.dec(args[0]);
                heap.mk_nat(Nat::from_u64(n))
            }
            Builtin::StrDecEq => {
                let eq = heap.get_str(args[0]) == heap.get_str(args[1]);
                consume2(heap, args);
                ObjRef::scalar(eq as i64)
            }
            Builtin::NatToString => {
                let s = heap.get_nat(args[0]).to_string();
                heap.dec(args[0]);
                heap.alloc_str(s)
            }
        }
    }
}

impl FromStr for Builtin {
    type Err = UnknownBuiltinError;

    fn from_str(s: &str) -> Result<Builtin, UnknownBuiltinError> {
        Builtin::ALL
            .iter()
            .copied()
            .find(|b| b.name() == s)
            .ok_or_else(|| UnknownBuiltinError(s.to_string()))
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// The one-word path. Two scalar operands (non-negative ones for the `Nat`
// builtins) are computed in i128, where no operation on two 63-bit
// payloads can overflow, and the result is a scalar again unless it left
// the small range; then it is boxed exactly as the bignum path boxes it.
// Any other operands — a boxed big integer, or a negative scalar given to a
// `Nat` builtin, which `Heap::get_nat` reports — take the bignum path.
// Both paths consume the operands through `Heap::dec`, so they leave the
// same `HeapStats`.

/// Both operands as words, when both are non-negative scalars.
fn word_nats(args: &[ObjRef]) -> Option<(i128, i128)> {
    word_ints(args).filter(|&(a, b)| a >= 0 && b >= 0)
}

/// Both operands as words, when both are scalars.
fn word_ints(args: &[ObjRef]) -> Option<(i128, i128)> {
    Some((args[0].as_scalar()?.into(), args[1].as_scalar()?.into()))
}

/// A one-word result: the scalar, or the boxed integer when it left the
/// small range.
fn word_result(heap: &mut Heap, r: i128) -> ObjRef {
    match i64::try_from(r) {
        Ok(v) if (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&v) => ObjRef::scalar(v),
        _ => heap.mk_int(Int::from_parts(r < 0, Nat::from_u128(r.unsigned_abs()))),
    }
}

/// Euclid on two non-negative words, as [`Nat::gcd`] runs it on limbs.
fn gcd_word(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn consume2(heap: &mut Heap, args: &[ObjRef]) {
    heap.dec(args[0]);
    heap.dec(args[1]);
}

fn nat_binop(
    heap: &mut Heap,
    args: &[ObjRef],
    word: impl FnOnce(i128, i128) -> i128,
    big: impl FnOnce(Nat, Nat) -> Nat,
) -> ObjRef {
    if let Some((a, b)) = word_nats(args) {
        consume2(heap, args);
        return word_result(heap, word(a, b));
    }
    let a = heap.get_nat(args[0]);
    let b = heap.get_nat(args[1]);
    consume2(heap, args);
    heap.mk_nat(big(a, b))
}

fn nat_cmp(heap: &mut Heap, args: &[ObjRef], f: impl FnOnce(std::cmp::Ordering) -> bool) -> ObjRef {
    let order = match word_nats(args) {
        Some((a, b)) => a.cmp(&b),
        None => heap.get_nat(args[0]).cmp_nat(&heap.get_nat(args[1])),
    };
    consume2(heap, args);
    ObjRef::scalar(f(order) as i64)
}

fn int_binop(
    heap: &mut Heap,
    args: &[ObjRef],
    word: impl FnOnce(i128, i128) -> i128,
    big: impl FnOnce(Int, Int) -> Int,
) -> ObjRef {
    if let Some((a, b)) = word_ints(args) {
        consume2(heap, args);
        return word_result(heap, word(a, b));
    }
    let a = heap.get_int(args[0]);
    let b = heap.get_int(args[1]);
    consume2(heap, args);
    heap.mk_int(big(a, b))
}

fn int_cmp(heap: &mut Heap, args: &[ObjRef], f: impl FnOnce(std::cmp::Ordering) -> bool) -> ObjRef {
    let order = match word_ints(args) {
        Some((a, b)) => a.cmp(&b),
        None => heap.get_int(args[0]).cmp_int(&heap.get_int(args[1])),
    };
    consume2(heap, args);
    ObjRef::scalar(f(order) as i64)
}

fn index_of(heap: &Heap, r: ObjRef) -> usize {
    let index = match r.as_scalar() {
        Some(v) if v >= 0 => Some(v.unsigned_abs()),
        _ => heap.get_nat(r).to_u64(),
    };
    index
        .and_then(|v| usize::try_from(v).ok())
        .expect("array index exceeds usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(h: &mut Heap, b: Builtin, args: &[ObjRef]) -> ObjRef {
        b.call(h, args)
    }

    #[test]
    fn registry_round_trip() {
        for &b in Builtin::ALL {
            assert_eq!(b.name().parse::<Builtin>().unwrap(), b);
        }
        assert!("lean_bogus".parse::<Builtin>().is_err());
    }

    #[test]
    fn nat_add_scalars() {
        let mut h = Heap::new();
        let r = call(
            &mut h,
            Builtin::NatAdd,
            &[ObjRef::scalar(2), ObjRef::scalar(3)],
        );
        assert_eq!(r.as_scalar(), Some(5));
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn nat_add_overflow_boxes() {
        let mut h = Heap::new();
        let big = h.mk_nat(Nat::from_u64(crate::object::MAX_SMALL_NAT));
        assert!(big.is_scalar());
        let r = call(&mut h, Builtin::NatAdd, &[big, ObjRef::scalar(1)]);
        assert!(r.is_heap(), "result must be boxed");
        assert_eq!(
            h.get_nat(r).to_u64(),
            Some(crate::object::MAX_SMALL_NAT + 1)
        );
        h.dec(r);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn nat_sub_truncates() {
        let mut h = Heap::new();
        let r = call(
            &mut h,
            Builtin::NatSub,
            &[ObjRef::scalar(3), ObjRef::scalar(10)],
        );
        assert_eq!(r.as_scalar(), Some(0));
    }

    #[test]
    fn nat_div_mod_zero() {
        let mut h = Heap::new();
        let d = call(
            &mut h,
            Builtin::NatDiv,
            &[ObjRef::scalar(7), ObjRef::scalar(0)],
        );
        assert_eq!(d.as_scalar(), Some(0));
        let m = call(
            &mut h,
            Builtin::NatMod,
            &[ObjRef::scalar(7), ObjRef::scalar(0)],
        );
        assert_eq!(m.as_scalar(), Some(7));
    }

    #[test]
    fn dec_eq_mixed_scalar_bigint() {
        // §III-A: `lean_nat_dec_eq` must handle machine-machine,
        // machine-bigint and bigint-bigint uniformly.
        let mut h = Heap::new();
        let big1 = h.mk_nat(Nat::from_u64(u64::MAX));
        let big2 = h.mk_nat(Nat::from_u64(u64::MAX));
        let r = call(&mut h, Builtin::NatDecEq, &[big1, big2]);
        assert_eq!(r.as_scalar(), Some(1));
        let big3 = h.mk_nat(Nat::from_u64(u64::MAX));
        let r = call(&mut h, Builtin::NatDecEq, &[big3, ObjRef::scalar(42)]);
        assert_eq!(r.as_scalar(), Some(0));
        let r = call(
            &mut h,
            Builtin::NatDecEq,
            &[ObjRef::scalar(42), ObjRef::scalar(42)],
        );
        assert_eq!(r.as_scalar(), Some(1));
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn comparisons() {
        let mut h = Heap::new();
        let lt = call(
            &mut h,
            Builtin::NatDecLt,
            &[ObjRef::scalar(2), ObjRef::scalar(3)],
        );
        assert_eq!(lt.as_scalar(), Some(1));
        let le = call(
            &mut h,
            Builtin::NatDecLe,
            &[ObjRef::scalar(3), ObjRef::scalar(3)],
        );
        assert_eq!(le.as_scalar(), Some(1));
        let nlt = call(
            &mut h,
            Builtin::NatDecLt,
            &[ObjRef::scalar(3), ObjRef::scalar(3)],
        );
        assert_eq!(nlt.as_scalar(), Some(0));
    }

    #[test]
    fn int_ops_signs() {
        let mut h = Heap::new();
        let a = h.mk_int(Int::from_i64(-7));
        let r = call(&mut h, Builtin::IntAdd, &[a, ObjRef::scalar(3)]);
        assert_eq!(r.as_scalar(), Some(-4));
        let n = call(&mut h, Builtin::IntNeg, &[ObjRef::scalar(5)]);
        assert_eq!(n.as_scalar(), Some(-5));
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn int_to_nat_clamps() {
        let mut h = Heap::new();
        let r = call(&mut h, Builtin::IntToNat, &[ObjRef::scalar(-9)]);
        assert_eq!(r.as_scalar(), Some(0));
        let r = call(&mut h, Builtin::IntToNat, &[ObjRef::scalar(9)]);
        assert_eq!(r.as_scalar(), Some(9));
    }

    #[test]
    fn array_builtin_flow() {
        let mut h = Heap::new();
        let arr = call(&mut h, Builtin::ArrayMk, &[]);
        let arr = call(&mut h, Builtin::ArrayPush, &[arr, ObjRef::scalar(10)]);
        let arr = call(&mut h, Builtin::ArrayPush, &[arr, ObjRef::scalar(20)]);
        h.inc(arr);
        let size = call(&mut h, Builtin::ArraySize, &[arr]);
        assert_eq!(size.as_scalar(), Some(2));
        h.inc(arr);
        let v = call(&mut h, Builtin::ArrayGet, &[arr, ObjRef::scalar(1)]);
        assert_eq!(v.as_scalar(), Some(20));
        let arr = call(
            &mut h,
            Builtin::ArraySet,
            &[arr, ObjRef::scalar(0), ObjRef::scalar(99)],
        );
        assert_eq!(h.array_get(arr, 0).as_scalar(), Some(99));
        h.dec(arr);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn string_builtins() {
        let mut h = Heap::new();
        let a = h.alloc_str("foo".into());
        let b = h.alloc_str("bar".into());
        let c = call(&mut h, Builtin::StrAppend, &[a, b]);
        assert_eq!(h.get_str(c), "foobar");
        let n = call(&mut h, Builtin::StrLength, &[c]);
        assert_eq!(n.as_scalar(), Some(6));
        let x = h.alloc_str("x".into());
        let y = h.alloc_str("x".into());
        let eq = call(&mut h, Builtin::StrDecEq, &[x, y]);
        assert_eq!(eq.as_scalar(), Some(1));
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn nat_to_string() {
        let mut h = Heap::new();
        let big = h.mk_nat(Nat::from_str_decimal("123456789012345678901234567890").unwrap());
        let s = call(&mut h, Builtin::NatToString, &[big]);
        assert_eq!(h.get_str(s), "123456789012345678901234567890");
        h.dec(s);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn pow_and_gcd() {
        let mut h = Heap::new();
        let p = call(
            &mut h,
            Builtin::NatPow,
            &[ObjRef::scalar(2), ObjRef::scalar(10)],
        );
        assert_eq!(p.as_scalar(), Some(1024));
        let g = call(
            &mut h,
            Builtin::NatGcd,
            &[ObjRef::scalar(48), ObjRef::scalar(36)],
        );
        assert_eq!(g.as_scalar(), Some(12));
    }

    #[test]
    fn decided_builtins_return_scalar_booleans() {
        let mut h = Heap::new();
        let big = || Nat::from_str_decimal("123456789012345678901234567890").unwrap();
        for &b in Builtin::ALL.iter().filter(|b| b.returns_scalar()) {
            assert_eq!(b.arity(), 2, "{b}");
            let args = if b == Builtin::StrDecEq {
                [h.alloc_str("a".into()), h.alloc_str("b".into())]
            } else {
                [h.mk_nat(big()), ObjRef::scalar(3)]
            };
            let r = b.call(&mut h, &args);
            assert!(matches!(r.as_scalar(), Some(0 | 1)), "{b} returned {r:?}");
        }
        assert_eq!(h.stats().live, 0);
        assert!(!Builtin::NatAdd.returns_scalar());
        assert!(!Builtin::ArraySize.returns_scalar());
    }

    #[test]
    fn purity_classification() {
        assert!(Builtin::NatAdd.is_pure());
        assert!(!Builtin::ArraySet.is_pure());
        assert!(!Builtin::ArrayMk.is_pure());
    }
}
