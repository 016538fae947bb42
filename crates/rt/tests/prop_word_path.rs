//! The one-word path of the two-operand `Nat`/`Int` builtins and of array
//! indexing, held to the bignum path: for scalar operands, each builtin
//! must give the same value, in the same representation, with the same
//! `HeapStats` delta as the operation done through `Nat`/`Int` directly
//! and boxed with `Heap::mk_nat`/`Heap::mk_int`.

use lssa_rt::bignum::Int;
use lssa_rt::object::{MAX_SMALL_INT, MAX_SMALL_NAT, MIN_SMALL_INT};
use lssa_rt::{Builtin, Heap, ObjRef};
use proptest::prelude::*;
use std::cmp::Ordering;

const NAT_OPS: [Builtin; 9] = [
    Builtin::NatAdd,
    Builtin::NatSub,
    Builtin::NatMul,
    Builtin::NatDiv,
    Builtin::NatMod,
    Builtin::NatGcd,
    Builtin::NatDecEq,
    Builtin::NatDecLt,
    Builtin::NatDecLe,
];

const INT_OPS: [Builtin; 8] = [
    Builtin::IntAdd,
    Builtin::IntSub,
    Builtin::IntMul,
    Builtin::IntDiv,
    Builtin::IntMod,
    Builtin::IntDecEq,
    Builtin::IntDecLt,
    Builtin::IntDecLe,
];

/// The small range's ends and their neighbours (the ones just outside are
/// boxed operands), zero divisors, and operands whose sums and products
/// leave the small range.
const EDGES: [i64; 17] = [
    0,
    1,
    -1,
    2,
    -2,
    MAX_SMALL_NAT as i64,
    MAX_SMALL_INT - 1,
    MIN_SMALL_INT,
    MIN_SMALL_INT + 1,
    1 << 31,
    -(1 << 31),
    1 << 32,
    -(1 << 32),
    MAX_SMALL_INT + 1,
    MIN_SMALL_INT - 1,
    i64::MAX,
    i64::MIN,
];

/// The builtin on `a` and `b` done through `Int` and `Nat` directly,
/// consuming both operands as the builtins do.
fn through_bignums(heap: &mut Heap, op: Builtin, a: ObjRef, b: ObjRef) -> ObjRef {
    let (x, y) = (heap.get_int(a), heap.get_int(b));
    heap.dec(a);
    heap.dec(b);
    let (m, n) = (x.magnitude(), y.magnitude());
    let decide = |holds: bool| ObjRef::scalar(i64::from(holds));
    match op {
        Builtin::NatAdd => heap.mk_nat(m.add(n)),
        Builtin::NatSub => heap.mk_nat(m.sat_sub(n)),
        Builtin::NatMul => heap.mk_nat(m.mul(n)),
        Builtin::NatDiv => heap.mk_nat(m.div(n)),
        Builtin::NatMod => heap.mk_nat(m.rem(n)),
        Builtin::NatGcd => heap.mk_nat(m.gcd(n)),
        Builtin::NatDecEq => decide(m.cmp_nat(n) == Ordering::Equal),
        Builtin::NatDecLt => decide(m.cmp_nat(n) == Ordering::Less),
        Builtin::NatDecLe => decide(m.cmp_nat(n) != Ordering::Greater),
        Builtin::IntAdd => heap.mk_int(x.add(&y)),
        Builtin::IntSub => heap.mk_int(x.sub(&y)),
        Builtin::IntMul => heap.mk_int(x.mul(&y)),
        Builtin::IntDiv => heap.mk_int(x.div(&y)),
        Builtin::IntMod => heap.mk_int(x.rem(&y)),
        Builtin::IntDecEq => decide(x.cmp_int(&y) == Ordering::Equal),
        Builtin::IntDecLt => decide(x.cmp_int(&y) == Ordering::Less),
        Builtin::IntDecLe => decide(x.cmp_int(&y) != Ordering::Greater),
        other => unreachable!("{other} is not a two-operand arithmetic builtin"),
    }
}

/// `op` on `a` and `b` through the builtin and through the bignums, each on
/// a fresh heap: equal values and representations, equal stats before and
/// after (so equal deltas), and both heaps empty once the results go.
fn check(op: Builtin, a: i64, b: i64) -> Result<(), TestCaseError> {
    let (mut word, mut big) = (Heap::new(), Heap::new());
    let operands = |h: &mut Heap| [h.mk_int(Int::from_i64(a)), h.mk_int(Int::from_i64(b))];
    let (w, g) = (operands(&mut word), operands(&mut big));
    prop_assert_eq!(word.stats(), big.stats());
    let r = op.call(&mut word, &w);
    let expected = through_bignums(&mut big, op, g[0], g[1]);
    let context = format!("{op}({a}, {b})");
    prop_assert_eq!(word.get_int(r), big.get_int(expected), "{}", context);
    prop_assert_eq!(r.is_scalar(), expected.is_scalar(), "{}", context);
    prop_assert_eq!(word.stats(), big.stats(), "{}", context);
    word.dec(r);
    big.dec(expected);
    prop_assert_eq!(word.stats().live, 0, "{}", context);
    prop_assert_eq!(big.stats().live, 0, "{}", context);
    Ok(())
}

fn check_all(a: i64, b: i64) -> Result<(), TestCaseError> {
    for op in INT_OPS {
        check(op, a, b)?;
    }
    if a >= 0 && b >= 0 {
        for op in NAT_OPS {
            check(op, a, b)?;
        }
    }
    Ok(())
}

/// Random scalars over the whole small range, small ones, and the edges.
fn word() -> impl Strategy<Value = i64> {
    prop_oneof![
        MIN_SMALL_INT..MAX_SMALL_INT + 1,
        -1000i64..1000,
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
    ]
}

#[test]
fn edge_operands_match_the_bignum_path() {
    for a in EDGES {
        for b in EDGES {
            check_all(a, b).unwrap();
        }
    }
}

#[test]
fn min_small_int_divided_by_minus_one_is_boxed() {
    check(Builtin::IntDiv, MIN_SMALL_INT, -1).unwrap();
    let mut h = Heap::new();
    let r = Builtin::IntDiv.call(&mut h, &[ObjRef::scalar(MIN_SMALL_INT), ObjRef::scalar(-1)]);
    assert!(r.is_heap());
    assert_eq!(h.get_int(r), Int::from_i64(MAX_SMALL_INT + 1));
}

#[test]
#[should_panic(expected = "expected natural, found negative -1")]
fn a_negative_scalar_nat_operand_reaches_the_diagnostic() {
    Builtin::NatAdd.call(&mut Heap::new(), &[ObjRef::scalar(-1), ObjRef::scalar(2)]);
}

#[test]
#[should_panic(expected = "expected natural, found negative -3")]
fn a_negative_scalar_index_reaches_the_diagnostic() {
    let mut h = Heap::new();
    let arr = h.alloc_array(vec![ObjRef::scalar(7); 4]);
    Builtin::ArrayGet.call(&mut h, &[arr, ObjRef::scalar(-3)]);
}

proptest! {
    #[test]
    fn word_operands_match_the_bignum_path(a in word(), b in word()) {
        check_all(a, b)?;
    }

    #[test]
    fn array_index_matches_the_bignum_path(len in 1usize..40, pick in any::<u64>(), v in word()) {
        let index = (pick % len as u64) as i64;
        let (mut word, mut big) = (Heap::new(), Heap::new());
        // Elements from `v` on: boxed ones when they leave the small range.
        let array = |h: &mut Heap| {
            let elems = (0..len as i64).map(|k| h.mk_int(Int::from_i64(v.saturating_add(k)))).collect();
            h.alloc_array(elems)
        };
        let (w, g) = (array(&mut word), array(&mut big));
        word.inc(w);
        big.inc(g);
        // The bignum path's index: the scalar read through `Int`.
        let at = big.get_int(ObjRef::scalar(index)).magnitude().to_u64().unwrap() as usize;

        let got = Builtin::ArrayGet.call(&mut word, &[w, ObjRef::scalar(index)]);
        let expected = big.array_get(g, at);
        big.inc(expected);
        big.dec(g);
        prop_assert_eq!(word.get_int(got), big.get_int(expected));
        prop_assert_eq!(word.stats(), big.stats());

        let w = Builtin::ArraySet.call(&mut word, &[w, ObjRef::scalar(index), got]);
        let g = big.array_set(g, at, expected);
        prop_assert_eq!(word.stats(), big.stats());
        prop_assert_eq!(word.render(w), big.render(g));
        word.dec(w);
        big.dec(g);
        prop_assert_eq!(word.stats(), big.stats());
        prop_assert_eq!(word.stats().live, 0);
    }
}
