//! Tests for alpha-equivalence and capture-avoiding renaming — the
//! machinery behind `simpcase` (common-branch fusion) and join-point
//! lambda lifting.

use lssa_lambda::ast::{Arena, BlockId, BodyBuilder, Name, Stmt, Terminator, Value};
use std::collections::HashMap;

/// The arena of a function whose body `body` builds, and its body block.
fn build(body: impl FnOnce(&mut BodyBuilder) -> BlockId) -> (Arena, BlockId) {
    let mut b = BodyBuilder::default();
    b.open();
    let entry = body(&mut b);
    let f = b.finish(Name(0), &[], entry, 100, 10);
    (f.arena, f.body)
}

/// `let var = v; ret var`
fn lit(var: u32, v: i64, ret: u32) -> (Arena, BlockId) {
    build(|b| {
        b.let_(var, Value::LitInt(v));
        b.ret(ret)
    })
}

fn ret(v: u32) -> (Arena, BlockId) {
    build(|b| b.ret(v))
}

/// `case x0 of arms | default`, every branch `ret x0`.
fn case(tags: &[u32], default: bool) -> (Arena, BlockId) {
    build(|b| {
        let arms: Vec<(u32, BlockId)> = tags
            .iter()
            .map(|&t| {
                b.open();
                (t, b.ret(0))
            })
            .collect();
        let default = default.then(|| {
            b.open();
            b.ret(0)
        });
        b.case(0, &arms, default)
    })
}

/// `join j(params…) = ret params[0] in jump j(x0)`
fn join(label: u32, param: u32) -> (Arena, BlockId) {
    build(|b| {
        b.open();
        let body = b.ret(param);
        let params = b.list(&[param]);
        b.push(Stmt::Join {
            label,
            params,
            body,
        });
        b.jump(label, &[0])
    })
}

fn alpha_eq((xa, x): &(Arena, BlockId), (ya, y): &(Arena, BlockId)) -> bool {
    xa.alpha_eq(*x, ya, *y)
}

/// `e` with its free variables renamed by `map`.
fn rename((mut arena, b): (Arena, BlockId), map: &HashMap<u32, u32>) -> (Arena, BlockId) {
    arena.rename_free(b, |v| map.get(&v).copied());
    (arena, b)
}

#[test]
fn alpha_eq_ignores_binder_names() {
    assert!(alpha_eq(&lit(1, 7, 1), &lit(9, 7, 9)));
}

#[test]
fn alpha_eq_distinguishes_values() {
    assert!(!alpha_eq(&lit(1, 7, 1), &lit(1, 8, 1)));
}

#[test]
fn alpha_eq_free_variables_must_match_exactly() {
    // ret x0 vs ret x1 with both free: different.
    assert!(!alpha_eq(&ret(0), &ret(1)));
    assert!(alpha_eq(&ret(0), &ret(0)));
}

#[test]
fn alpha_eq_respects_structure() {
    let a = case(&[0], false);
    assert!(!alpha_eq(&a, &case(&[1], false)), "different tags");
    assert!(!alpha_eq(&a, &case(&[0], true)), "extra default arm");
}

#[test]
fn alpha_eq_join_points_modulo_labels() {
    assert!(alpha_eq(&join(0, 5), &join(3, 9)));
}

#[test]
fn alpha_eq_binder_mapping_does_not_leak() {
    // let x1 = 1; ret x1  vs  let x2 = 1; ret x1(free!) — not equal.
    assert!(!alpha_eq(&lit(1, 1, 1), &lit(2, 1, 1)));
}

#[test]
fn rename_free_renames_uses() {
    let e = build(|b| {
        let args = b.list(&[0, 1]);
        b.let_(2, Value::Ctor { tag: 0, args });
        b.ret(2)
    });
    let map = HashMap::from([(0u32, 10u32)]);
    let (arena, b) = rename(e, &map);
    let fv = arena.free_vars(b);
    assert!(fv.contains(&10));
    assert!(!fv.contains(&0));
    assert!(fv.contains(&1));
}

#[test]
fn rename_free_stops_at_binders() {
    // let x0 = 5; ret x0 — renaming x0 must not touch the bound occurrence.
    let map = HashMap::from([(0u32, 99u32)]);
    assert_eq!(
        rename(lit(0, 5, 0), &map),
        lit(0, 5, 0),
        "bound x0 is untouchable"
    );
}

#[test]
fn rename_free_in_join_bodies_respects_params() {
    // x1 is a jp param: bound inside jp_body; x0 is free in the jump.
    let map = HashMap::from([(1u32, 50u32), (0u32, 60u32)]);
    let (arena, b) = rename(join(0, 1), &map);
    let [Stmt::Join { body, .. }] = arena.stmts(b) else {
        panic!("{arena:?}")
    };
    assert_eq!(
        *arena.term(*body),
        Terminator::Ret(1),
        "param occurrence untouched"
    );
    let Terminator::Jump { label: 0, args } = *arena.term(b) else {
        panic!("{arena:?}")
    };
    assert_eq!(arena.vars(args), [60]);
}

#[test]
fn rename_is_identity_for_disjoint_maps() {
    let e = || {
        build(|b| {
            b.let_(3, Value::LitInt(9));
            b.open();
            let arm = b.ret(3);
            b.case(3, &[(0, arm)], None)
        })
    };
    let map = HashMap::from([(77u32, 88u32)]);
    assert_eq!(rename(e(), &map), e());
}
