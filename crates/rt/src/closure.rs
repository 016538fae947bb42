//! Closure construction and application semantics.
//!
//! `lp.pap` builds a closure from a top-level function and some prefix of its
//! arguments; `lp.papextend` adds further arguments to an existing closure.
//! When the argument count reaches the function's arity the call fires. These
//! semantics live here, in the runtime, because both the reference
//! interpreter and the VM must agree on them exactly (§III-D of the paper).

use crate::heap::Heap;
use crate::object::{FuncId, ObjData, ObjRef};

/// What happens when arguments are added to a (partial) application.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyOutcome {
    /// Still under-saturated: a (new) closure value holding the arguments.
    Partial(ObjRef),
    /// Exactly saturated: invoke `func` with `args`.
    Call {
        /// Function to invoke.
        func: FuncId,
        /// Exactly `arity` arguments.
        args: Vec<ObjRef>,
    },
    /// Over-saturated: invoke `func` with `args`, then apply the returned
    /// closure to `rest`.
    CallThen {
        /// Function to invoke first.
        func: FuncId,
        /// Exactly `arity` arguments.
        args: Vec<ObjRef>,
        /// Remaining arguments to apply to the call's result.
        rest: Vec<ObjRef>,
    },
}

/// Builds a partial application of a top-level function (`lp.pap`).
///
/// Takes ownership of `args`. If the argument list already saturates the
/// function, the call fires instead of allocating a closure.
pub fn pap_new(heap: &mut Heap, func: FuncId, arity: u16, args: Vec<ObjRef>) -> ApplyOutcome {
    saturate(heap, func, arity, args)
}

/// Extends a closure with further arguments (`lp.papextend`).
///
/// Takes ownership of one reference to `closure` and of `new_args`.
///
/// # Panics
///
/// Panics if `closure` is not a closure object.
pub fn pap_extend(heap: &mut Heap, closure: ObjRef, new_args: Vec<ObjRef>) -> ApplyOutcome {
    let (func, arity, mut args) = match heap.data(closure) {
        ObjData::Closure { func, arity, args } => (*func, *arity, args.clone()),
        other => panic!("papextend on non-closure {other:?}"),
    };
    // The captured arguments gain a reference in the (possibly new) argument
    // vector; the closure itself loses the reference we consumed.
    for &a in &args {
        heap.inc(a);
    }
    heap.dec(closure);
    args.extend(new_args);
    saturate(heap, func, arity, args)
}

fn saturate(heap: &mut Heap, func: FuncId, arity: u16, args: Vec<ObjRef>) -> ApplyOutcome {
    use std::cmp::Ordering;
    match args.len().cmp(&(arity as usize)) {
        Ordering::Less => ApplyOutcome::Partial(heap.alloc_closure(func, arity, args)),
        Ordering::Equal => ApplyOutcome::Call { func, args },
        Ordering::Greater => {
            let rest = args[arity as usize..].to_vec();
            let args = args[..arity as usize].to_vec();
            ApplyOutcome::CallThen { func, args, rest }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_saturated_builds_closure() {
        let mut h = Heap::new();
        let out = pap_new(&mut h, FuncId(0), 3, vec![ObjRef::scalar(1)]);
        match out {
            ApplyOutcome::Partial(c) => {
                match h.data(c) {
                    ObjData::Closure { func, arity, args } => {
                        assert_eq!(*func, FuncId(0));
                        assert_eq!(*arity, 3);
                        assert_eq!(args.len(), 1);
                    }
                    _ => panic!("expected closure"),
                }
                h.dec(c);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn exact_saturation_fires_call() {
        let mut h = Heap::new();
        let out = pap_new(
            &mut h,
            FuncId(4),
            2,
            vec![ObjRef::scalar(1), ObjRef::scalar(2)],
        );
        assert_eq!(
            out,
            ApplyOutcome::Call {
                func: FuncId(4),
                args: vec![ObjRef::scalar(1), ObjRef::scalar(2)]
            }
        );
    }

    #[test]
    fn extend_to_saturation() {
        let mut h = Heap::new();
        let c = match pap_new(&mut h, FuncId(1), 2, vec![ObjRef::scalar(10)]) {
            ApplyOutcome::Partial(c) => c,
            other => panic!("{other:?}"),
        };
        let out = pap_extend(&mut h, c, vec![ObjRef::scalar(20)]);
        assert_eq!(
            out,
            ApplyOutcome::Call {
                func: FuncId(1),
                args: vec![ObjRef::scalar(10), ObjRef::scalar(20)]
            }
        );
        assert_eq!(h.stats().live, 0, "consumed closure must be freed");
    }

    #[test]
    fn extend_stays_partial() {
        let mut h = Heap::new();
        let c = match pap_new(&mut h, FuncId(1), 4, vec![ObjRef::scalar(1)]) {
            ApplyOutcome::Partial(c) => c,
            other => panic!("{other:?}"),
        };
        let out = pap_extend(&mut h, c, vec![ObjRef::scalar(2)]);
        match out {
            ApplyOutcome::Partial(c2) => {
                match h.data(c2) {
                    ObjData::Closure { args, .. } => assert_eq!(args.len(), 2),
                    _ => panic!(),
                }
                h.dec(c2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn over_saturation_splits_args() {
        let mut h = Heap::new();
        let c = match pap_new(&mut h, FuncId(9), 2, vec![ObjRef::scalar(1)]) {
            ApplyOutcome::Partial(c) => c,
            other => panic!("{other:?}"),
        };
        let out = pap_extend(&mut h, c, vec![ObjRef::scalar(2), ObjRef::scalar(3)]);
        assert_eq!(
            out,
            ApplyOutcome::CallThen {
                func: FuncId(9),
                args: vec![ObjRef::scalar(1), ObjRef::scalar(2)],
                rest: vec![ObjRef::scalar(3)],
            }
        );
    }

    #[test]
    fn shared_closure_extension_keeps_original() {
        let mut h = Heap::new();
        let captured = h.alloc_ctor(5, vec![ObjRef::scalar(0)]);
        let c = match pap_new(&mut h, FuncId(2), 2, vec![captured]) {
            ApplyOutcome::Partial(c) => c,
            other => panic!("{other:?}"),
        };
        h.inc(c); // share it
        let out = pap_extend(&mut h, c, vec![ObjRef::scalar(7)]);
        match out {
            ApplyOutcome::Call { args, .. } => {
                assert_eq!(args[0], captured);
                assert_eq!(args[1], ObjRef::scalar(7));
            }
            other => panic!("{other:?}"),
        }
        // Original closure still alive and intact.
        match h.data(c) {
            ObjData::Closure { args, .. } => assert_eq!(args.len(), 1),
            _ => panic!(),
        }
        // captured now referenced by both the closure and the fired args.
        assert_eq!(h.rc(captured), 2);
        h.dec(captured);
        h.dec(c);
        assert_eq!(h.stats().live, 0);
    }
}
