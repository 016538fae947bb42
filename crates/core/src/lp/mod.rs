//! The `lp` dialect: λrc embedded in SSA (§III, Figure 2).
//!
//! The operations themselves live in `lssa-ir`'s opcode set (`lp.*`); this
//! module owns the semantics-level tooling around them:
//!
//! - [`from_lambda`] — the λrc → lp lowering (data constructors, staged
//!   integer matching, join points, closures, reference counting),
//! - [`declare_externs`] — declaring the LEAN runtime-call surface in a
//!   module.

pub mod from_lambda;

use lssa_ir::prelude::*;
use lssa_rt::Builtin;

/// Declares every runtime builtin as an external function.
///
/// The lp dialect is type-erased (§III): all runtime calls take and return
/// the uniform boxed type `!lp.t`, including decidable comparisons (whose
/// scalar 0/1 result is a valid zero-field constructor encoding).
pub fn declare_externs(module: &mut Module) {
    for &b in Builtin::ALL {
        module.declare_extern_static(b.name(), Signature::obj(b.arity()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn externs_declared_once() {
        let mut m = Module::new();
        declare_externs(&mut m);
        let n = m.funcs.len();
        declare_externs(&mut m);
        assert_eq!(m.funcs.len(), n, "idempotent");
        assert!(m.func_by_name("lean_nat_add").unwrap().is_extern());
    }
}
