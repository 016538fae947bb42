//! Modules: collections of functions and globals, plus the symbol interner.

use crate::body::Body;
use crate::hash::FxHashMap;
use crate::ids::{Interner, Symbol};
use crate::types::{Signature, Type};

/// A function: named, typed, and (unless external) carrying a body.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's global symbol.
    pub name: Symbol,
    /// Parameter and result types.
    pub sig: Signature,
    /// The IR body; `None` for external declarations (runtime functions).
    pub body: Option<Body>,
}

impl Function {
    /// Whether this is an external declaration.
    pub fn is_extern(&self) -> bool {
        self.body.is_none()
    }
}

/// A module-level global slot (top-level closures, Figure 7's `@kslot`).
#[derive(Debug, Clone)]
pub struct Global {
    /// The global's symbol.
    pub name: Symbol,
    /// The slot's type.
    pub ty: Type,
}

/// A compilation unit: functions, globals, interner.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Symbol interner shared by everything in the module.
    pub interner: Interner,
    /// Functions in definition order.
    pub funcs: Vec<Function>,
    /// Global slots.
    pub globals: Vec<Global>,
    func_index: FxHashMap<Symbol, usize>,
    global_index: FxHashMap<Symbol, usize>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Makes room for `additional` more functions and symbols.
    pub fn reserve(&mut self, additional: usize) {
        self.interner.reserve(additional);
        self.funcs.reserve(additional);
        self.func_index.reserve(additional);
    }

    /// Interns a string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol to its string.
    pub fn name_of(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Adds a function with a body. Returns its symbol.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, name: &str, sig: Signature, body: Body) -> Symbol {
        let sym = self.intern(name);
        assert!(
            !self.func_index.contains_key(&sym),
            "duplicate function @{name}"
        );
        self.func_index.insert(sym, self.funcs.len());
        self.funcs.push(Function {
            name: sym,
            sig,
            body: Some(body),
        });
        sym
    }

    /// Declares an external function (resolved by the runtime/linker).
    pub fn declare_extern(&mut self, name: &str, sig: Signature) -> Symbol {
        let sym = self.intern(name);
        self.declare_extern_sym(sym, sig)
    }

    /// [`Module::declare_extern`] for a `'static` name, which the interner
    /// keeps without copying.
    pub fn declare_extern_static(&mut self, name: &'static str, sig: Signature) -> Symbol {
        let sym = self.interner.intern_static(name);
        self.declare_extern_sym(sym, sig)
    }

    fn declare_extern_sym(&mut self, sym: Symbol, sig: Signature) -> Symbol {
        if let Some(&i) = self.func_index.get(&sym) {
            assert_eq!(
                self.funcs[i].sig,
                sig,
                "conflicting redeclaration of @{}",
                self.name_of(sym)
            );
            return sym;
        }
        self.func_index.insert(sym, self.funcs.len());
        self.funcs.push(Function {
            name: sym,
            sig,
            body: None,
        });
        sym
    }

    /// Adds a global slot.
    pub fn add_global(&mut self, name: &str, ty: Type) -> Symbol {
        let sym = self.intern(name);
        assert!(
            !self.global_index.contains_key(&sym),
            "duplicate global @{name}"
        );
        self.global_index.insert(sym, self.globals.len());
        self.globals.push(Global { name: sym, ty });
        sym
    }

    /// Looks up a function by symbol.
    pub fn func(&self, sym: Symbol) -> Option<&Function> {
        self.func_index.get(&sym).map(|&i| &self.funcs[i])
    }

    /// Looks up a function mutably.
    pub fn func_mut(&mut self, sym: Symbol) -> Option<&mut Function> {
        self.func_index.get(&sym).map(|&i| &mut self.funcs[i])
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.interner.get(name).and_then(|s| self.func(s))
    }

    /// Looks up a global by symbol.
    pub fn global(&self, sym: Symbol) -> Option<&Global> {
        self.global_index.get(&sym).map(|&i| &self.globals[i])
    }

    /// Index of a function in `funcs` (stable identity for the VM).
    pub fn func_position(&self, sym: Symbol) -> Option<usize> {
        self.func_index.get(&sym).copied()
    }

    /// Total live (attached) op count across every function body — the
    /// module-size metric recorded in pass statistics.
    pub fn live_op_count(&self) -> usize {
        self.funcs
            .iter()
            .filter_map(|f| f.body.as_ref())
            .map(|b| b.live_op_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new();
        let (body, _) = Body::new(&[Type::Obj]);
        let sym = m.add_function("foo", Signature::obj(1), body);
        assert!(m.func(sym).is_some());
        assert!(m.func_by_name("foo").is_some());
        assert!(m.func_by_name("bar").is_none());
        assert_eq!(m.func_position(sym), Some(0));
        assert!(!m.func(sym).unwrap().is_extern());
    }

    #[test]
    fn extern_declaration_idempotent() {
        let mut m = Module::new();
        let s1 = m.declare_extern("lean_nat_add", Signature::obj(2));
        let s2 = m.declare_extern("lean_nat_add", Signature::obj(2));
        assert_eq!(s1, s2);
        assert_eq!(m.funcs.len(), 1);
        assert!(m.func(s1).unwrap().is_extern());
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new();
        let (b1, _) = Body::new(&[]);
        let (b2, _) = Body::new(&[]);
        m.add_function("f", Signature::obj(0), b1);
        m.add_function("f", Signature::obj(0), b2);
    }

    #[test]
    fn globals() {
        let mut m = Module::new();
        let g = m.add_global("kslot", Type::Obj);
        assert_eq!(m.global(g).unwrap().ty, Type::Obj);
        assert_eq!(m.name_of(g), "kslot");
    }
}
