//! Typed arena indices for IR entities.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        // `Default` (index 0) exists so id lists can live in
        // [`crate::inline_vec::InlineVec`] buffers, whose unused inline
        // slots hold placeholder values; it carries no semantic meaning.
        #[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Index form for arena access.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// An operation within a function body.
    OpId,
    "op"
);
define_id!(
    /// An SSA value (operation result or block argument).
    ValueId,
    "%"
);
define_id!(
    /// A basic block within a function body.
    BlockId,
    "^bb"
);
define_id!(
    /// A region (nested, single-entry sub-CFG) within a function body.
    RegionId,
    "rgn"
);
define_id!(
    /// An interned string (function names, labels, global names).
    Symbol,
    "@sym"
);

/// A symbol's text: a `'static` name kept by reference, or the one copy
/// of a name given by reference, shared by the symbol table and the map.
#[derive(Debug, Clone)]
enum Text {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Shared(s) => s,
        }
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self
    }
}

// Hashing and equality are the text's, so the map can be probed with a
// plain `&str`.
impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        **self == **other
    }
}

impl Eq for Text {}

/// Interner for [`Symbol`]s.
///
/// A name given as a `&'static str` ([`Interner::intern_static`], e.g. a
/// runtime builtin's) is kept by reference: declaring the runtime surface
/// in every module copies no strings. Any other name is copied once, into
/// a buffer the symbol table and the map share. Names come from program
/// text, so the map keeps the default, seeded hasher.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<Text>,
    map: HashMap<Text, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Makes room for `additional` more symbols.
    pub fn reserve(&mut self, additional: usize) {
        self.strings.reserve(additional);
        self.map.reserve(additional);
    }

    /// Interns a string, returning its symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        match self.map.get(s) {
            Some(&sym) => sym,
            None => self.push(Text::Shared(Arc::from(s))),
        }
    }

    /// Interns a `'static` string without copying it.
    pub fn intern_static(&mut self, s: &'static str) -> Symbol {
        match self.map.get(s) {
            Some(&sym) => sym,
            None => self.push(Text::Static(s)),
        }
    }

    fn push(&mut self, s: Text) -> Symbol {
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.clone());
        self.map.insert(s, sym);
        sym
    }

    /// Looks up a symbol's string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Looks up an already-interned string.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let a2 = i.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.get("bar"), Some(b));
        assert_eq!(i.get("baz"), None);
        let c = i.intern_static("lean_nat_add");
        assert_eq!(i.intern("lean_nat_add"), c);
        assert_eq!(i.intern_static("foo"), a);
        assert_eq!(i.resolve(c), "lean_nat_add");
    }

    #[test]
    fn a_name_is_stored_once() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let Text::Shared(held) = &i.strings[a.index()] else {
            panic!("an owned name is shared")
        };
        // The symbol table and the map hold the one copy.
        assert_eq!(Arc::strong_count(held), 2);
        let b = i.intern_static("lean_nat_add");
        assert!(matches!(i.strings[b.index()], Text::Static(_)));
    }

    #[test]
    fn id_display() {
        assert_eq!(ValueId(3).to_string(), "%3");
        assert_eq!(BlockId(1).to_string(), "^bb1");
        assert_eq!(format!("{:?}", OpId(9)), "op9");
    }
}
