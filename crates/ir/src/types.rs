//! The IR type system.
//!
//! Like λrc (§III of the paper), the IR is almost type-erased: one uniform
//! boxed type `!lp.t` for heap values, machine integer types for tags and
//! arithmetic, plus `!rgn.region` — the type of region values created by
//! `rgn.val` (§IV).

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// An IR value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit integer (booleans, `select` conditions).
    I1,
    /// 8-bit integer (constructor tags, decidable-equality results).
    I8,
    /// 64-bit integer (machine arithmetic).
    I64,
    /// The uniform boxed type `!lp.t`.
    Obj,
    /// A region value `!rgn.region` — a first-class sub-computation.
    Rgn,
}

impl Type {
    /// `n` copies of [`Type::Obj`], λrc's parameter list; up to 16 it
    /// allocates nothing.
    pub fn objs(n: usize) -> Cow<'static, [Type]> {
        const OBJS: [Type; 16] = [Type::Obj; 16];
        match OBJS.get(..n) {
            Some(objs) => Cow::Borrowed(objs),
            None => Cow::Owned(vec![Type::Obj; n]),
        }
    }

    /// Whether this is one of the machine integer types.
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I64)
    }

    /// Bit width for integer types.
    pub fn bit_width(self) -> Option<u32> {
        match self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I64 => Some(64),
            Type::Obj | Type::Rgn => None,
        }
    }

    /// Wraps `v` to this integer type's range (used by constant folding).
    ///
    /// # Panics
    ///
    /// Panics on non-integer types.
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            Type::I1 => v & 1,
            Type::I8 => v as i8 as i64,
            Type::I64 => v,
            _ => panic!("wrap on non-integer type {self}"),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I1 => write!(f, "i1"),
            Type::I8 => write!(f, "i8"),
            Type::I64 => write!(f, "i64"),
            Type::Obj => write!(f, "!lp.t"),
            Type::Rgn => write!(f, "!rgn.region"),
        }
    }
}

/// Error parsing a [`Type`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTypeError(pub String);

impl fmt::Display for ParseTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown type `{}`", self.0)
    }
}

impl std::error::Error for ParseTypeError {}

impl FromStr for Type {
    type Err = ParseTypeError;

    fn from_str(s: &str) -> Result<Type, ParseTypeError> {
        match s {
            "i1" => Ok(Type::I1),
            "i8" => Ok(Type::I8),
            "i64" => Ok(Type::I64),
            "!lp.t" => Ok(Type::Obj),
            "!rgn.region" => Ok(Type::Rgn),
            other => Err(ParseTypeError(other.to_string())),
        }
    }
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Parameter types.
    pub params: Cow<'static, [Type]>,
    /// Result type.
    pub ret: Type,
}

impl Signature {
    /// Builds a signature.
    pub fn new(params: Vec<Type>, ret: Type) -> Signature {
        Signature {
            params: Cow::Owned(params),
            ret,
        }
    }

    /// The common λrc signature: `(!lp.t)^n -> !lp.t`. Up to 16
    /// parameters it allocates nothing.
    pub fn obj(n: usize) -> Signature {
        Signature {
            params: Type::objs(n),
            ret: Type::Obj,
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        for ty in [Type::I1, Type::I8, Type::I64, Type::Obj, Type::Rgn] {
            assert_eq!(ty.to_string().parse::<Type>().unwrap(), ty);
        }
        assert!("i7".parse::<Type>().is_err());
    }

    #[test]
    fn wrap_semantics() {
        assert_eq!(Type::I1.wrap(3), 1);
        assert_eq!(Type::I8.wrap(255), -1);
        assert_eq!(Type::I8.wrap(127), 127);
        assert_eq!(Type::I64.wrap(i64::MIN), i64::MIN);
    }

    #[test]
    fn signature_display() {
        let sig = Signature::obj(2);
        assert_eq!(sig.to_string(), "(!lp.t, !lp.t) -> !lp.t");
        let sig = Signature::new(vec![Type::I8], Type::I1);
        assert_eq!(sig.to_string(), "(i8) -> i1");
    }
}
