//! The uniform boxed value representation.
//!
//! LEAN's runtime represents every value as a `lean_object*`: either a tagged
//! pointer holding a small scalar in the pointer bits, or a pointer to a
//! heap-allocated, reference-counted object. [`ObjRef`] mirrors that scheme:
//! the low bit distinguishes *scalars* (bit set; payload is a 63-bit signed
//! integer) from *heap references* (bit clear; payload is a heap slot index).
//! As in LEAN, a constructor without fields is the scalar of its tag and
//! never a heap object; every other constructor is a heap slot whose
//! fields live in the heap's field arena (see [`crate::heap`]).

use crate::bignum::Int;
use std::fmt;

/// Identifies a compiled function in the program's function table.
///
/// Closures store a `FuncId` rather than a code pointer; the execution engine
/// resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@fn{}", self.0)
    }
}

/// A uniform runtime value: tagged scalar or heap reference.
///
/// # Examples
///
/// ```
/// use lssa_rt::object::ObjRef;
/// let s = ObjRef::scalar(-7);
/// assert!(s.is_scalar());
/// assert_eq!(s.as_scalar(), Some(-7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(u64);

/// Largest scalar magnitude representable without boxing (62-bit payload,
/// leaving headroom so arithmetic on two scalars cannot silently wrap).
pub const MAX_SMALL_NAT: u64 = (1 << 62) - 1;

/// Smallest/largest boxed-free signed scalar.
pub const MIN_SMALL_INT: i64 = -(1 << 62);
/// See [`MIN_SMALL_INT`].
pub const MAX_SMALL_INT: i64 = (1 << 62) - 1;

impl ObjRef {
    /// Creates a scalar (unboxed) value.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not fit in 63 bits.
    pub fn scalar(v: i64) -> ObjRef {
        debug_assert!(
            (-(1i64 << 62)..(1i64 << 62)).contains(&v),
            "scalar out of range: {v}"
        );
        ObjRef(((v as u64) << 1) | 1)
    }

    /// Creates a heap reference to `slot`.
    pub fn heap(slot: u32) -> ObjRef {
        ObjRef((slot as u64) << 1)
    }

    /// Whether this is a tagged scalar.
    pub fn is_scalar(&self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is a heap reference.
    pub fn is_heap(&self) -> bool {
        !self.is_scalar()
    }

    /// The scalar payload, if this is a scalar.
    pub fn as_scalar(&self) -> Option<i64> {
        if self.is_scalar() {
            Some((self.0 as i64) >> 1)
        } else {
            None
        }
    }

    /// The heap slot, if this is a heap reference.
    pub fn as_heap(&self) -> Option<u32> {
        if self.is_heap() {
            Some((self.0 >> 1) as u32)
        } else {
            None
        }
    }

    /// Raw bit pattern (for the VM's uniform registers).
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds from a raw bit pattern produced by [`ObjRef::to_bits`].
    pub fn from_bits(bits: u64) -> ObjRef {
        ObjRef(bits)
    }
}

impl fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_scalar() {
            write!(f, "#{v}")
        } else {
            write!(f, "&{}", self.0 >> 1)
        }
    }
}

/// Payload of a heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjData {
    /// A data-constructor cell with at least one field: its variant tag
    /// and where its fields sit in the heap's field arena (read them with
    /// [`Heap::ctor_field`](crate::heap::Heap::ctor_field) or
    /// [`Heap::ctor_fields`](crate::heap::Heap::ctor_fields)).
    Ctor {
        /// Which variant of the (erased) inductive type this is.
        tag: u32,
        /// Offset of the first field in the field arena.
        off: u32,
        /// Number of fields (at least 1).
        len: u32,
    },
    /// A boxed arbitrary-precision integer (used when the value exceeds the
    /// scalar range).
    BigInt(Int),
    /// A partial application: a function waiting for more arguments.
    Closure {
        /// The function to invoke once saturated.
        func: FuncId,
        /// Total number of parameters the function takes.
        arity: u16,
        /// Arguments captured so far (`args.len() < arity`).
        args: Vec<ObjRef>,
    },
    /// A mutable array (LEAN `Array`); updated in place when the reference
    /// count is 1, copied otherwise.
    Array(Vec<ObjRef>),
    /// A string.
    Str(String),
    /// A slot on the free list (not a live object). Holds the next free slot.
    Free(u32),
}

/// A heap slot: reference count plus payload.
#[derive(Debug, Clone)]
pub struct Object {
    /// Current reference count. A live object always has `rc >= 1`.
    pub rc: u32,
    /// The payload.
    pub data: ObjData,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        for v in [0i64, 1, -1, 42, -42, MAX_SMALL_INT, MIN_SMALL_INT] {
            let r = ObjRef::scalar(v);
            assert!(r.is_scalar());
            assert_eq!(r.as_scalar(), Some(v));
            assert_eq!(r.as_heap(), None);
            assert_eq!(ObjRef::from_bits(r.to_bits()), r);
        }
    }

    #[test]
    fn heap_round_trip() {
        for s in [0u32, 1, 12345, u32::MAX] {
            let r = ObjRef::heap(s);
            assert!(r.is_heap());
            assert_eq!(r.as_heap(), Some(s));
            assert_eq!(r.as_scalar(), None);
        }
    }

    #[test]
    fn scalar_and_heap_never_collide() {
        assert_ne!(ObjRef::scalar(0).to_bits(), ObjRef::heap(0).to_bits());
        assert_ne!(ObjRef::scalar(1).to_bits(), ObjRef::heap(1).to_bits());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", ObjRef::scalar(-3)), "#-3");
        assert_eq!(format!("{:?}", ObjRef::heap(7)), "&7");
        assert_eq!(format!("{}", FuncId(3)), "@fn3");
    }
}
