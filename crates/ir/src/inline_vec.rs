//! A small-vector with fixed inline capacity and no external dependencies.
//!
//! [`InlineVec<T, N>`] stores up to `N` elements in the struct itself and
//! spills to a heap `Vec` beyond that. `OpData` uses it for operand, result,
//! successor, region, and attribute lists, which are almost always tiny
//! (binary arithmetic has two operands, one result, no successors), so the
//! common case allocates nothing and pass pipelines stop hammering the
//! allocator when they clone or rebuild ops.
//!
//! Unlike the `smallvec` crate this type is written entirely in safe Rust
//! (the crate is `#![forbid(unsafe_code)]`): the inline buffer is a plain
//! `[T; N]` whose unused slots hold `T::default()` placeholders, so element
//! types must be `Clone + Default`. All IR list element types are cheap to
//! default-construct, making the trade-off free in practice.
//!
//! The type dereferences to `[T]`, so slice APIs (indexing, `iter`, `len`,
//! `contains`, pattern matching on `&v[..]`) work unchanged.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `len` live elements at the front of `buf`; the rest are defaults.
    Inline { len: u32, buf: [T; N] },
    /// Spilled: every element lives in the Vec.
    Heap(Vec<T>),
}

/// A vector of `T` with `N` elements of inline storage.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                buf: std::array::from_fn(|_| T::default()),
            },
        }
    }

    /// Appends an element, spilling to the heap at `N + 1` elements.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < N {
                    buf[n] = value;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(N + 1);
                    for slot in buf.iter_mut() {
                        spilled.push(std::mem::take(slot));
                    }
                    spilled.push(value);
                    self.repr = Repr::Heap(spilled);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    return None;
                }
                *len -= 1;
                Some(std::mem::take(&mut buf[*len as usize]))
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Removes all elements (inline slots are reset so held resources drop).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                for slot in buf.iter_mut().take(n) {
                    *slot = T::default();
                }
                *len = 0;
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Keeps only the elements for which `f` returns `true`.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                let mut kept = 0;
                for i in 0..n {
                    if f(&buf[i]) {
                        if kept != i {
                            buf.swap(kept, i);
                        }
                        kept += 1;
                    }
                }
                for slot in buf.iter_mut().take(n).skip(kept) {
                    *slot = T::default();
                }
                *len = kept as u32;
            }
            Repr::Heap(v) => v.retain(|x| f(x)),
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements have spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Copies the elements into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.as_slice().to_vec()
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> InlineVec<T, N> {
        if v.len() > N {
            return InlineVec {
                repr: Repr::Heap(v),
            };
        }
        let mut out = InlineVec::new();
        for x in v {
            out.push(x);
        }
        out
    }
}

/// An array literal fills the inline buffer directly: `[a, b]` builds a
/// two-element list without the `Vec` that `vec![a, b]` would allocate.
impl<T: Default, const N: usize, const K: usize> From<[T; K]> for InlineVec<T, N> {
    fn from(v: [T; K]) -> InlineVec<T, N> {
        if K > N {
            return InlineVec {
                repr: Repr::Heap(Vec::from(v)),
            };
        }
        v.into_iter().collect()
    }
}

impl<T: Clone + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(v: &[T]) -> InlineVec<T, N> {
        v.iter().cloned().collect()
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineVec<T, N> {
        let mut out = InlineVec::new();
        for x in iter {
            out.push(x);
        }
        out
    }
}

impl<T: Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Owning iterator for [`InlineVec`].
pub struct IntoIter<T, const N: usize> {
    repr: IterRepr<T, N>,
}

enum IterRepr<T, const N: usize> {
    Inline(std::iter::Take<std::array::IntoIter<T, N>>),
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match &mut self.repr {
            IterRepr::Inline(it) => it.next(),
            IterRepr::Heap(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.repr {
            IterRepr::Inline(it) => it.size_hint(),
            IterRepr::Heap(it) => it.size_hint(),
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        let repr = match self.repr {
            Repr::Inline { len, buf } => IterRepr::Inline(buf.into_iter().take(len as usize)),
            Repr::Heap(v) => IterRepr::Heap(v.into_iter()),
        };
        IntoIter { repr }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.as_slice().iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> std::slice::IterMut<'a, T> {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>> for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<&[T]> for InlineVec<T, N> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Matches `Vec`/slice hashing (length prefix + elements), so keys
        // built from either representation collide correctly.
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.push(3);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn spills_past_capacity_and_keeps_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_and_clear() {
        let mut v: InlineVec<u32, 2> = vec![1, 2].into();
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
        let mut v: InlineVec<u32, 2> = vec![1, 2, 3].into();
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn retain_compacts_inline_and_heap() {
        let mut v: InlineVec<u32, 4> = vec![1, 2, 3, 4].into();
        v.retain(|&x| x % 2 == 0);
        assert_eq!(v, vec![2, 4]);
        let mut v: InlineVec<u32, 2> = vec![1, 2, 3, 4, 5].into();
        v.retain(|&x| x % 2 == 1);
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn from_vec_round_trips() {
        let v: InlineVec<u32, 2> = vec![7, 8, 9].into();
        assert!(v.spilled());
        assert_eq!(v.to_vec(), vec![7, 8, 9]);
        let v: InlineVec<u32, 4> = vec![7].into();
        assert!(!v.spilled());
        assert_eq!(v.to_vec(), vec![7]);
    }

    #[test]
    fn from_array_fills_inline_until_it_spills() {
        let v: InlineVec<u32, 2> = [7, 8].into();
        assert!(!v.spilled());
        assert_eq!(v, [7, 8]);
        let v: InlineVec<u32, 2> = [7, 8, 9].into();
        assert!(v.spilled());
        assert_eq!(v, [7, 8, 9]);
        let v: InlineVec<u32, 2> = [].into();
        assert!(v.is_empty());
    }

    #[test]
    fn owned_iteration_yields_all_elements() {
        let v: InlineVec<u32, 2> = vec![1, 2].into();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        let v: InlineVec<u32, 2> = vec![1, 2, 3].into();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn slice_apis_work_through_deref() {
        let v: InlineVec<u32, 4> = vec![5, 6, 7].into();
        assert_eq!(v[0], 5);
        assert!(v.contains(&6));
        assert_eq!(&v[1..], &[6, 7]);
        let [a, b, c] = v[..] else { panic!() };
        assert_eq!((a, b, c), (5, 6, 7));
    }

    #[test]
    fn equality_and_hash_match_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        let inline: InlineVec<u32, 4> = vec![1, 2].into();
        let mut heap: InlineVec<u32, 1> = InlineVec::new();
        heap.push(1);
        heap.push(2);
        assert!(heap.spilled());
        assert_eq!(inline, heap);
        let h = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            x(&mut s);
            std::hash::Hasher::finish(&s)
        };
        assert_eq!(h(&|s| inline.hash(s)), h(&|s| heap.hash(s)));
    }
}
