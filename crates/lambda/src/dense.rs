//! Dense per-function tables indexed by [`VarId`] / [`JoinId`].
//!
//! Variable and join ids are numbered densely from 0 within one function
//! (bounded by [`FnDef::next_var`] / [`FnDef::next_join`]), so the
//! front half's per-variable facts live in flat vectors rather than hash
//! maps or trees. Scopes are updated in place and undone on the way out,
//! never cloned.
//!
//! Tables grow on demand to the largest id actually used and are reused
//! from one function to the next; emptying one for the next function costs
//! what the last function wrote, not the range of its ids. The `.lssa`
//! reader rejects ids at or above [`MAX_ID`], so a table of a parsed
//! program holds at most `MAX_ID` entries however the text declares its
//! ids.
//!
//! [`FnDef::next_var`]: crate::ast::FnDef::next_var
//! [`FnDef::next_join`]: crate::ast::FnDef::next_join

#[cfg(doc)]
use crate::ast::JoinId;
use crate::ast::VarId;

/// Exclusive upper bound on the variable and join ids the `.lssa` reader
/// accepts (`x0` … `x1048575`), and on the capacity a pass sizes a table to
/// from a function's declared bound. Far above any id a frontend generates.
pub const MAX_ID: u32 = 1 << 20;

/// A set of ids stored as a bitset: O(1) insert and membership, and no
/// allocation once it has grown to the largest id.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    /// The ids inserted since the last [`IdSet::clear`].
    ids: Vec<u32>,
}

impl IdSet {
    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: u32) -> bool {
        let w = (id / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let (word, bit) = (&mut self.words[w], 1 << (id % 64));
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.ids.push(id);
        true
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Makes room for the ids below `ids` without growing.
    pub fn reserve(&mut self, ids: usize) {
        let words = ids.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
        self.ids.reserve(ids.saturating_sub(self.ids.len()));
    }

    /// Removes every id, keeping the storage: zeroes only the words the
    /// inserted ids are in.
    pub fn clear(&mut self) {
        for id in self.ids.drain(..) {
            self.words[(id / 64) as usize] = 0;
        }
    }
}

/// Which variables are in scope, updated in place as a checker walks one
/// function: [`Scope::bind`] before a binder's body and [`Scope::unbind`]
/// after it, so no scope is ever copied.
///
/// A join-point body sees only its own parameters. Entering one opens a
/// fresh *frame* ([`Scope::enter_frame`]); a variable is in scope exactly
/// when it was bound in the current frame, so the enclosing bindings are
/// hidden without being touched and reappear when the frame is left.
/// Frame numbers are never reused, so [`Scope::clear`] is one more fresh
/// frame and touches no entry.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Per variable, the frame of its current binding; a variable whose
    /// frame is not the visible one (`0`, a closed frame, or a frame of an
    /// earlier function) is out of scope.
    frame_of: Vec<u32>,
    /// The frame whose bindings are visible.
    frame: u32,
    /// The last frame number handed out.
    frames: u32,
}

impl Default for Scope {
    /// An empty scope, in its first frame.
    fn default() -> Scope {
        Scope {
            frame_of: Vec::new(),
            frame: 1,
            frames: 1,
        }
    }
}

impl Scope {
    /// Empties the scope for the next function, keeping the storage: the
    /// bindings of earlier functions are in frames that are not visible.
    pub fn clear(&mut self) {
        self.frame = self.fresh_frame();
    }

    /// A frame number never handed out before.
    fn fresh_frame(&mut self) -> u32 {
        self.frames = self
            .frames
            .checked_add(1)
            .expect("fewer than 2^32 functions and join points");
        self.frames
    }

    /// Makes room for the variables below `ids` without growing.
    pub fn reserve(&mut self, ids: usize) {
        if ids > self.frame_of.len() {
            self.frame_of.resize(ids, 0);
        }
    }

    /// Whether `v` is visible.
    pub fn contains(&self, v: VarId) -> bool {
        self.frame_of.get(v as usize) == Some(&self.frame)
    }

    /// Whether `v` is visible in `frame` (one returned by
    /// [`Scope::enter_frame`]), as long as that frame is on the stack.
    pub fn visible_in(&self, v: VarId, frame: u32) -> bool {
        self.frame_of.get(v as usize) == Some(&frame)
    }

    /// Makes `v` visible; returns the token [`Scope::unbind`] needs to undo
    /// exactly this binding.
    pub fn bind(&mut self, v: VarId) -> u32 {
        let i = v as usize;
        if i >= self.frame_of.len() {
            self.frame_of.resize(i + 1, 0);
        }
        std::mem::replace(&mut self.frame_of[i], self.frame)
    }

    /// Undoes the [`Scope::bind`] of `v` that returned `token`. Bindings
    /// are undone in reverse order.
    pub fn unbind(&mut self, v: VarId, token: u32) {
        self.frame_of[v as usize] = token;
    }

    /// Opens a fresh frame in which nothing is visible; returns the frame
    /// to give back to [`Scope::leave_frame`].
    pub fn enter_frame(&mut self) -> u32 {
        let fresh = self.fresh_frame();
        std::mem::replace(&mut self.frame, fresh)
    }

    /// Returns to the frame `enter_frame` left.
    pub fn leave_frame(&mut self, outer: u32) {
        self.frame = outer;
    }
}

/// Join labels in scope, each with its parameter count: set before the
/// join's scope body, restored after it.
#[derive(Debug, Clone, Default)]
pub struct JoinArities {
    /// Per label, its arity plus one (`0`: not in scope).
    arity: Vec<u32>,
}

impl JoinArities {
    /// Makes room for the labels below `labels` without growing.
    pub fn reserve(&mut self, labels: usize) {
        if labels > self.arity.len() {
            self.arity.resize(labels, 0);
        }
    }

    /// The arity of `label`, if it is in scope.
    pub fn get(&self, label: u32) -> Option<usize> {
        match self.arity.get(label as usize) {
            Some(&a) if a > 0 => Some(a as usize - 1),
            _ => None,
        }
    }

    /// Puts `label` in scope with `arity`; returns the token
    /// [`JoinArities::restore`] needs.
    pub fn declare(&mut self, label: u32, arity: usize) -> u32 {
        let i = label as usize;
        if i >= self.arity.len() {
            self.arity.resize(i + 1, 0);
        }
        std::mem::replace(&mut self.arity[i], arity as u32 + 1)
    }

    /// Undoes the [`JoinArities::declare`] of `label` that returned `token`.
    pub fn restore(&mut self, label: u32, token: u32) {
        self.arity[label as usize] = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_set_inserts_and_clears() {
        let mut s = IdSet::default();
        assert!(s.insert(130));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(!s.insert(64) && !s.insert(130));
        s.clear();
        assert!(s.words.iter().all(|&w| w == 0));
        assert!(s.insert(3) && s.insert(130) && s.insert(131));
    }

    #[test]
    fn scope_frames_hide_and_restore_outer_bindings() {
        let mut s = Scope::default();
        let t0 = s.bind(0);
        let t1 = s.bind(1);
        assert!(s.contains(0) && s.contains(1) && !s.contains(2));
        let outer = s.enter_frame();
        assert!(!s.contains(0), "a join body sees only its parameters");
        let t2 = s.bind(2);
        let t0b = s.bind(0);
        assert!(s.contains(2) && s.contains(0));
        assert!(s.visible_in(1, outer) && !s.visible_in(0, outer));
        s.unbind(0, t0b);
        s.unbind(2, t2);
        s.leave_frame(outer);
        assert!(s.contains(0) && s.contains(1) && !s.contains(2));
        // Rebinding a visible variable and undoing it keeps it visible.
        let again = s.bind(1);
        s.unbind(1, again);
        assert!(s.contains(1));
        s.unbind(1, t1);
        s.unbind(0, t0);
        assert!(!s.contains(0) && !s.contains(1));
        // The next function sees none of this one's bindings.
        s.bind(5);
        s.clear();
        assert!(!s.contains(5));
        s.bind(6);
        assert!(s.contains(6) && !s.contains(5));
    }

    #[test]
    fn join_arities_shadow_and_restore() {
        let mut j = JoinArities::default();
        assert_eq!(j.get(5), None);
        let t = j.declare(5, 0);
        assert_eq!(j.get(5), Some(0));
        let t2 = j.declare(5, 3);
        assert_eq!(j.get(5), Some(3));
        j.restore(5, t2);
        assert_eq!(j.get(5), Some(0));
        j.restore(5, t);
        assert_eq!(j.get(5), None);
    }
}
