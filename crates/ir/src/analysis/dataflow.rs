//! A direction-generic worklist solver for monotone dataflow problems.
//!
//! An analysis implements [`Analysis`]: a fact lattice (`Fact`, with
//! [`Analysis::bottom`] and a [`Analysis::join`] that accumulates), a
//! direction, and a per-block [`Analysis::transfer`] function. [`solve`]
//! runs the classic worklist fixpoint over a [`BlockGraph`] and returns the
//! fact at every block boundary.
//!
//! Termination requires the usual monotone-framework conditions: `join`
//! only ever grows a fact (returns `false` once nothing changed) and the
//! fact lattice has finite height for the values mentioned in the body.
//! Every analysis shipped here (liveness, RC summaries) is a finite set or
//! map union, which satisfies both.

use super::cfg::BlockGraph;
use crate::body::Body;
use crate::hash::{FxHashMap, FxHashSet};
use crate::ids::BlockId;
use std::collections::VecDeque;

/// Which way facts propagate through the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry toward exits (e.g. reaching definitions).
    Forward,
    /// Facts flow from exits toward the entry (e.g. liveness).
    Backward,
}

/// A monotone dataflow problem over one region.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The least element, used to initialize every boundary.
    fn bottom(&self) -> Self::Fact;

    /// The fact imposed at the CFG boundary: at the entry block's start for
    /// forward analyses, at the end of exit blocks (no successors) for
    /// backward analyses.
    fn boundary(&self, body: &Body) -> Self::Fact;

    /// Transfers `input` through `block`. For a forward analysis `input` is
    /// the fact at block *start* and the result the fact at block *end*;
    /// for a backward analysis the other way around.
    fn transfer(&self, body: &Body, block: BlockId, input: &Self::Fact) -> Self::Fact;

    /// Accumulates `from` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;
}

/// The fixpoint of an [`Analysis`]: facts at block starts and ends.
///
/// Only blocks reachable in the [`BlockGraph`] carry facts; querying an
/// unreachable block returns `None`.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    entry: FxHashMap<BlockId, F>,
    exit: FxHashMap<BlockId, F>,
}

impl<F> Solution<F> {
    /// The fact at the start of `b` (after block arguments bind).
    pub fn entry_of(&self, b: BlockId) -> Option<&F> {
        self.entry.get(&b)
    }

    /// The fact at the end of `b` (after its terminator).
    pub fn exit_of(&self, b: BlockId) -> Option<&F> {
        self.exit.get(&b)
    }
}

/// Runs `analysis` to fixpoint over `graph` and returns the per-block facts.
pub fn solve<A: Analysis>(analysis: &A, body: &Body, graph: &BlockGraph) -> Solution<A::Fact> {
    let forward = analysis.direction() == Direction::Forward;
    // Process in RPO for forward problems and post-order for backward ones;
    // either way most facts settle in one or two sweeps.
    let order: Vec<BlockId> = if forward {
        graph.rpo().to_vec()
    } else {
        graph.rpo().iter().rev().copied().collect()
    };

    // `up` is the transfer input side (block start for forward, block end
    // for backward); `down` is the transfer output side.
    let mut up: FxHashMap<BlockId, A::Fact> = FxHashMap::default();
    let mut down: FxHashMap<BlockId, A::Fact> = FxHashMap::default();
    for &b in &order {
        let is_boundary = if forward {
            b == graph.entry()
        } else {
            graph.succs(b).is_empty()
        };
        let init = if is_boundary {
            analysis.boundary(body)
        } else {
            analysis.bottom()
        };
        up.insert(b, init);
        down.insert(b, analysis.bottom());
    }

    let mut worklist: VecDeque<BlockId> = order.iter().copied().collect();
    let mut queued: FxHashSet<BlockId> = order.iter().copied().collect();
    while let Some(b) = worklist.pop_front() {
        queued.remove(&b);
        // Pull the neighbors' output facts into our input fact.
        let neighbors: &[BlockId] = if forward {
            graph.preds(b)
        } else {
            graph.succs(b)
        };
        {
            let mut fact = up.remove(&b).expect("fact initialized");
            for n in neighbors {
                if let Some(nf) = down.get(n) {
                    analysis.join(&mut fact, nf);
                }
            }
            up.insert(b, fact);
        }
        let new_down = analysis.transfer(body, b, &up[&b]);
        if down[&b] != new_down {
            down.insert(b, new_down);
            let push_to: &[BlockId] = if forward {
                graph.succs(b)
            } else {
                graph.preds(b)
            };
            for &n in push_to {
                if graph.is_reachable(n) && queued.insert(n) {
                    worklist.push_back(n);
                }
            }
        }
    }

    if forward {
        Solution {
            entry: up,
            exit: down,
        }
    } else {
        Solution {
            entry: down,
            exit: up,
        }
    }
}
