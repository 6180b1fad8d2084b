//! A generic worklist solver for monotone dataflow problems.
//!
//! Every fixpoint analysis in this crate — backward register liveness
//! ([`crate::liveness`]), the forward minimum-depth ranking used by the
//! tamper-surface map ([`crate::coverage`]) — is an instance of one
//! scheme: facts drawn from a join-semilattice of finite height, a
//! monotone transfer function per node, and chaotic iteration over a
//! worklist until nothing changes.  This module factors the scheme out so
//! each analysis states only its lattice and transfer function.
//!
//! # Termination
//!
//! [`solve`] terminates because a node is requeued only when its input
//! fact strictly grows ([`Analysis::join`] returned `true`), facts only
//! ever move up the lattice (joins accumulate; transfers are monotone),
//! and the lattice has finite height: register masks (`u32` powersets)
//! can grow at most 32 times per node, minimum-depth facts can improve at
//! most once per distinct depth value, and so on.  Each node is therefore
//! requeued finitely often and the worklist drains.

use std::collections::VecDeque;

/// Which way facts propagate through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from a node to its successors.
    Forward,
    /// Facts flow from a node to its predecessors.
    Backward,
}

/// One monotone dataflow problem.
///
/// `Fact` is an element of a join-semilattice; [`Analysis::join`] must
/// compute the least upper bound and [`Analysis::transfer`] must be
/// monotone with respect to it, otherwise the solver may diverge.
pub trait Analysis {
    /// The lattice element attached to each node.
    type Fact: Clone + PartialEq;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// The least lattice element — the initial fact everywhere.
    fn bottom(&self) -> Self::Fact;

    /// Joins `from` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// The node's transfer function: maps the fact entering the node (in
    /// propagation order) to the fact leaving it.
    fn transfer(&self, node: usize, input: &Self::Fact) -> Self::Fact;
}

/// The fixpoint: per node, the fact entering it and the fact leaving it,
/// both in *propagation* order.  For a backward analysis `input` is what
/// flows in from the successors (e.g. live-out) and `output` is what the
/// transfer produces (live-in).
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Joined incoming fact per node.
    pub input: Vec<F>,
    /// `transfer(node, input[node])` per node, at the fixpoint.
    pub output: Vec<F>,
}

/// Predecessor lists of `succs`.
pub fn invert(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); succs.len()];
    for (i, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(i);
        }
    }
    preds
}

/// Runs `analysis` to fixpoint over the graph given by `succs`.
///
/// `seeds` injects extra facts at nodes before iteration — entry facts
/// for a forward analysis, exit facts for a backward one.  Nodes touched
/// by no seed start at bottom.
pub fn solve<A: Analysis>(
    analysis: &A,
    succs: &[Vec<usize>],
    seeds: &[(usize, A::Fact)],
) -> Solution<A::Fact> {
    let n = succs.len();
    // Propagation edges: the output of node `i` joins into the input of
    // every node in `edges[i]`.
    let preds;
    let edges: &[Vec<usize>] = match analysis.direction() {
        Direction::Forward => succs,
        Direction::Backward => {
            preds = invert(succs);
            &preds
        }
    };
    let mut input: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();
    for (node, fact) in seeds {
        analysis.join(&mut input[*node], fact);
    }
    let mut output: Vec<A::Fact> = (0..n).map(|i| analysis.transfer(i, &input[i])).collect();
    // Chaotic iteration.  Reverse order converges faster for backward
    // problems on mostly-sequential code, forward order for forward ones.
    let mut work: VecDeque<usize> = match analysis.direction() {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let mut queued = vec![true; n];
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        output[i] = analysis.transfer(i, &input[i]);
        for &j in &edges[i] {
            if analysis.join(&mut input[j], &output[i]) && !queued[j] {
                queued[j] = true;
                work.push_back(j);
            }
        }
    }
    Solution { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward constant propagation of "is this node reachable" — the
    /// simplest boolean lattice — over a diamond with a loop.
    struct Reach;
    impl Analysis for Reach {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self) -> bool {
            false
        }
        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let changed = *from && !*into;
            *into |= *from;
            changed
        }
        fn transfer(&self, _node: usize, input: &bool) -> bool {
            *input
        }
    }

    #[test]
    fn reachability_fixpoint_on_looping_diamond() {
        // 0 -> {1, 2}; 1 -> 3; 2 -> 3; 3 -> 1 (loop); 4 isolated.
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![1], vec![]];
        let sol = solve(&Reach, &succs, &[(0, true)]);
        assert_eq!(sol.input, vec![true, true, true, true, false]);
    }

    #[test]
    fn invert_reverses_every_edge() {
        let succs = vec![vec![1, 2], vec![2], vec![]];
        let preds = invert(&succs);
        assert_eq!(preds, vec![vec![], vec![0], vec![0, 1]]);
    }
}
