//! A generic worklist solver for monotone dataflow problems.
//!
//! Every fixpoint analysis in this crate — backward register liveness
//! ([`crate::liveness`]), the forward minimum-depth ranking used by the
//! tamper-surface map ([`crate::coverage`]), the memory-sensitive value
//! sets ([`crate::memdom`]) and key-flow taint ([`crate::taint`]) — is an
//! instance of one scheme: facts drawn from a join-semilattice of finite
//! height, a monotone transfer function per node, and chaotic iteration
//! over a worklist until nothing changes.  This module factors the scheme
//! out so each analysis states only its lattice and transfer function.
//!
//! # Chains
//!
//! [`solve`] groups the nodes into straight-line *chains*: node `i + 1`
//! continues `i`'s chain when `i`'s only successor is `i + 1`, `i + 1`'s
//! only predecessor is `i`, and the node the link enters in propagation
//! order carries no seed (a backward problem walks the same chains from
//! their last node).  The solver keeps one fact per chain, the one
//! entering its head; a visit clones it once, steps it through the chain
//! in place ([`Analysis::transfer`] takes `&mut`) and joins the result
//! into the successor chains' heads.  Per-node facts are replayed:
//! [`Solution::at`] for one node, [`Solution::walk`] for all of them.
//!
//! # Graphs
//!
//! [`solve`] reads its graph as one flat [`Graph`]: every node's row of
//! successors is a slice of a single item array.  The items may be bare
//! node indices or anything that names one through [`Target`], so the
//! analyses solve straight over [`crate::flow::Flow::succs`]' edges.  A
//! backward problem propagates along [`Graph::invert`], built once per
//! solve in the same flat layout.
//!
//! # Termination
//!
//! [`solve`] terminates because a chain is requeued only when the fact
//! entering its head strictly grows ([`Analysis::join`] returned `true`),
//! facts only ever move up the lattice (joins accumulate; transfers are
//! monotone), and the lattice has finite height: register masks (`u32`
//! powersets) can grow at most 32 times per node, minimum-depth facts can
//! improve at most once per distinct depth value, and so on.  Each chain
//! is therefore requeued finitely often and the worklist drains.

use std::collections::VecDeque;

use crate::graph::{Graph, Target};

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

    /// The node's transfer function, in place: turns the fact entering
    /// the node (in propagation order) into the fact leaving it.
    fn transfer(&self, node: usize, fact: &mut Self::Fact);
}

/// The fixpoint, one fact per chain: the fact entering the chain's head,
/// in *propagation* order (for a backward analysis, what flows in from the
/// successors of the chain's last node, e.g. its live-out).
#[derive(Debug, Clone)]
pub struct Solution<F> {
    direction: Direction,
    /// First node of each chain, ascending, then the node count: chain
    /// `c` is `starts[c]..starts[c + 1]`.
    starts: Vec<usize>,
    /// Joined fact entering each chain's head.
    heads: Vec<F>,
    /// Chains stepped to their end: one per worklist pop.
    pub visits: usize,
    /// Chains pushed back onto the worklist after the initial sweep.
    pub requeues: usize,
}

/// Runs `analysis` to fixpoint over the graph given by `succs`.
///
/// `seeds` injects extra facts at nodes before iteration — entry facts
/// for a forward analysis, exit facts for a backward one.  Nodes touched
/// by no seed start at bottom.
pub fn solve<A: Analysis, E: Target>(
    analysis: &A,
    succs: &Graph<E>,
    seeds: &[(usize, A::Fact)],
) -> Solution<A::Fact> {
    let len = succs.len();
    let direction = analysis.direction();
    let mut in_degree = vec![0usize; len];
    let mut seeded = vec![false; len];
    succs
        .items()
        .iter()
        .for_each(|e| in_degree[e.target()] += 1);
    seeds.iter().for_each(|&(node, _)| seeded[node] = true);
    // The node a link `i - 1 -> i` enters: `i` forward, `i - 1` backward.
    let entered = |i: usize| i - usize::from(direction == Direction::Backward);
    let only_next = |i: usize| matches!(succs[i - 1], [e] if e.target() == i);
    let mut starts: Vec<usize> = (0..len)
        .filter(|&i| i == 0 || !only_next(i) || in_degree[i] != 1 || seeded[entered(i)])
        .collect();
    starts.push(len);
    let mut solution = Solution {
        direction,
        heads: vec![analysis.bottom(); starts.len() - 1],
        starts,
        visits: 0,
        requeues: 0,
    };
    for (node, fact) in seeds {
        let c = solution.chain_of(*node);
        analysis.join(&mut solution.heads[c], fact);
    }
    // Propagation edges leave a chain's last node: successors forward,
    // predecessors backward, each the head of its own chain.
    match direction {
        Direction::Forward => solution.iterate(analysis, succs),
        Direction::Backward => solution.iterate(analysis, &succs.invert()),
    }
    solution
}

impl<F: Clone> Solution<F> {
    /// Chaotic iteration along `edges`, the propagation edges.  Reverse
    /// order converges faster for backward problems on mostly-sequential
    /// code, forward order for forward ones.
    fn iterate<A: Analysis<Fact = F>, E: Target>(&mut self, analysis: &A, edges: &Graph<E>) {
        let chains = self.heads.len();
        let mut work: VecDeque<usize> = match self.direction {
            Direction::Forward => (0..chains).collect(),
            Direction::Backward => (0..chains).rev().collect(),
        };
        let mut queued = vec![true; chains];
        while let Some(c) = work.pop_front() {
            queued[c] = false;
            self.visits += 1;
            let mut fact = self.heads[c].clone();
            self.nodes(c)
                .for_each(|node| analysis.transfer(node, &mut fact));
            let last = self.nodes(c).last().expect("chains are not empty");
            for e in &edges[last] {
                let d = self.chain_of(e.target());
                if analysis.join(&mut self.heads[d], &fact) && !queued[d] {
                    queued[d] = true;
                    work.push_back(d);
                    self.requeues += 1;
                }
            }
        }
    }

    fn chain_of(&self, node: usize) -> usize {
        self.starts.partition_point(|&s| s <= node) - 1
    }

    /// The nodes of chain `c` in propagation order.
    fn nodes(&self, c: usize) -> impl Iterator<Item = usize> {
        let (start, end) = (self.starts[c], self.starts[c + 1]);
        let forward = self.direction == Direction::Forward;
        (0..end - start).map(move |k| if forward { start + k } else { end - 1 - k })
    }

    /// The fact entering `node` in propagation order, replayed from its
    /// chain's head.
    pub fn at<A: Analysis<Fact = F>>(&self, analysis: &A, node: usize) -> F {
        let c = self.chain_of(node);
        let mut fact = self.heads[c].clone();
        for k in self.nodes(c).take_while(|&k| k != node) {
            analysis.transfer(k, &mut fact);
        }
        fact
    }

    /// Calls `f` with every node and the fact entering it, chain by chain
    /// in ascending order of their first nodes, each chain in propagation
    /// order: one clone per chain.
    pub fn walk<A: Analysis<Fact = F>>(&self, analysis: &A, mut f: impl FnMut(usize, &F)) {
        for (c, head) in self.heads.iter().enumerate() {
            let mut fact = head.clone();
            let mut nodes = self.nodes(c).peekable();
            while let Some(node) = nodes.next() {
                f(node, &fact);
                if nodes.peek().is_some() {
                    analysis.transfer(node, &mut fact);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Edge;
    use flexprot_secmon::SecMonConfig;

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
        fn transfer(&self, _node: usize, _fact: &mut bool) {}
    }

    #[test]
    fn reachability_fixpoint_on_looping_diamond() {
        // 0 -> {1, 2}; 1 -> 3; 2 -> 3; 3 -> 1 (loop); 4 isolated.
        let succs = crate::graph::graph(&[&[1, 2], &[3], &[3], &[1], &[]]);
        let sol = solve(&Reach, &succs, &[(0, true)]);
        let facts: Vec<bool> = (0..5).map(|i| sol.at(&Reach, i)).collect();
        assert_eq!(facts, vec![true, true, true, true, false]);
        // No word has a single successor with a single predecessor, so
        // every node is a chain; the forward sweep needs no requeue.
        assert_eq!((sol.heads.len(), sol.visits, sol.requeues), (5, 5, 0));
        // Seeded inside the loop, 1 is reached only after its visit.
        let sol = solve(&Reach, &succs, &[(3, true)]);
        let facts: Vec<bool> = (0..5).map(|i| sol.at(&Reach, i)).collect();
        assert_eq!(facts, vec![false, true, false, true, false]);
        assert_eq!((sol.visits, sol.requeues), (6, 1));
    }

    /// The per-word solver `solve` replaced, kept as its reference: one
    /// input fact per node, every node transferred on its own.
    fn solve_per_word<A: Analysis>(
        analysis: &A,
        succs: &[Vec<usize>],
        seeds: &[(usize, A::Fact)],
    ) -> Vec<A::Fact> {
        let n = succs.len();
        let preds;
        let edges: &[Vec<usize>] = match analysis.direction() {
            Direction::Forward => succs,
            Direction::Backward => {
                preds = crate::flow::reference::invert(succs);
                &preds
            }
        };
        let mut input: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();
        for (node, fact) in seeds {
            analysis.join(&mut input[*node], fact);
        }
        let mut work: VecDeque<usize> = match analysis.direction() {
            Direction::Forward => (0..n).collect(),
            Direction::Backward => (0..n).rev().collect(),
        };
        let mut queued = vec![true; n];
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let mut output = input[i].clone();
            analysis.transfer(i, &mut output);
            for &j in &edges[i] {
                if analysis.join(&mut input[j], &output) && !queued[j] {
                    queued[j] = true;
                    work.push_back(j);
                }
            }
        }
        input
    }

    /// Solves `analysis` both ways, the reference over one successor
    /// list per node, and compares the fact entering every node, read by
    /// a walk and by replay.
    fn assert_solvers_agree<A: Analysis>(
        what: &str,
        analysis: &A,
        succs: &Graph<Edge>,
        seeds: &[(usize, A::Fact)],
    ) where
        A::Fact: std::fmt::Debug,
    {
        let nested: Vec<Vec<usize>> = succs
            .rows()
            .map(|row| row.iter().map(|e| e.to).collect())
            .collect();
        let reference = solve_per_word(analysis, &nested, seeds);
        let bottom = analysis.bottom();
        assert!(reference.iter().any(|f| *f != bottom), "{what}: all bottom");
        let solution = solve(analysis, succs, seeds);
        let mut walked = vec![None; succs.len()];
        solution.walk(analysis, |i, fact| walked[i] = Some(fact.clone()));
        for (i, expected) in reference.iter().enumerate() {
            assert_eq!(walked[i].as_ref(), Some(expected), "{what}: word {i}, walk");
            assert_eq!(&solution.at(analysis, i), expected, "{what}: word {i}, at");
        }
    }

    /// The four analyses on `solve` (memdom, taint, liveness and coverage
    /// depth) against the per-word reference on one shipped image.
    fn assert_analyses_agree(name: &str, image: &flexprot_isa::Image, config: &SecMonConfig) {
        let shipped = crate::Shipped::new(image, config);
        let (flow, succs) = (&shipped.flow, &shipped.flow.succs);
        let mem = shipped.mem();
        let root = |i| crate::memdom::root_state(flow.entry == Some(i));
        let seeds: Vec<_> = flow.roots().map(|i| (i, Some(root(i)))).collect();
        assert_solvers_agree(&format!("{name} memdom"), &mem.analysis, succs, &seeds);
        let taint = crate::taint::TaintAbs::new(config, flow, mem);
        let seeds: Vec<_> = flow
            .roots()
            .map(|i| (i, Some(Default::default())))
            .collect();
        assert_solvers_agree(&format!("{name} taint"), &taint, succs, &seeds);
        let masks = flow
            .decoded
            .iter()
            .map(|&i| (crate::liveness::uses_mask(i), crate::liveness::def_mask(i)));
        let live = crate::liveness::LiveAnalysis(masks.collect());
        assert_solvers_agree(&format!("{name} liveness"), &live, succs, &[]);
        let seeds: Vec<_> = flow.roots().map(|i| (i, Some(0))).collect();
        let depth = crate::coverage::MinDepth;
        assert_solvers_agree(&format!("{name} depth"), &depth, succs, &seeds);
    }

    #[test]
    fn solvers_agree_on_every_matrix_build() {
        for (program, image) in flexprot_exec::matrix::programs() {
            for (cell, config) in flexprot_exec::matrix::cells() {
                let protected = flexprot_core::protect(&image, &config, None).unwrap();
                let name = format!("{program}/{cell}");
                assert_analyses_agree(&name, &protected.image, &protected.secmon);
            }
        }
    }

    #[test]
    fn solvers_agree_on_random_minic_and_a_key_leak() {
        let mut rng = flexprot_isa::Rng64::new(0xDA7A_F10E_5EED_0001);
        let transparent = SecMonConfig::transparent();
        for case in 0..64 {
            let source = flexprot_cc::kernels::random_minic(&mut rng);
            let image = flexprot_cc::compile_to_image(&source).unwrap();
            assert_analyses_agree(&format!("random-{case}"), &image, &transparent);
        }
        // A spilled and reloaded ciphertext word: taint facts that are
        // not all empty.
        let image = flexprot_asm::assemble_or_panic(
            "secret: nop\n nop\nmain: lui $t0, 0x40\n lw $t1, 0($t0)\n \
             addi $sp, $sp, -16\n sw $t1, 8($sp)\n lw $t3, 8($sp)\n \
             li $t2, 0x10010000\n sw $t3, 0($t2)\n li $v0, 10\n syscall\n",
        );
        let mut config = SecMonConfig::transparent();
        config.regions = flexprot_secmon::RegionTable::new(vec![flexprot_secmon::EncRegion {
            start: 0x0040_0000,
            end: 0x0040_0008,
            key: 0x5EED,
        }]);
        assert_analyses_agree("key-leak", &image, &config);
    }
}
