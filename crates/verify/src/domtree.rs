//! Dominator and post-dominator trees.
//!
//! Iterative dominators in the style of Cooper, Harvey and Kennedy ("A
//! Simple, Fast Dominance Algorithm"): walk the nodes in reverse
//! post-order intersecting the immediate dominators of processed
//! predecessors until a fixpoint.  Post-dominators reuse the same solver
//! on the reversed graph with a virtual exit node fanned in from every
//! natural exit.
//!
//! The functions take any successor [`Graph`], so the same code serves
//! the block-level [`crate::cfg::Cfg`] in production and the synthetic
//! random digraphs the property tests enumerate paths on.

use crate::graph::Graph;

/// An immediate-dominator tree over graph nodes `0..n`.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per node; `None` for the root itself and for
    /// nodes unreachable from it.
    pub idom: Vec<Option<usize>>,
    /// The root the tree was computed from.
    pub root: usize,
}

impl DomTree {
    /// Whether `n` is reachable from the root.
    pub fn reachable(&self, n: usize) -> bool {
        n == self.root || self.idom[n].is_some()
    }

    /// Whether `a` dominates `b` (reflexively: every node dominates
    /// itself).  Unreachable nodes dominate nothing and are dominated by
    /// nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.reachable(a) || !self.reachable(b) {
            return false;
        }
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            match self.idom[x] {
                Some(p) => x = p,
                None => return false,
            }
        }
    }
}

/// Reverse post-order from `root`; returns the order and per-node RPO
/// numbers (`None` = unreachable).
fn reverse_postorder(root: usize, succs: &Graph) -> (Vec<usize>, Vec<Option<usize>>) {
    let n = succs.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut postorder = Vec::new();
    // Iterative DFS keeping an explicit edge cursor per frame.
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    state[root] = 1;
    while let Some(&(node, cursor)) = stack.last() {
        if let Some(&next) = succs[node].get(cursor) {
            stack.last_mut().expect("frame").1 += 1;
            if state[next] == 0 {
                state[next] = 1;
                stack.push((next, 0));
            }
        } else {
            state[node] = 2;
            postorder.push(node);
            stack.pop();
        }
    }
    postorder.reverse();
    let mut rpo_num = vec![None; n];
    for (k, &node) in postorder.iter().enumerate() {
        rpo_num[node] = Some(k);
    }
    (postorder, rpo_num)
}

/// Computes the dominator tree of the graph `succs` rooted at `root`.
pub fn dominators(root: usize, succs: &Graph) -> DomTree {
    let n = succs.len();
    let (order, rpo_num) = reverse_postorder(root, succs);
    let preds = succs.invert();

    // During iteration idom[root] = root so `intersect` can walk chains;
    // published as `None` at the end.
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root);
    let intersect = |mut a: usize, mut b: usize, idom: &[Option<usize>]| -> usize {
        while a != b {
            let (ra, rb) = (rpo_num[a].unwrap(), rpo_num[b].unwrap());
            if ra > rb {
                a = idom[a].unwrap();
            } else {
                b = idom[b].unwrap();
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            if b == root {
                continue;
            }
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(p, cur, &idom),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom[root] = None;
    DomTree { idom, root }
}

/// Computes the post-dominator tree of `succs`.
///
/// Returns the tree over `n + 1` nodes — the extra node is a virtual exit
/// every natural exit (node with no successors) flows into — and the
/// virtual exit's index.  `tree.dominates(a, b)` then reads "`a`
/// post-dominates `b`".  Nodes that reach no exit (infinite loops) are
/// unreachable in the reversed graph and post-dominate nothing.
pub fn post_dominators(succs: &Graph) -> (DomTree, usize) {
    let exit = succs.len();
    let exits = (0..exit)
        .filter(|&i| succs[i].is_empty())
        .map(|i| (exit, i));
    let reversed = succs.edges().map(|(i, s)| (s, i)).chain(exits);
    (
        dominators(exit, &Graph::from_pairs(exit + 1, reversed)),
        exit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph;

    #[test]
    fn diamond_dominators() {
        // 0 -> {1, 2} -> 3
        let succs = graph(&[&[1, 2], &[3], &[3], &[]]);
        let t = dominators(0, &succs);
        assert_eq!(t.idom, vec![None, Some(0), Some(0), Some(0)]);
        assert!(t.dominates(0, 3));
        assert!(!t.dominates(1, 3), "join is not dominated by either arm");
        assert!(t.dominates(3, 3), "domination is reflexive");
    }

    #[test]
    fn loop_back_edge_keeps_header_dominating_body() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let succs = graph(&[&[1], &[2], &[1, 3], &[]]);
        let t = dominators(0, &succs);
        assert!(t.dominates(1, 2));
        assert!(t.dominates(1, 3));
    }

    #[test]
    fn unreachable_nodes_are_outside_the_tree() {
        let succs = graph(&[&[1], &[], &[1]]); // node 2 unreachable
        let t = dominators(0, &succs);
        assert!(!t.reachable(2));
        assert!(!t.dominates(2, 1));
        assert!(!t.dominates(0, 2));
    }

    #[test]
    fn post_dominators_of_a_diamond() {
        let succs = graph(&[&[1, 2], &[3], &[3], &[]]);
        let (pdt, exit) = post_dominators(&succs);
        assert!(pdt.dominates(3, 0), "join post-dominates the fork");
        assert!(!pdt.dominates(1, 0));
        assert!(pdt.dominates(exit, 0));
    }

    #[test]
    fn infinite_loop_post_dominates_nothing() {
        // 0 -> 1 <-> 2 (no exit reachable from anywhere)
        let succs = graph(&[&[1], &[2], &[1]]);
        let (pdt, _) = post_dominators(&succs);
        assert!(!pdt.dominates(1, 0));
        assert!(!pdt.reachable(0));
    }
}
