//! Compressed-sparse-row graphs: the adjacency lists of every analysis.
//!
//! A [`Graph`] keeps the rows of all its nodes in one flat item array,
//! cut by one offsets array: node `i`'s row is
//! `items[offsets[i]..offsets[i + 1]]`.  A graph costs two allocations
//! whatever its node count, where a `Vec<Vec<_>>` costs one per non-empty
//! row, and reading a row is one slice: `graph[i]`.  The word-level flow
//! ([`crate::flow::Flow::succs`]), the block edges
//! ([`crate::cfg::Cfg::succs`]), the predecessor lists the solvers build
//! ([`Graph::invert`]), the covering windows of each word
//! ([`crate::coverage::Coverage::covered_by`]) and the guard network's
//! edges are all `Graph`s.

use std::fmt;
use std::ops::Index;

/// A row item that leads to a node: a bare node index, or an edge that
/// names one.
pub trait Target: Copy {
    /// The node the item leads to.
    fn target(self) -> usize;
}

impl Target for usize {
    fn target(self) -> usize {
        self
    }
}

/// A graph over the nodes `0..len()`, every node's row of items in one
/// flat array.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph<T = usize> {
    /// Row `i` is `items[offsets[i]..offsets[i + 1]]`; `offsets[0]` is 0.
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Graph<T> {
    /// A graph without nodes, with room for `nodes` rows of `items` items
    /// in all.
    pub fn with_capacity(nodes: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Graph {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Appends a node whose row is `row`.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.offsets.push(self.items.len());
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every node's row, in node order.
    pub fn rows(&self) -> impl DoubleEndedIterator<Item = &[T]> + ExactSizeIterator + Clone {
        self.offsets.windows(2).map(|w| &self.items[w[0]..w[1]])
    }

    /// The items of all rows, in node order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: Target> Graph<T> {
    /// Every edge as `(node, target)`, in node order and each row in its
    /// own order.
    pub fn edges(&self) -> impl DoubleEndedIterator<Item = (usize, usize)> + Clone + '_ {
        self.rows()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |t| (i, t.target())))
    }

    /// The predecessor graph: row `j` lists, in ascending order, every
    /// node `i` once for each item of `i` that leads to `j`.
    pub fn invert(&self) -> Graph {
        Graph::from_pairs(self.len(), self.edges().map(|(i, j)| (j, i)))
    }
}

impl<T: Copy + Default> Graph<T> {
    /// Groups `pairs` by their first member: row `u` holds the second
    /// member of every `(u, v)` of `pairs`, in the order `pairs` yields
    /// them.  A counting sort: two passes over `pairs`, and no allocation
    /// but the graph's own two arrays.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a node outside `0..nodes`.
    pub fn from_pairs<I>(nodes: usize, pairs: I) -> Self
    where
        I: DoubleEndedIterator<Item = (usize, T)> + Clone,
    {
        let mut offsets = vec![0usize; nodes + 1];
        for (u, _) in pairs.clone() {
            offsets[u + 1] += 1;
        }
        for i in 1..=nodes {
            offsets[i] += offsets[i - 1];
        }
        // `offsets[u + 1]` is where row `u` ends.  Filling every row from
        // its end, walking the pairs backwards, keeps each row in order and
        // leaves `offsets[u + 1]` where row `u` starts.
        let mut items = vec![T::default(); offsets[nodes]];
        for (u, v) in pairs.rev() {
            offsets[u + 1] -= 1;
            items[offsets[u + 1]] = v;
        }
        offsets.copy_within(1.., 0);
        offsets[nodes] = items.len();
        Graph { offsets, items }
    }
}

impl<T> Default for Graph<T> {
    fn default() -> Self {
        Graph::with_capacity(0, 0)
    }
}

impl<T> Index<usize> for Graph<T> {
    type Output = [T];

    fn index(&self, node: usize) -> &[T] {
        &self.items[self.offsets[node]..self.offsets[node + 1]]
    }
}

/// Builds a graph from its rows, in node order.
impl<T, R: IntoIterator<Item = T>> FromIterator<R> for Graph<T> {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut graph = Graph::default();
        rows.into_iter().for_each(|row| graph.push_row(row));
        graph
    }
}

impl<T: fmt::Debug> fmt::Debug for Graph<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

/// A graph from literal rows.
#[cfg(test)]
pub(crate) fn graph(rows: &[&[usize]]) -> Graph {
    rows.iter().map(|row| row.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_slice_the_flat_items() {
        let graph = graph(&[&[1, 2], &[], &[0]]);
        assert_eq!(graph.len(), 3);
        assert_eq!(&graph[0], &[1, 2]);
        assert!(graph[1].is_empty());
        assert_eq!(graph.items(), &[1, 2, 0]);
        let edges: Vec<_> = graph.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 0)]);
        assert_eq!(format!("{graph:?}"), "[[1, 2], [], [0]]");
        assert!(Graph::<usize>::default().is_empty());
    }

    #[test]
    fn pairs_group_by_node_in_their_own_order() {
        let pairs = [(2, 7u32), (0, 5), (2, 1), (0, 9), (2, 7)];
        let graph = Graph::from_pairs(4, pairs.iter().copied());
        let expected: Graph<u32> = [vec![5, 9], vec![], vec![7, 1, 7], vec![]]
            .into_iter()
            .collect();
        assert_eq!(graph, expected);
        assert_eq!(
            Graph::<u32>::from_pairs(0, [].into_iter()),
            Graph::default()
        );
    }

    #[test]
    fn invert_lists_each_predecessor_once_per_edge() {
        // 0 -> {1, 2}; 1 -> {2, 2}; 2 -> {0}; 3 isolated.
        let succs = graph(&[&[1, 2], &[2, 2], &[0], &[]]);
        let preds = graph(&[&[2], &[0], &[0, 1, 1], &[]]);
        assert_eq!(succs.invert(), preds);
    }
}
