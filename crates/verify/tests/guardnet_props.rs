//! Property tests for the guard-network graph algorithms.
//!
//! Random digraphs (small enough to enumerate) are analysed twice: once
//! by the production algorithms in `flexprot_verify::guardnet` (iterative
//! Tarjan, lowlink articulation points, node-split max-flow min cut) and
//! once by brute force straight from the definitions (pairwise
//! reachability, component counting after vertex removal, subset
//! enumeration). Any disagreement is a bug in one of the two — the same
//! N-version argument the verifier itself applies to the toolchain.

use flexprot_isa::Rng64;
use flexprot_verify::guardnet::{articulation_points, min_vertex_cut, sccs};
use flexprot_verify::Graph;

/// A random digraph on `n` vertices with edge probability ~`density`/8.
fn random_digraph(rng: &mut Rng64, n: usize, density: u64) -> Graph {
    (0..n)
        .map(|u| {
            (0..n)
                .filter(|&v| u != v && rng.below(8) < density)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The undirected counterpart (what the connectivity analyses consume).
fn undirect(succs: &Graph) -> Graph {
    let n = succs.len();
    let mut adj = vec![Vec::new(); n];
    for (u, v) in succs.edges() {
        adj[u].push(v);
        adj[v].push(u);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    adj.into_iter().collect()
}

/// Transitive reachability by saturation.
fn reachability(succs: &Graph) -> Vec<Vec<bool>> {
    let n = succs.len();
    let mut reach = vec![vec![false; n]; n];
    for (u, row) in reach.iter_mut().enumerate() {
        row[u] = true;
    }
    for (u, v) in succs.edges() {
        reach[u][v] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    reach
}

/// Number of connected components of the undirected graph induced on the
/// vertices where `alive` is true.
fn component_count(adj: &Graph, alive: &[bool]) -> usize {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut components = 0;
    for s in 0..n {
        if !alive[s] || seen[s] {
            continue;
        }
        components += 1;
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if alive[w] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
    }
    components
}

/// Whether removing `cut` leaves ≥ 2 vertices in ≥ 2 components.
fn disconnects(adj: &Graph, cut: &[usize]) -> bool {
    let n = adj.len();
    let mut alive = vec![true; n];
    for &v in cut {
        alive[v] = false;
    }
    let remaining = alive.iter().filter(|&&a| a).count();
    remaining >= 2 && component_count(adj, &alive) >= 2
}

/// The minimum cut size by subset enumeration, or `None` when no subset
/// disconnects the graph.
fn brute_min_cut(adj: &Graph) -> Option<usize> {
    let n = adj.len();
    (0u32..(1 << n))
        .filter_map(|mask| {
            let cut: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
            disconnects(adj, &cut).then_some(cut.len())
        })
        .min()
}

#[test]
fn sccs_agree_with_mutual_reachability() {
    let mut rng = Rng64::new(0x5CC5_CC01);
    for case in 0..400 {
        let n = 1 + (rng.below(7) as usize);
        let density = 1 + rng.below(4);
        let succs = random_digraph(&mut rng, n, density);
        let comps = sccs(&succs);
        // Partition sanity: every vertex in exactly one component.
        let mut owner = vec![usize::MAX; n];
        for (c, comp) in comps.iter().enumerate() {
            for &v in comp {
                assert_eq!(owner[v], usize::MAX, "case {case}: vertex {v} repeated");
                owner[v] = c;
            }
        }
        assert!(owner.iter().all(|&c| c != usize::MAX), "case {case}");
        // Same component iff mutually reachable.
        let reach = reachability(&succs);
        for u in 0..n {
            for v in 0..n {
                let mutual = reach[u][v] && reach[v][u];
                assert_eq!(
                    owner[u] == owner[v],
                    mutual,
                    "case {case}: vertices {u},{v} in {succs:?}"
                );
            }
        }
        // Reverse-topological order: no edge from a later component to an
        // earlier one.
        for (u, v) in succs.edges() {
            assert!(
                owner[u] >= owner[v],
                "case {case}: edge {u}->{v} breaks the component order of {succs:?}"
            );
        }
    }
}

#[test]
fn articulation_points_agree_with_removal_counting() {
    let mut rng = Rng64::new(0xA211_CC1A);
    for case in 0..400 {
        let n = 1 + (rng.below(7) as usize);
        let density = 1 + rng.below(4);
        let adj = undirect(&random_digraph(&mut rng, n, density));
        let fast: Vec<usize> = articulation_points(&adj);
        let base = component_count(&adj, &vec![true; n]);
        for v in 0..n {
            let mut alive = vec![true; n];
            alive[v] = false;
            // Removing an isolated vertex drops the count by one; an
            // articulation point strictly raises it.
            let without = component_count(&adj, &alive);
            let expected = without > base - usize::from(adj[v].is_empty());
            assert_eq!(
                fast.contains(&v),
                expected && !adj[v].is_empty(),
                "case {case}: vertex {v} of {adj:?}"
            );
        }
    }
}

#[test]
fn min_vertex_cut_agrees_with_subset_enumeration() {
    let mut rng = Rng64::new(0x0C07_0C07);
    for case in 0..300 {
        let n = 2 + (rng.below(6) as usize);
        let density = 1 + rng.below(5);
        let adj = undirect(&random_digraph(&mut rng, n, density));
        let fast = min_vertex_cut(&adj);
        let brute = brute_min_cut(&adj);
        match (&fast, brute) {
            (None, None) => {}
            (Some(cut), Some(k)) => {
                assert_eq!(cut.len(), k, "case {case}: {adj:?} cut {cut:?}");
                assert!(
                    cut.is_empty() || disconnects(&adj, cut),
                    "case {case}: returned cut does not disconnect {adj:?}"
                );
                if cut.is_empty() {
                    let alive = vec![true; n];
                    assert!(
                        component_count(&adj, &alive) >= 2,
                        "case {case}: empty cut on a connected graph {adj:?}"
                    );
                }
            }
            (fast, brute) => {
                panic!("case {case}: fast {fast:?} vs brute {brute:?} on {adj:?}")
            }
        }
    }
}
