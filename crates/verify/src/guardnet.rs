//! The guard network: who checks whom, and where it is weakest.
//!
//! Self-checksumming literature argues that individual guards buy little —
//! what makes tampering expensive is a *network* in which guards cover
//! each other, so defeating one check requires defeating the checks that
//! check it, transitively. This module builds that digraph from the
//! verified guard windows (edge `k → j` when window `k`'s hashed interval
//! covers guard `j`'s signature symbols) and computes the classic
//! connectivity diagnostics over the sound subgraph:
//!
//! * **SCC condensation** ([`sccs`]) — guards in a common strongly
//!   connected component check each other cyclically; singleton
//!   components are acyclic chain links.
//! * **Articulation points** ([`articulation_points`]) — guards whose
//!   removal splits the (undirected) network.
//! * **Minimum vertex cut** ([`min_vertex_cut`]) — the smallest guard set
//!   an attacker must defeat to disconnect the network; on images whose
//!   emitter lays out disjoint windows the network is edgeless, the cut
//!   is empty, and that disconnection is itself the finding (`FP701`).
//!
//! [`build`] packages all of it, ranks weak links, and [`to_json`] emits
//! the stable `flexprot-guardnet-v1` document that `fplint --guardnet`
//! prints; `fpmatrix` tabulates the same network for every protection-matrix
//! cell.

use flexprot_trace::json::{self, JsonWriter};

use crate::absint::{GuardProof, Verdict};
use crate::coverage::GuardWindow;
use crate::graph::Graph;

/// One guard in the network, with its connectivity diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetNode {
    /// Address of the first guard symbol word.
    pub site_addr: u32,
    /// Whether the window passed every structural and cryptographic check
    /// (only sound guards participate in the graph analyses).
    pub sound: bool,
    /// Strongly connected component id over the sound subgraph.
    pub scc: Option<usize>,
    /// Sound and checked by no other guard.
    pub unchecked: bool,
    /// Sound, checked by someone, but not in any checking cycle.
    pub acyclic: bool,
    /// Member of the minimum vertex cut.
    pub in_cut: bool,
    /// Articulation point of the undirected sound subgraph.
    pub articulation: bool,
}

/// One ranked weak link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeakLink {
    /// Index into [`GuardNet::nodes`].
    pub node: usize,
    /// The guard's site address.
    pub site_addr: u32,
    /// Weakness score (higher = weaker): 4·unchecked + 2·in-cut +
    /// 1·acyclic.
    pub score: u32,
}

/// The who-checks-whom digraph and its analysis results.
#[derive(Debug, Clone, Default)]
pub struct GuardNet {
    /// One node per guard window, in site-address order (indices align
    /// with the coverage analysis' window indices).
    pub nodes: Vec<NetNode>,
    /// Per node: the guards it checks (indices into `nodes`, ascending).
    pub checks: Graph,
    /// Per node: the guards checking it, ascending.
    pub checked_by: Graph,
    /// Number of check edges between distinct sound guards.
    pub edges: usize,
    /// Number of strongly connected components of the sound subgraph.
    pub scc_count: usize,
    /// The minimum vertex cut of the undirected sound subgraph: `None`
    /// when no cut exists (complete or too small a graph), `Some(empty)`
    /// when the network is already disconnected.
    pub min_cut: Option<Vec<usize>>,
    /// Weak links, weakest first.
    pub weak_links: Vec<WeakLink>,
}

impl GuardNet {
    /// Number of sound guards.
    pub fn sound_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.sound).count()
    }

    /// Sound guards checked by no other guard.
    pub fn unchecked_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.unchecked).count()
    }

    /// Sound guards on acyclic chains.
    pub fn acyclic_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.acyclic).count()
    }

    /// Whether the sound subgraph is connected with ≥ 2 guards — the
    /// precondition for a cut-based attack being more expensive than
    /// defeating one guard.
    pub fn is_connected(&self) -> bool {
        self.sound_count() >= 2 && !matches!(&self.min_cut, Some(cut) if cut.is_empty())
    }

    /// The guards an attacker must defeat to silently tamper with the
    /// guards in `seeds`: the transitive closure of `seeds` under
    /// "checked by". Defeating a guard perturbs its own window, which its
    /// checkers notice, so they must fall too.
    pub fn defeat_closure(&self, seeds: &[usize]) -> Vec<usize> {
        let mut in_closure = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < self.nodes.len() && !in_closure[s] {
                in_closure[s] = true;
                stack.push(s);
            }
        }
        while let Some(v) = stack.pop() {
            for &p in &self.checked_by[v] {
                if !in_closure[p] {
                    in_closure[p] = true;
                    stack.push(p);
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| in_closure[i]).collect()
    }
}

/// Builds the network from the verified windows.
pub fn build(windows: &[GuardWindow]) -> GuardNet {
    let n = windows.len();
    // Edge k -> j: window k's hashed interval covers guard j's symbol
    // words, for distinct sound guards. A guard always covers its own
    // symbols (they *are* the signature), so self-edges carry no
    // information and are excluded.
    let checks_symbols = |k: usize, j: usize| {
        let (wk, wj) = (&windows[k], &windows[j]);
        j != k && wk.sound && wj.sound && wk.start < wj.site + wj.symbols && wj.site < wk.end()
    };
    let checks: Graph = (0..n)
        .map(|k| (0..n).filter(move |&j| checks_symbols(k, j)))
        .collect();
    let checked_by = checks.invert();

    // Graph analyses run on the compacted sound subgraph.
    let sound_ids: Vec<usize> = (0..n).filter(|&i| windows[i].sound).collect();
    let compact: Vec<Option<usize>> = {
        let mut m = vec![None; n];
        for (c, &i) in sound_ids.iter().enumerate() {
            m[i] = Some(c);
        }
        m
    };
    let sub_succs: Graph = sound_ids
        .iter()
        .map(|&i| checks[i].iter().map(|&j| compact[j].unwrap()))
        .collect();
    let sub_adj = undirected(&sub_succs);
    let components = sccs(&sub_succs);
    let mut scc_of = vec![usize::MAX; sound_ids.len()];
    for (c, comp) in components.iter().enumerate() {
        for &v in comp {
            scc_of[v] = c;
        }
    }
    let arts = articulation_points(&sub_adj);
    let cut = min_vertex_cut(&sub_adj);

    let mut nodes: Vec<NetNode> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let c = compact[i];
            let in_cycle = c.is_some_and(|c| components[scc_of[c]].len() > 1);
            NetNode {
                site_addr: w.site_addr,
                sound: w.sound,
                scc: c.map(|c| scc_of[c]),
                unchecked: w.sound && checked_by[i].is_empty(),
                acyclic: w.sound && !checked_by[i].is_empty() && !in_cycle,
                in_cut: false,
                articulation: c.is_some_and(|c| arts.contains(&c)),
            }
        })
        .collect();
    if let Some(cut) = &cut {
        for &c in cut {
            nodes[sound_ids[c]].in_cut = true;
        }
    }

    let mut weak_links: Vec<WeakLink> = nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.sound)
        .map(|(i, node)| WeakLink {
            node: i,
            site_addr: node.site_addr,
            score: 4 * u32::from(node.unchecked)
                + 2 * u32::from(node.in_cut)
                + u32::from(node.acyclic),
        })
        .filter(|l| l.score > 0)
        .collect();
    weak_links.sort_by_key(|l| {
        (
            std::cmp::Reverse(l.score),
            checked_by[l.node].len(),
            l.site_addr,
        )
    });

    GuardNet {
        nodes,
        edges: checks.items().len(),
        checks,
        checked_by,
        scc_count: components.len(),
        min_cut: cut.map(|c| c.into_iter().map(|v| sound_ids[v]).collect()),
        weak_links,
    }
}

/// The undirected adjacency underlying a digraph (each row ascending and
/// deduplicated).
fn undirected(succs: &Graph) -> Graph {
    let mut pairs: Vec<(usize, usize)> = succs
        .edges()
        .filter(|(u, v)| u != v)
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    Graph::from_pairs(succs.len(), pairs.into_iter())
}

/// Strongly connected components of a digraph (iterative Tarjan).
/// Components are returned in reverse topological order of the
/// condensation (a component precedes the components it reaches);
/// vertices within a component are sorted.
pub fn sccs(succs: &Graph) -> Vec<Vec<usize>> {
    let n = succs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (vertex, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succs[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Articulation points of an undirected graph: vertices whose removal
/// increases the number of connected components. Returned sorted.
pub fn articulation_points(adj: &Graph) -> Vec<usize> {
    let n = adj.len();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut is_art = vec![false; n];
    let mut next = 0usize;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // Frames: (vertex, parent, next child position).
        let mut frames: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        let mut root_children = 0usize;
        while let Some(&mut (v, parent, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                disc[v] = next;
                low[v] = next;
                next += 1;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if disc[w] == usize::MAX {
                    if v == root {
                        root_children += 1;
                    }
                    frames.push((w, v, 0));
                } else if w != parent {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        is_art[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            is_art[root] = true;
        }
    }
    (0..n).filter(|&v| is_art[v]).collect()
}

/// Minimum vertex cut of an undirected graph.
///
/// Returns `None` when no vertex set disconnects the graph (complete
/// graphs and graphs with fewer than 3 vertices that are fully
/// connected), `Some(empty)` when the graph is already disconnected, and
/// otherwise a smallest vertex set whose removal leaves at least two
/// vertices in different components. Computed by unit-capacity node-split
/// max-flow over every non-adjacent vertex pair — exact, and fast enough
/// for guard networks (tens of nodes).
pub fn min_vertex_cut(adj: &Graph) -> Option<Vec<usize>> {
    let n = adj.len();
    if n < 2 {
        return None;
    }
    if !connected(adj) {
        return Some(Vec::new());
    }
    let mut best: Option<Vec<usize>> = None;
    for s in 0..n {
        for t in s + 1..n {
            if adj[s].contains(&t) {
                continue;
            }
            let cut = st_vertex_cut(adj, s, t);
            if best.as_ref().is_none_or(|b| cut.len() < b.len()) {
                best = Some(cut);
            }
        }
    }
    best
}

/// Whether an undirected graph is connected (vacuously true when empty).
fn connected(adj: &Graph) -> bool {
    let n = adj.len();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1usize;
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count == n
}

/// Minimum s–t vertex cut for non-adjacent `s`, `t` via node splitting:
/// each vertex v becomes `v_in → v_out` with capacity 1 (∞ for the
/// terminals), each undirected edge {u, v} becomes `u_out → v_in` and
/// `v_out → u_in` with capacity ∞; max-flow from `s_out` to `t_in` then
/// equals the cut, recovered from the residual reachability frontier.
fn st_vertex_cut(adj: &Graph, s: usize, t: usize) -> Vec<usize> {
    const INF: i64 = i64::MAX / 4;
    let n = adj.len();
    let node_in = |v: usize| 2 * v;
    let node_out = |v: usize| 2 * v + 1;
    // Residual edges `(from, to, cap)`, each forward edge followed by its
    // reverse (edge `e ^ 1`), and every node's row of outgoing edge ids.
    let mut edges: Vec<(usize, usize, i64)> = Vec::new();
    let mut add_edge = |from: usize, to: usize, cap: i64| {
        edges.push((from, to, cap));
        edges.push((to, from, 0));
    };
    for v in 0..n {
        let cap = if v == s || v == t { INF } else { 1 };
        add_edge(node_in(v), node_out(v), cap);
    }
    for (u, v) in adj.edges() {
        add_edge(node_out(u), node_in(v), INF);
    }
    let graph = Graph::from_pairs(
        2 * n,
        edges.iter().enumerate().map(|(e, &(from, ..))| (from, e)),
    );
    let (source, sink) = (node_out(s), node_in(t));

    // Edmonds–Karp: BFS augmenting paths.
    loop {
        let mut prev: Vec<Option<usize>> = vec![None; 2 * n];
        let mut queue = std::collections::VecDeque::from([source]);
        let mut reached = vec![false; 2 * n];
        reached[source] = true;
        while let Some(v) = queue.pop_front() {
            for &e in &graph[v] {
                let (_, to, cap) = edges[e];
                if cap > 0 && !reached[to] {
                    reached[to] = true;
                    prev[to] = Some(e);
                    queue.push_back(to);
                }
            }
        }
        if !reached[sink] {
            break;
        }
        // Trace the path, find the bottleneck, push one unit (all vertex
        // capacities are 1, so the bottleneck is always 1 here unless the
        // path is terminal-to-terminal, which non-adjacency precludes).
        let mut bottleneck = INF;
        let mut v = sink;
        while let Some(e) = prev[v] {
            bottleneck = bottleneck.min(edges[e].2);
            v = edges[e].0;
        }
        let mut v = sink;
        while let Some(e) = prev[v] {
            edges[e].2 -= bottleneck;
            edges[e ^ 1].2 += bottleneck;
            v = edges[e].0;
        }
    }

    // Residual reachability from the source; a vertex whose in-node is
    // reachable but whose out-node is not sits on the cut.
    let mut reached = vec![false; 2 * n];
    reached[source] = true;
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        for &e in &graph[v] {
            let (_, to, cap) = edges[e];
            if cap > 0 && !reached[to] {
                reached[to] = true;
                stack.push(to);
            }
        }
    }
    (0..n)
        .filter(|&v| v != s && v != t && reached[node_in(v)] && !reached[node_out(v)])
        .collect()
}

/// Renders the network and the checksum proofs as the stable
/// `flexprot-guardnet-v1` JSON document.
///
/// Schema: `{"schema","guards","sound","edges","sccs","unchecked",
/// "acyclic","proven","min_cut","nodes":[{"site","sound","checks",
/// "checked_by","scc","unchecked","acyclic","in_cut","articulation",
/// "proof","detail"}],"weak_links":[{"site","score"}]}`. Field order is
/// fixed; consumers may rely on it. `min_cut` is `null` when no cut
/// exists, else a list of site addresses. `detail` is `null` where no
/// proof was attempted, a digest/witness string for proven/mismatch, and
/// a `{"code","reason"}` object (stable snake_case refusal code plus
/// prose) for unproven.
pub fn to_json(net: &GuardNet, proofs: &[GuardProof]) -> String {
    let proven = proofs
        .iter()
        .filter(|p| matches!(p.verdict, Verdict::Proven { .. }))
        .count();
    let sites = |w: &mut JsonWriter, ids: &[usize]| {
        for &id in ids {
            w.hex(net.nodes[id].site_addr);
        }
    };
    json::object(|w| {
        w.key("schema").str("flexprot-guardnet-v1");
        w.key("guards").num(net.nodes.len());
        w.key("sound").num(net.sound_count());
        w.key("edges").num(net.edges);
        w.key("sccs").num(net.scc_count);
        w.key("unchecked").num(net.unchecked_count());
        w.key("acyclic").num(net.acyclic_count());
        w.key("proven").num(proven);
        w.key("min_cut")
            .opt(net.min_cut.as_deref(), |w, cut| w.array(|w| sites(w, cut)));
        w.key("nodes").array(|w| {
            for (i, node) in net.nodes.iter().enumerate() {
                w.object(|w| {
                    w.key("site").hex(node.site_addr);
                    w.key("sound").bool(node.sound);
                    w.key("checks").array(|w| sites(w, &net.checks[i]));
                    w.key("checked_by").array(|w| sites(w, &net.checked_by[i]));
                    w.key("scc").opt(node.scc, JsonWriter::num);
                    w.key("unchecked").bool(node.unchecked);
                    w.key("acyclic").bool(node.acyclic);
                    w.key("in_cut").bool(node.in_cut);
                    w.key("articulation").bool(node.articulation);
                    proof_fields(w, proofs, node.site_addr);
                });
            }
        });
        w.key("weak_links").array(|w| {
            for l in &net.weak_links {
                w.object(|w| {
                    w.key("site").hex(l.site_addr);
                    w.key("score").num(l.score);
                });
            }
        });
    })
}

/// Writes the `proof` and `detail` members for the guard at `site_addr`.
fn proof_fields(w: &mut JsonWriter, proofs: &[GuardProof], site_addr: u32) {
    match proofs
        .iter()
        .find(|p| p.site_addr == site_addr)
        .map(|p| &p.verdict)
    {
        None => w.key("proof").str("unproven").key("detail").null(),
        Some(Verdict::Proven { digest }) => w.key("proof").str("proven").key("detail").hex(*digest),
        Some(Verdict::Mismatch { witness_addr, .. }) => w
            .key("proof")
            .str("mismatch")
            .key("detail")
            .hex(*witness_addr),
        Some(Verdict::Unproven { reason }) => {
            w.key("proof").str("unproven").key("detail").object(|w| {
                w.key("code").str(reason.code());
                w.key("reason").str(&reason.to_string());
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph;

    fn window(start: usize, site: usize, sound: bool) -> GuardWindow {
        GuardWindow {
            site_addr: 0x0040_0000 + 4 * site as u32,
            start,
            site,
            symbols: 4,
            tail: 0,
            structural: sound,
            sound,
        }
    }

    #[test]
    fn disjoint_windows_make_an_edgeless_disconnected_network() {
        // The emitter's real layout: one guard per block, windows disjoint.
        let net = build(&[window(0, 2, true), window(8, 10, true)]);
        assert_eq!(net.edges, 0);
        assert_eq!(net.unchecked_count(), 2);
        assert_eq!(net.min_cut, Some(vec![]));
        assert!(!net.is_connected());
        assert_eq!(net.weak_links.len(), 2);
        assert!(net.weak_links.iter().all(|l| l.score == 4));
        assert_eq!(net.defeat_closure(&[0]), vec![0]);
    }

    #[test]
    fn overlapping_windows_form_edges_and_closures() {
        // Window 0 covers words [0, 10): it includes guard 1's symbols at
        // [6, 10). Window 1 covers [4, 14): it includes guard 0's symbols
        // at [2, 6) only partially — still an edge (any overlap).
        let w0 = GuardWindow {
            site_addr: 0x0040_0008,
            start: 0,
            site: 2,
            symbols: 4,
            tail: 4,
            structural: true,
            sound: true,
        };
        let w1 = GuardWindow {
            site_addr: 0x0040_0018,
            start: 4,
            site: 6,
            symbols: 4,
            tail: 4,
            structural: true,
            sound: true,
        };
        let net = build(&[w0, w1]);
        assert_eq!(net.edges, 2, "mutual checking");
        assert_eq!(net.unchecked_count(), 0);
        assert_eq!(net.acyclic_count(), 0);
        assert_eq!(net.scc_count, 1, "one cycle");
        assert!(net.is_connected());
        assert_eq!(net.min_cut, None, "K2 is complete");
        assert!(net.weak_links.is_empty());
        assert_eq!(net.defeat_closure(&[0]), vec![0, 1]);
    }

    #[test]
    fn unsound_windows_are_isolated_from_the_graph() {
        let w0 = GuardWindow {
            site_addr: 0x0040_0008,
            start: 0,
            site: 2,
            symbols: 4,
            tail: 4,
            structural: true,
            sound: true,
        };
        let mut w1 = w0;
        w1.site_addr = 0x0040_0018;
        w1.start = 4;
        w1.site = 6;
        w1.sound = false;
        let net = build(&[w0, w1]);
        assert_eq!(net.edges, 0, "edges need both endpoints sound");
        assert_eq!(net.sound_count(), 1);
        assert!(net.nodes[1].scc.is_none());
        assert_eq!(net.weak_links.len(), 1, "only the sound node ranks");
    }

    #[test]
    fn scc_condensation_on_a_known_digraph() {
        // 0 <-> 1, 2 -> 0, 2 -> 3, 3 -> 2: components {0,1} and {2,3}.
        let succs = graph(&[&[1], &[0], &[0, 3], &[2]]);
        let mut comps = sccs(&succs);
        comps.sort();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn articulation_points_on_a_known_graph() {
        // Path 0 - 1 - 2: the middle vertex is the articulation point.
        let adj = graph(&[&[1], &[0, 2], &[1]]);
        assert_eq!(articulation_points(&adj), vec![1]);
        // Triangle: none.
        let tri = graph(&[&[1, 2], &[0, 2], &[0, 1]]);
        assert_eq!(articulation_points(&tri), Vec::<usize>::new());
    }

    #[test]
    fn min_cut_on_known_graphs() {
        // Path 0 - 1 - 2: cut {1}.
        let path = graph(&[&[1], &[0, 2], &[1]]);
        assert_eq!(min_vertex_cut(&path), Some(vec![1]));
        // Triangle: complete, no cut.
        let tri = graph(&[&[1, 2], &[0, 2], &[0, 1]]);
        assert_eq!(min_vertex_cut(&tri), None);
        // Two isolated vertices: already disconnected.
        let iso = graph(&[&[], &[]]);
        assert_eq!(min_vertex_cut(&iso), Some(vec![]));
        // 4-cycle: any opposite pair disconnects; the cut has size 2.
        let square = graph(&[&[1, 3], &[0, 2], &[1, 3], &[2, 0]]);
        let cut = min_vertex_cut(&square).expect("cut exists");
        assert_eq!(cut.len(), 2);
    }

    #[test]
    fn guardnet_json_shape() {
        let net = build(&[window(0, 2, true), window(8, 10, true)]);
        let json = to_json(&net, &[]);
        assert!(
            json.starts_with("{\"schema\":\"flexprot-guardnet-v1\""),
            "{json}"
        );
        assert!(json.contains("\"guards\":2"), "{json}");
        assert!(json.contains("\"min_cut\":[]"), "{json}");
        assert!(json.contains("\"weak_links\":["), "{json}");
        assert!(json.contains("\"proof\":\"unproven\""), "{json}");
    }
}
