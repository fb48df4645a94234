//! Minimum spanning trees: Prim over complete distance matrices and Kruskal
//! over edge subsets of any [`GraphView`].
//!
//! Both flavours appear in the KMB heuristic (paper Appendix): `MST(G')`
//! over the complete *distance graph* on the net's terminals, and
//! `MST(G'')` over the subgraph formed by expanding distance-graph edges
//! into concrete shortest paths.

use crate::dsu::UnionFind;
use crate::view::GraphView;
use crate::{EdgeId, NodeId, Weight};

/// A minimum spanning tree of a complete graph over `0..n`, as produced by
/// [`prim_complete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteMst {
    /// Tree edges as index pairs `(i, j)` with `i, j < n`.
    pub edges: Vec<(usize, usize)>,
    /// Sum of the tree's edge weights.
    pub cost: Weight,
}

/// Computes a minimum spanning tree of the complete graph on `0..n` whose
/// edge weights are given by `dist(i, j)`.
///
/// `dist` may return `None` to indicate that `i` and `j` are disconnected in
/// the underlying graph (an absent distance-graph edge); if the complete
/// graph cannot be spanned, `None` is returned. `dist` is assumed symmetric
/// and is only consulted with `i != j`.
///
/// Runs in `O(n^2)`, which is optimal for dense inputs and is the per-call
/// cost the paper cites for the DOM subroutine.
///
/// # Example
///
/// ```
/// use route_graph::{mst::prim_complete, Weight};
///
/// let w = [[0u64, 1, 4], [1, 0, 2], [4, 2, 0]];
/// let t = prim_complete(3, |i, j| Some(Weight::from_units(w[i][j]))).unwrap();
/// assert_eq!(t.cost, Weight::from_units(3));
/// ```
#[must_use]
pub fn prim_complete(
    n: usize,
    dist: impl Fn(usize, usize) -> Option<Weight>,
) -> Option<CompleteMst> {
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let cost = prim_complete_with(n, dist, &mut PrimScratch::default(), |i, j| {
        edges.push((i, j));
    })?;
    Some(CompleteMst { edges, cost })
}

/// The per-vertex state of [`prim_complete_with`], kept between calls so
/// a caller pricing many small complete graphs allocates only while the
/// buffer grows.
#[derive(Debug, Clone, Default)]
pub struct PrimScratch {
    frontier: Vec<Frontier>,
}

/// One vertex of a running Prim: its cheapest known edge into the tree,
/// packed into 16 bytes so the per-step scans stay in few cache lines.
#[derive(Debug, Clone, Copy, Default)]
struct Frontier {
    /// Weight of the cheapest known edge into the tree (if `reached`).
    best: Weight,
    /// The tree endpoint of that edge.
    parent: u32,
    /// Some tree vertex has an edge to this one.
    reached: bool,
    /// This vertex is in the tree.
    joined: bool,
}

/// [`prim_complete`] on caller-held buffers: reports each tree edge as
/// `on_edge(i, j)` with `i < j`, in the order Prim adds them, and returns
/// the tree's saturating cost, or `None` if the graph cannot be spanned.
/// Screening loops that only need the cost pass a no-op `on_edge` and
/// allocate nothing once `scratch` has grown to `n`.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`.
pub fn prim_complete_with(
    n: usize,
    dist: impl Fn(usize, usize) -> Option<Weight>,
    scratch: &mut PrimScratch,
    mut on_edge: impl FnMut(usize, usize),
) -> Option<Weight> {
    assert!(u32::try_from(n).is_ok(), "prim_complete_with: {n} vertices");
    let frontier = &mut scratch.frontier;
    frontier.clear();
    frontier.resize(n, Frontier::default());
    let Some(root) = frontier.first_mut() else {
        return Some(Weight::ZERO);
    };
    root.joined = true;
    for (j, entry) in frontier.iter_mut().enumerate().skip(1) {
        if let Some(w) = dist(0, j) {
            entry.best = w;
            entry.reached = true;
        }
    }
    let mut cost = Weight::ZERO;
    for _ in 1..n {
        // The strictly cheapest reached outsider, lowest index on ties.
        let mut pick: Option<(Weight, usize)> = None;
        for (j, entry) in frontier.iter().enumerate() {
            if entry.reached && !entry.joined && pick.is_none_or(|(pw, _)| entry.best < pw) {
                pick = Some((entry.best, j));
            }
        }
        let (w, j) = pick?;
        let parent = frontier[j].parent as usize;
        frontier[j].joined = true;
        on_edge(parent.min(j), parent.max(j));
        cost = cost.saturating_add(w);
        for (k, entry) in frontier.iter_mut().enumerate() {
            if entry.joined {
                continue;
            }
            if let Some(w) = dist(j, k) {
                if !entry.reached || w < entry.best {
                    *entry = Frontier {
                        best: w,
                        parent: j as u32,
                        reached: true,
                        joined: false,
                    };
                }
            }
        }
    }
    Some(cost)
}

/// A minimum spanning forest of a subgraph, as produced by
/// [`kruskal_subgraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphMst {
    /// Chosen forest edges.
    pub edges: Vec<EdgeId>,
    /// Sum of the forest's edge weights.
    pub cost: Weight,
    /// `true` if the forest spans all nodes touched by the input edge set in
    /// a single component.
    pub connected: bool,
}

/// Computes a minimum spanning forest of the subgraph of `g` induced by the
/// given edge set (Kruskal).
///
/// Duplicate edge ids are tolerated and used once. Unusable (removed) edges
/// are skipped. The node set of the subgraph is exactly the set of endpoints
/// of usable input edges.
///
/// # Example
///
/// ```
/// use route_graph::{mst::kruskal_subgraph, Graph, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
/// let e1 = g.add_edge(n[1], n[2], Weight::from_units(2))?;
/// let e2 = g.add_edge(n[0], n[2], Weight::from_units(9))?;
/// let mst = kruskal_subgraph(&g, &[e0, e1, e2]);
/// assert_eq!(mst.edges, vec![e0, e1]);
/// assert_eq!(mst.cost, Weight::from_units(3));
/// assert!(mst.connected);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn kruskal_subgraph<G: GraphView>(g: &G, edges: &[EdgeId]) -> SubgraphMst {
    let mut seen_edge = vec![false; g.edge_count()];
    let mut sorted: Vec<(Weight, EdgeId)> = Vec::with_capacity(edges.len());
    let mut touched: Vec<NodeId> = Vec::new();
    let mut node_seen = vec![false; g.node_count()];
    for &e in edges {
        if e.index() >= seen_edge.len() || seen_edge[e.index()] || !g.is_edge_usable(e) {
            continue;
        }
        seen_edge[e.index()] = true;
        let w = g.weight(e).expect("usable edge has weight");
        sorted.push((w, e));
        let (a, b) = g.endpoints(e).expect("usable edge has endpoints");
        for v in [a, b] {
            if !node_seen[v.index()] {
                node_seen[v.index()] = true;
                touched.push(v);
            }
        }
    }
    sorted.sort();
    // Compact node indices for the DSU.
    let mut compact = vec![usize::MAX; g.node_count()];
    for (i, &v) in touched.iter().enumerate() {
        compact[v.index()] = i;
    }
    let mut uf = UnionFind::new(touched.len());
    let mut chosen = Vec::new();
    let mut cost = Weight::ZERO;
    for (w, e) in sorted {
        let (a, b) = g.endpoints(e).expect("usable edge has endpoints");
        if uf.union(compact[a.index()], compact[b.index()]) {
            chosen.push(e);
            cost = cost.saturating_add(w);
        }
    }
    let connected = uf.set_count() <= 1;
    SubgraphMst {
        edges: chosen,
        cost,
        connected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphError};

    #[test]
    fn prim_matches_known_mst() {
        // Complete K4 with weights forming a known MST of cost 6.
        let w = [
            [0u64, 1, 3, 4],
            [1, 0, 2, 5],
            [3, 2, 0, 3],
            [4, 5, 3, 0],
        ];
        let t = prim_complete(4, |i, j| Some(Weight::from_units(w[i][j]))).unwrap();
        assert_eq!(t.cost, Weight::from_units(6));
        assert_eq!(t.edges.len(), 3);
    }

    #[test]
    fn prim_handles_trivial_sizes() {
        let t0 = prim_complete(0, |_, _| None).unwrap();
        assert!(t0.edges.is_empty());
        let t1 = prim_complete(1, |_, _| None).unwrap();
        assert!(t1.edges.is_empty());
        assert_eq!(t1.cost, Weight::ZERO);
    }

    #[test]
    fn prim_detects_disconnection() {
        // Node 2 unreachable.
        let t = prim_complete(3, |i, j| {
            ((i != 2) && (j != 2)).then(|| Weight::from_units(1))
        });
        assert!(t.is_none());
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        // One scratch across shrinking and growing sizes, disconnected
        // inputs included: no state may leak from one call to the next.
        use crate::rng::Rng;
        let mut rng = crate::rng::SplitMix64::seed_from_u64(5);
        let mut scratch = PrimScratch::default();
        for _ in 0..40 {
            let n = rng.gen_range(0..9usize);
            let cut = rng.gen_range(0..12usize);
            let w: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(1..9u64)).collect())
                .collect();
            let dist = |i: usize, j: usize| {
                (i != cut && j != cut).then(|| Weight::from_units(w[i.min(j)][i.max(j)]))
            };
            let fresh = prim_complete(n, dist);
            let mut edges = Vec::new();
            let cost = prim_complete_with(n, dist, &mut scratch, |i, j| edges.push((i, j)));
            assert_eq!(cost, fresh.as_ref().map(|t| t.cost), "n = {n}, cut = {cut}");
            if let Some(t) = fresh {
                assert_eq!(edges, t.edges, "n = {n}");
            }
        }
    }

    #[test]
    fn prim_vs_kruskal_on_random_complete_graphs() {
        use crate::rng::Rng;
        let mut rng = crate::rng::SplitMix64::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(2..9usize);
            let mut g = Graph::with_nodes(n);
            let ids: Vec<NodeId> = g.node_ids().collect();
            let mut w = vec![vec![Weight::ZERO; n]; n];
            let mut all_edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    let wt = Weight::from_units(rng.gen_range(1..50u64));
                    w[i][j] = wt;
                    w[j][i] = wt;
                    all_edges.push(g.add_edge(ids[i], ids[j], wt).unwrap());
                }
            }
            let prim = prim_complete(n, |i, j| Some(w[i][j])).unwrap();
            let kruskal = kruskal_subgraph(&g, &all_edges);
            assert_eq!(prim.cost, kruskal.cost);
            assert!(kruskal.connected);
        }
    }

    #[test]
    fn kruskal_skips_removed_and_duplicate_edges() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
        let e1 = g.add_edge(n[1], n[2], Weight::from_units(2))?;
        g.remove_edge(e1)?;
        let mst = kruskal_subgraph(&g, &[e0, e0, e1]);
        assert_eq!(mst.edges, vec![e0]);
        assert!(mst.connected); // only n0, n1 are touched by usable edges
        Ok(())
    }

    #[test]
    fn kruskal_reports_disconnected_forest() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
        let e1 = g.add_edge(n[2], n[3], Weight::from_units(1))?;
        let mst = kruskal_subgraph(&g, &[e0, e1]);
        assert_eq!(mst.edges.len(), 2);
        assert!(!mst.connected);
        Ok(())
    }

    #[test]
    fn kruskal_empty_input() {
        let g = Graph::with_nodes(3);
        let mst = kruskal_subgraph(&g, &[]);
        assert!(mst.edges.is_empty());
        assert_eq!(mst.cost, Weight::ZERO);
        assert!(mst.connected);
    }
}
