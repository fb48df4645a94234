//! Flat-CSR adjacency for cache-conscious kernel iteration.
//!
//! [`Graph`] stores one heap-allocated adjacency `Vec` per node, so a
//! Dijkstra relaxation sweep hops between scattered allocations and
//! re-checks liveness flags per entry. [`CsrView`] packs the graph's
//! *raw* adjacency (tombstones included, insertion order) into one
//! contiguous compressed-sparse-row arena, and each node's usable
//! `(neighbor, edge, weight)` triples, in the same order, into a *live
//! lane* of a second flat array. The relaxation hot loop is a
//! branch-free walk over sequential triples.
//!
//! The view is also mutable in place ([`GraphViewMut`]): removing or
//! restoring a node or edge re-filters only the lanes of the touched
//! node(s) and their raw neighbors, from the raw adjacency in insertion
//! order, and [`set_weight`](GraphViewMut::set_weight) rewrites the
//! edge's two lane slots. A lane that outgrows its slot moves to the end
//! of the array with room for its raw degree, and once moved and shrunk
//! lanes waste more than a quarter of the array, every lane is packed
//! back to its live length, so the live triples stay dense. Every
//! mutation call advances [`epoch`](GraphView::epoch), no-ops included.
//!
//! Both routing paths relax over such views. The sequential rip-up pass
//! routes every net on one view built per pass; the PathFinder route
//! phase builds one per iteration and gives each worker its own copy,
//! which the worker mutates per net (pins revealed, congestion excluded)
//! and restores. Because the raw entries and flags are copied verbatim,
//! iteration order — and therefore every routed tree — is bit-identical
//! to iterating the source graph mutated the same way.

use crate::view::{GraphView, GraphViewMut};
use crate::{EdgeId, Graph, GraphError, NodeId, Weight};

/// Filler for lane slots no live triple occupies.
const VACANT: (NodeId, EdgeId, Weight) =
    (NodeId::from_index(0), EdgeId::from_index(0), Weight::ZERO);

/// A contiguous CSR copy of a [`Graph`], mutable in place.
///
/// # Example
///
/// ```
/// use route_graph::{csr::CsrView, Graph, GraphView, GraphViewMut, ShortestPaths, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// g.add_edge(n[0], n[1], Weight::from_units(2))?;
/// g.add_edge(n[1], n[2], Weight::from_units(3))?;
/// let mut csr = CsrView::build(&g);
/// let sp = ShortestPaths::run(&csr, n[0])?;
/// assert_eq!(sp.dist(n[2]), Some(Weight::from_units(5)));
/// assert_eq!(csr.epoch(), g.epoch());
/// csr.remove_node(n[1])?;
/// assert_eq!(ShortestPaths::run(&csr, n[0])?.dist(n[2]), None);
/// assert!(csr.epoch() > g.epoch());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrView {
    /// `adj[offsets[v]..offsets[v + 1]]` are `v`'s raw adjacency entries.
    offsets: Vec<usize>,
    /// Raw `(neighbor, edge)` pairs in graph insertion order, tombstones
    /// included: the source every lane refill filters.
    adj: Vec<(NodeId, EdgeId)>,
    /// `lanes[lane_start[v]..lane_start[v] + live_len[v]]` are `v`'s
    /// *usable* `(neighbor, edge, weight)` triples in raw order, in a slot
    /// of `lane_cap[v]` entries; the rest of the array is spare room and
    /// vacated slots. The relaxation hot loop walks a lane with no
    /// per-entry flag checks.
    lanes: Vec<(NodeId, EdgeId, Weight)>,
    lane_start: Vec<usize>,
    lane_cap: Vec<usize>,
    live_len: Vec<usize>,
    /// The sum of `live_len`: the entries the lanes must hold.
    live_entries: usize,
    node_alive: Vec<bool>,
    /// Per-edge own removal flag (endpoint liveness excluded).
    edge_alive: Vec<bool>,
    endpoints: Vec<(NodeId, NodeId)>,
    weights: Vec<Weight>,
    live_nodes: usize,
    live_edge_flags: usize,
    epoch: u64,
}

impl CsrView {
    /// Copies `graph` into flat arrays. `O(nodes + edges)`; the rip-up
    /// pass builds one per pass and the pathfinder one per iteration.
    pub fn build(graph: &Graph) -> CsrView {
        let n = graph.node_count();
        let m = graph.edge_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        let mut node_alive = Vec::with_capacity(n);
        offsets.push(0);
        for v in (0..n).map(NodeId::from_index) {
            adj.extend_from_slice(graph.adj_entries(v));
            offsets.push(adj.len());
            node_alive.push(graph.is_node_live(v));
        }
        let mut edge_alive = Vec::with_capacity(m);
        let mut endpoints = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        for (ends, weight, alive) in graph.edge_records() {
            endpoints.push(ends);
            weights.push(weight);
            edge_alive.push(alive);
        }
        let mut csr = CsrView {
            lanes: vec![VACANT; adj.len()],
            lane_start: offsets[..n].to_vec(),
            lane_cap: offsets.windows(2).map(|pair| pair[1] - pair[0]).collect(),
            offsets,
            adj,
            live_len: vec![0; n],
            live_entries: 0,
            node_alive,
            edge_alive,
            endpoints,
            weights,
            live_nodes: graph.live_node_count(),
            live_edge_flags: graph.live_edge_count(),
            epoch: graph.epoch(),
        };
        for v in 0..n {
            csr.refill_lane(v);
        }
        csr.compact_if_sparse();
        csr
    }

    /// Whether raw adjacency entry `k` is usable: its edge is not removed
    /// and its far endpoint is live.
    fn usable(&self, k: usize) -> bool {
        let (u, e) = self.adj[k];
        self.edge_alive[e.index()] && self.node_alive[u.index()]
    }

    /// Re-filters node `v`'s live lane from its raw adjacency: usable
    /// entries, in insertion order; empty while `v` is removed. A lane
    /// that no longer fits its slot moves to a fresh slot at the end of
    /// the array with room for every raw entry.
    fn refill_lane(&mut self, v: usize) {
        let raw = self.offsets[v]..self.offsets[v + 1];
        let alive = self.node_alive[v];
        if alive
            && self.lane_cap[v] < raw.len()
            && raw.clone().filter(|&k| self.usable(k)).count() > self.lane_cap[v]
        {
            self.lane_start[v] = self.lanes.len();
            self.lane_cap[v] = raw.len();
            self.lanes.resize(self.lanes.len() + raw.len(), VACANT);
        }
        let start = self.lane_start[v];
        let mut len = 0;
        if alive {
            for k in raw {
                if self.usable(k) {
                    let (u, e) = self.adj[k];
                    self.lanes[start + len] = (u, e, self.weights[e.index()]);
                    len += 1;
                }
            }
        }
        self.live_entries = self.live_entries + len - self.live_len[v];
        self.live_len[v] = len;
    }

    /// Packs every lane, in node order, into a slot of exactly its live
    /// length.
    fn compact(&mut self) {
        let mut lanes = Vec::with_capacity(self.live_entries);
        for v in 0..self.live_len.len() {
            let start = self.lane_start[v];
            self.lane_start[v] = lanes.len();
            self.lane_cap[v] = self.live_len[v];
            lanes.extend_from_slice(&self.lanes[start..start + self.live_len[v]]);
        }
        self.lanes = lanes;
    }

    /// Compacts once spare room and vacated slots exceed a quarter of
    /// the live entries (plus a small constant, so tiny graphs do not
    /// compact on every mutation). A compaction costs one pass over the
    /// live entries; a rip-up pass on `k2` compacts about once per 20 nets.
    fn compact_if_sparse(&mut self) {
        const SLACK: usize = 64;
        if self.lanes.len() > self.live_entries + self.live_entries / 4 + SLACK {
            self.compact();
        }
    }

    /// Re-filters the lanes of `v` and of each of its raw neighbors — every
    /// lane whose content `v`'s liveness decides.
    fn refill_around(&mut self, v: usize) {
        self.refill_lane(v);
        for k in self.offsets[v]..self.offsets[v + 1] {
            let u = self.adj[k].0.index();
            self.refill_lane(u);
        }
    }

    /// Sets edge `e`'s own removal flag, refilling its endpoints' lanes
    /// when the flag changes.
    fn set_edge_alive(&mut self, e: EdgeId, alive: bool) -> Result<(), GraphError> {
        let flag = self
            .edge_alive
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        if *flag != alive {
            *flag = alive;
            if alive {
                self.live_edge_flags += 1;
            } else {
                self.live_edge_flags -= 1;
            }
            let (a, b) = self.endpoints[e.index()];
            self.refill_lane(a.index());
            self.refill_lane(b.index());
            self.compact_if_sparse();
        }
        self.epoch += 1;
        Ok(())
    }

    /// Sets node `v`'s liveness, refilling the lanes around it when it
    /// changes.
    fn set_node_alive(&mut self, v: NodeId, alive: bool) -> Result<(), GraphError> {
        let flag = self
            .node_alive
            .get_mut(v.index())
            .ok_or(GraphError::NodeOutOfBounds(v))?;
        if *flag != alive {
            *flag = alive;
            if alive {
                self.live_nodes += 1;
            } else {
                self.live_nodes -= 1;
            }
            self.refill_around(v.index());
            self.compact_if_sparse();
        }
        self.epoch += 1;
        Ok(())
    }
}

impl GraphView for CsrView {
    fn node_count(&self) -> usize {
        self.node_alive.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_alive.len()
    }

    fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    fn live_edge_count(&self) -> usize {
        self.live_edge_flags
    }

    fn is_node_live(&self, v: NodeId) -> bool {
        self.node_alive.get(v.index()).copied().unwrap_or(false)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        self.edge_alive.get(e.index()).is_some_and(|&alive| {
            let (a, b) = self.endpoints[e.index()];
            alive && self.node_alive[a.index()] && self.node_alive[b.index()]
        })
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        self.endpoints
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds(e))
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        self.weights
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds(e))
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let range = match self.live_len.get(v.index()) {
            Some(&len) => self.lane_start[v.index()]..self.lane_start[v.index()] + len,
            None => 0..0,
        };
        self.lanes[range].iter().copied()
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_alive
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_alive.len())
            .map(EdgeId::from_index)
            .filter(|&e| self.is_edge_usable(e))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl GraphViewMut for CsrView {
    fn set_weight(&mut self, e: EdgeId, weight: Weight) -> Result<(), GraphError> {
        let slot = self
            .weights
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        *slot = weight;
        let (a, b) = self.endpoints[e.index()];
        for v in [a.index(), b.index()] {
            let start = self.lane_start[v];
            for entry in &mut self.lanes[start..start + self.live_len[v]] {
                if entry.1 == e {
                    entry.2 = weight;
                }
            }
        }
        self.epoch += 1;
        Ok(())
    }

    fn remove_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        self.set_edge_alive(e, false)
    }

    fn restore_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        self.set_edge_alive(e, true)
    }

    fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        self.set_node_alive(v, false)
    }

    fn restore_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        self.set_node_alive(v, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShortestPaths;

    /// A small graph with removed nodes, removed edges, and parallel
    /// edges — every liveness case the snapshot must preserve.
    fn mutated_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.node_ids().collect();
        let w = Weight::from_units;
        g.add_edge(n[0], n[1], w(1)).unwrap();
        g.add_edge(n[1], n[2], w(2)).unwrap();
        let dup = g.add_edge(n[1], n[2], w(1)).unwrap();
        g.add_edge(n[2], n[3], w(3)).unwrap();
        let cut = g.add_edge(n[0], n[3], w(1)).unwrap();
        g.add_edge(n[3], n[4], w(1)).unwrap();
        g.add_edge(n[4], n[5], w(2)).unwrap();
        g.remove_edge(cut).unwrap();
        g.remove_node(n[5]).unwrap();
        let _ = dup;
        (g, n)
    }

    #[test]
    fn snapshot_matches_source_view_surface() {
        let (g, _) = mutated_graph();
        let csr = CsrView::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.live_node_count(), g.live_node_count());
        assert_eq!(csr.live_edge_count(), g.live_edge_count());
        assert_eq!(csr.epoch(), g.epoch());
        assert_eq!(
            csr.node_ids().collect::<Vec<_>>(),
            g.node_ids().collect::<Vec<_>>()
        );
        assert_eq!(
            GraphView::edge_ids(&csr).collect::<Vec<_>>(),
            g.edge_ids().collect::<Vec<_>>()
        );
        for i in 0..g.edge_count() {
            let e = EdgeId::from_index(i);
            assert_eq!(csr.is_edge_usable(e), g.is_edge_usable(e), "{e}");
            assert_eq!(GraphView::weight(&csr, e).ok(), g.weight(e).ok());
            assert_eq!(GraphView::endpoints(&csr, e).ok(), g.endpoints(e).ok());
        }
        for v in (0..g.node_count()).map(NodeId::from_index) {
            assert_eq!(
                csr.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>(),
                "adjacency of {v} must match in content and order"
            );
        }
    }

    #[test]
    fn shortest_paths_agree_with_source() {
        let (g, n) = mutated_graph();
        let csr = CsrView::build(&g);
        let on_graph = ShortestPaths::run(&g, n[0]).unwrap();
        let on_csr = ShortestPaths::run(&csr, n[0]).unwrap();
        for &v in &n {
            assert_eq!(on_csr.dist(v), on_graph.dist(v));
            assert_eq!(on_csr.parent(v), on_graph.parent(v));
        }
    }

    #[test]
    fn moved_lanes_are_compacted_and_stay_exact() {
        // A grid's inner nodes all lose and regain neighbors, so lanes
        // outgrow their packed slots over and over; the array must stay
        // bounded and every lane exact.
        let mut g = crate::GridGraph::new(12, 12, Weight::UNIT).unwrap().graph().clone();
        let mut csr = CsrView::build(&g);
        let bound = |csr: &CsrView| csr.live_entries + csr.live_entries / 4 + 64;
        for round in 0..6 {
            for i in (round % 3..g.node_count()).step_by(3) {
                let v = NodeId::from_index(i);
                csr.remove_node(v).unwrap();
                g.remove_node(v).unwrap();
                assert!(csr.lanes.len() <= bound(&csr), "round {round}: array not compacted");
            }
            for i in (round % 3..g.node_count()).step_by(3) {
                let v = NodeId::from_index(i);
                csr.restore_node(v).unwrap();
                g.restore_node(v).unwrap();
                assert!(csr.lanes.len() <= bound(&csr), "round {round}: array not compacted");
            }
            for v in (0..g.node_count()).map(NodeId::from_index) {
                assert_eq!(
                    csr.neighbors(v).collect::<Vec<_>>(),
                    g.neighbors(v).collect::<Vec<_>>(),
                    "round {round}: lane of {v}"
                );
            }
        }
    }

    #[test]
    fn unknown_ids_are_rejected_not_panicked() {
        let (g, _) = mutated_graph();
        let csr = CsrView::build(&g);
        let far_node = NodeId::from_index(99);
        let far_edge = EdgeId::from_index(99);
        assert!(!csr.is_node_live(far_node));
        assert!(!csr.is_edge_usable(far_edge));
        assert_eq!(csr.neighbors(far_node).count(), 0);
        assert!(matches!(
            GraphView::weight(&csr, far_edge),
            Err(GraphError::EdgeOutOfBounds(_))
        ));
    }
}
