//! The Kou–Markowsky–Berman (KMB) graph Steiner heuristic.
//!
//! Paper Appendix §8.1 (and \[26\]): performance ratio `2·(1 − 1/L)` where `L`
//! is the maximum leaf count of an optimal solution.
//!
//! 1. Build the *distance graph* `G'`: the complete graph over the net with
//!    shortest-path costs as edge weights.
//! 2. Compute `MST(G')` and expand each of its edges into a concrete
//!    shortest path, yielding a subgraph `G''`.
//! 3. Compute `MST(G'')` and delete pendant non-terminal leaves.

use std::cell::Cell;

use route_graph::mst::{kruskal_subgraph, prim_complete, prim_complete_with, PrimScratch};
use route_graph::{EdgeId, GraphView, NodeId, TerminalDistances, Weight};

use crate::heuristic::{
    construct_via_base, require_connected, HeuristicInfo, IteratedBase, IteratedBaseInfo,
    SteinerHeuristic,
};
use crate::{Net, RoutingTree, SteinerError};

/// The KMB heuristic (paper Appendix Figure 17).
///
/// Also serves as the base `H` of the iterated IKMB construction via
/// [`IteratedBase`].
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Kmb, Net, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(4, 4, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 0)?,
///     vec![grid.node_at(3, 0)?, grid.node_at(0, 3)?],
/// )?;
/// let tree = Kmb::new().construct(grid.graph(), &net)?;
/// assert!(tree.spans(&net));
/// assert_eq!(tree.cost(), Weight::from_units(6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kmb;

impl Kmb {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Kmb {
        Kmb
    }
}

impl HeuristicInfo for Kmb {
    fn name(&self) -> &str {
        "KMB"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Kmb {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        construct_via_base(self, g, net)
    }
}

impl IteratedBaseInfo for Kmb {
    fn base_name(&self) -> &str {
        "KMB"
    }

    /// KMB queries `td` only between members and the candidate: the
    /// distance-graph MST reads member-pair distances, and the expansion
    /// extracts member-to-member paths (whose interior nodes Dijkstra
    /// settled before the endpoints). Target-restricted runs are
    /// therefore exact for it.
    fn supports_target_restricted_distances(&self) -> bool {
        true
    }
}

impl<G: GraphView> IteratedBase<G> for Kmb {
    /// Distance-graph MST cost: an upper bound on the full KMB cost (steps
    /// 2–3 can only shed weight), computable in `O(k²)` with no path
    /// expansion. Runs on per-thread Prim buffers, so the thousands of
    /// calls per IGMST round allocate nothing.
    fn screen_with(
        &self,
        _g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<Weight, SteinerError> {
        require_connected(td, candidate)?;
        let base = td.len();
        let k = base + usize::from(candidate.is_some());
        let dist = |i: usize, j: usize| -> Option<Weight> {
            match (i == base, j == base) {
                (false, false) => td.dist(i, j),
                (true, false) => td.dist_to_node(j, candidate.expect("index implies candidate")),
                (false, true) => td.dist_to_node(i, candidate.expect("index implies candidate")),
                (true, true) => unreachable!("prim never queries the diagonal"),
            }
        };
        let mut scratch = SCREEN_SCRATCH.take();
        let cost = prim_complete_with(k, dist, &mut scratch, |_, _| {});
        SCREEN_SCRATCH.set(scratch);
        cost.ok_or_else(|| {
            SteinerError::Graph(route_graph::GraphError::Disconnected {
                from: td.terminals()[0],
                to: td.terminals()[0],
            })
        })
    }

    fn build_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<RoutingTree, SteinerError> {
        require_connected(td, candidate)?;
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::KmbConstructions, 1);
        }
        let base = td.len();
        let k = base + usize::from(candidate.is_some());
        // Step 1+2: MST over the (extended) distance graph.
        let dist = |i: usize, j: usize| -> Option<Weight> {
            match (i == base, j == base) {
                (false, false) => td.dist(i, j),
                (true, false) => td.dist_to_node(j, candidate.expect("index implies candidate")),
                (false, true) => td.dist_to_node(i, candidate.expect("index implies candidate")),
                (true, true) => unreachable!("prim never queries the diagonal"),
            }
        };
        let mst = prim_complete(k, dist).ok_or_else(|| {
            // require_connected passed, so this cannot happen; keep a
            // meaningful error anyway.
            SteinerError::Graph(route_graph::GraphError::Disconnected {
                from: td.terminals()[0],
                to: td.terminals()[0],
            })
        })?;
        // Expand distance-graph edges into concrete shortest paths.
        let mut edges: Vec<EdgeId> = Vec::new();
        for &(i, j) in &mst.edges {
            let path = if j == base {
                td.path_to_node(i, candidate.expect("index implies candidate"))?
            } else if i == base {
                td.path_to_node(j, candidate.expect("index implies candidate"))?
            } else {
                td.path(i, j)?
            };
            edges.extend_from_slice(path.edges());
        }
        // Step 3: MST of the expanded subgraph, then prune.
        let sub = kruskal_subgraph(g, &edges);
        let tree = RoutingTree::from_edges(g, sub.edges)?;
        let mut keep: Vec<NodeId> = td.terminals().to_vec();
        if let Some(c) = candidate {
            keep.push(c);
        }
        tree.pruned_to(g, &keep)
    }
}

thread_local! {
    /// The Prim buffers [`Kmb::screen_with`] reuses on this thread.
    static SCREEN_SCRATCH: Cell<PrimScratch> = Cell::new(PrimScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph};

    #[test]
    fn two_pin_net_is_a_shortest_path() {
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(4, 3).unwrap()],
        )
        .unwrap();
        let tree = Kmb::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(7));
        assert!(tree.spans(&net));
    }

    #[test]
    fn three_corner_net_on_grid() {
        // Terminals at three corners of a 4×4 grid; the MST of the distance
        // graph costs 6+6=12; KMB cannot do worse and the optimum (a T
        // shape through the center column) costs 9... on a grid the
        // distance-graph MST expansion often shares edges. Just assert the
        // standard bounds: spans, cost between optimal (9) and MST (12).
        let grid = GridGraph::new(4, 4, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(3, 0).unwrap(), grid.node_at(0, 3).unwrap()],
        )
        .unwrap();
        let tree = Kmb::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.cost() >= Weight::from_units(6));
        assert!(tree.cost() <= Weight::from_units(12));
    }

    #[test]
    fn terminals_only_graph_uses_direct_edges() {
        // A triangle where the direct edges beat any detour.
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::from_units(1)).unwrap();
        g.add_edge(n[1], n[2], Weight::from_units(1)).unwrap();
        g.add_edge(n[0], n[2], Weight::from_units(5)).unwrap();
        let net = Net::new(n[0], vec![n[1], n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(2));
    }

    #[test]
    fn classic_kmb_example_uses_steiner_node() {
        // A star: hub h connected to three terminals at weight 2 each, and
        // terminal-terminal edges at weight 3.9 would be cheaper pairwise
        // (3.9 < 4) but the hub star (cost 6) beats the two-edge distance
        // MST expansion (7.8)… use integer weights: hub edges 2, direct
        // edges 3. Distance MST = 3+3 = 6; hub star = 6. KMB must not
        // exceed 6.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let hub = n[3];
        for &t in &n[..3] {
            g.add_edge(hub, t, Weight::from_units(2)).unwrap();
        }
        g.add_edge(n[0], n[1], Weight::from_units(3)).unwrap();
        g.add_edge(n[1], n[2], Weight::from_units(3)).unwrap();
        g.add_edge(n[0], n[2], Weight::from_units(3)).unwrap();
        let net = Net::new(n[0], vec![n[1], n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.cost() <= Weight::from_units(6));
    }

    #[test]
    fn disconnected_terminals_error() {
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        g.add_edge(n[2], n[3], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        assert!(matches!(
            Kmb::new().construct(&g, &net),
            Err(SteinerError::Graph(
                route_graph::GraphError::Disconnected { .. }
            ))
        ));
    }

    #[test]
    fn candidate_extension_can_reduce_cost() {
        // Same star as above but with direct terminal-terminal edges of
        // weight 5: distance MST over terminals = 4+4 = 8 (via hub paths),
        // which already shares the hub. Supplying the hub as an explicit
        // candidate must not increase cost.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let hub = n[3];
        for &t in &n[..3] {
            g.add_edge(hub, t, Weight::from_units(2)).unwrap();
        }
        let td = TerminalDistances::compute(&g, &n[..3]).unwrap();
        let plain = Kmb::new().build_with(&g, &td, None).unwrap();
        let with_hub = Kmb::new().build_with(&g, &td, Some(hub)).unwrap();
        assert!(with_hub.cost() <= plain.cost());
        assert_eq!(with_hub.cost(), Weight::from_units(6));
    }

    #[test]
    fn prunes_nonterminal_leaves() {
        // Path a-b-c-d with net {a, c}: expansion can only contain a..c; d
        // never appears. Also ensure Steiner candidate that dangles is
        // pruned: candidate d extends beyond c and is kept only because it
        // is in the span set.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        for i in 0..3 {
            g.add_edge(n[i], n[i + 1], Weight::UNIT).unwrap();
        }
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert!(!tree.contains_node(n[3]));
        assert_eq!(tree.cost(), Weight::from_units(2));
    }
}
