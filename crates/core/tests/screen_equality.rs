//! `Kmb::screen_with` prices a candidate with the cost of `prim_complete`'s
//! distance-graph MST over members ∪ {candidate}, on reused buffers. The
//! IGMST ranking `(Weight, NodeId)` stays identical only if that cost is
//! exactly `prim_complete`'s, errors included, so these seeded grid nets
//! compare it against a reference that calls `prim_complete` directly.

use route_graph::mst::prim_complete;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{Graph, GraphError, GridGraph, NodeId, TerminalDistances, Weight};
use steiner_route::heuristic::IteratedBase;
use steiner_route::{Kmb, SteinerError};

const CASES: u64 = 40;

/// The screening cost spelled out with `prim_complete`: the members must
/// all reach member 0, then the candidate must, then the MST of the
/// (extended) distance graph is priced.
fn reference(td: &TerminalDistances, candidate: Option<NodeId>) -> Result<Weight, SteinerError> {
    let t0 = td.terminals()[0];
    for j in 1..td.len() {
        if td.dist(0, j).is_none() {
            return Err(GraphError::Disconnected {
                from: t0,
                to: td.terminals()[j],
            }
            .into());
        }
    }
    if let Some(c) = candidate {
        if td.dist_to_node(0, c).is_none() {
            return Err(GraphError::Disconnected { from: t0, to: c }.into());
        }
    }
    let base = td.len();
    let k = base + usize::from(candidate.is_some());
    let node = |i: usize| candidate.filter(|_| i == base);
    let dist = |i: usize, j: usize| match (node(i), node(j)) {
        (Some(c), _) => td.dist_to_node(j, c),
        (_, Some(c)) => td.dist_to_node(i, c),
        _ => td.dist(i, j),
    };
    prim_complete(k, dist)
        .map(|mst| mst.cost)
        .ok_or(GraphError::Disconnected { from: t0, to: t0 }.into())
}

fn screen(
    g: &Graph,
    td: &TerminalDistances,
    candidate: Option<NodeId>,
) -> Result<Weight, SteinerError> {
    IteratedBase::<Graph>::screen_with(&Kmb::new(), g, td, candidate)
}

/// A grid with seeded random weights, some of them saturated at
/// [`Weight::MAX`], and a few edges removed.
fn random_grid(rng: &mut SplitMix64) -> GridGraph {
    let rows = rng.gen_range(3..8usize);
    let cols = rng.gen_range(3..8usize);
    let mut grid = GridGraph::new(rows, cols, Weight::UNIT).unwrap();
    let g = grid.graph_mut();
    let edges: Vec<_> = g.edge_ids().collect();
    for e in edges {
        match rng.gen_range(0..12u64) {
            0 => g.set_weight(e, Weight::MAX).unwrap(),
            1 => g.remove_edge(e).unwrap(),
            _ => g
                .set_weight(e, Weight::from_milli(rng.gen_range(500..9000u64)))
                .unwrap(),
        }
    }
    grid
}

/// Every non-member live node as a candidate, plus the plain member MST,
/// on full and target-restricted distances alike.
fn assert_screens_match(g: &Graph, members: &[NodeId], context: &str) {
    let pool: Vec<NodeId> = g.node_ids().collect();
    let tds = [
        TerminalDistances::compute(g, members).unwrap(),
        TerminalDistances::compute_to_targets(g, members, &pool[..pool.len() / 2]).unwrap(),
    ];
    for td in &tds {
        assert_eq!(
            screen(g, td, None),
            reference(td, None),
            "{context}: members only"
        );
        for &c in &pool {
            if td.index_of(c).is_some() {
                continue;
            }
            assert_eq!(
                screen(g, td, Some(c)),
                reference(td, Some(c)),
                "{context}: candidate {c}"
            );
        }
    }
}

#[test]
fn screening_cost_equals_prim_complete_on_random_grid_nets() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5c4ee9 ^ seed);
        let grid = random_grid(&mut rng);
        let g = grid.graph();
        let mut members: Vec<NodeId> = Vec::new();
        let size = rng.gen_range(2..7usize);
        while members.len() < size.min(g.node_count()) {
            let v = NodeId::from_index(rng.gen_range(0..g.node_count()));
            if !members.contains(&v) {
                members.push(v);
            }
        }
        assert_screens_match(g, &members, &format!("seed {seed}"));
    }
}

#[test]
fn unreachable_candidate_gives_the_same_error() {
    let mut grid = GridGraph::new(4, 4, Weight::UNIT).unwrap();
    let island = grid.node_at(3, 3).unwrap();
    for v in [grid.node_at(2, 3).unwrap(), grid.node_at(3, 2).unwrap()] {
        let e = grid.edge_between(island, v).unwrap();
        grid.graph_mut().remove_edge(e).unwrap();
    }
    let g = grid.graph();
    let members = [grid.node_at(0, 0).unwrap(), grid.node_at(0, 3).unwrap()];
    let td = TerminalDistances::compute(g, &members).unwrap();
    let expected = Err(SteinerError::Graph(GraphError::Disconnected {
        from: members[0],
        to: island,
    }));
    assert_eq!(reference(&td, Some(island)), expected);
    assert_eq!(screen(g, &td, Some(island)), expected);
    assert_screens_match(g, &members, "island");
}

#[test]
fn members_joined_only_through_saturated_edges_are_still_priced() {
    // Two 3×2 halves joined only by Weight::MAX edges: every cross-half
    // distance saturates at MAX, which is still a distance-graph edge.
    let mut grid = GridGraph::new(3, 4, Weight::UNIT).unwrap();
    for row in 0..3 {
        let (a, b) = (grid.node_at(row, 1).unwrap(), grid.node_at(row, 2).unwrap());
        let e = grid.edge_between(a, b).unwrap();
        grid.graph_mut().set_weight(e, Weight::MAX).unwrap();
    }
    let g = grid.graph();
    let members = [
        grid.node_at(0, 0).unwrap(),
        grid.node_at(2, 3).unwrap(),
        grid.node_at(1, 3).unwrap(),
    ];
    let td = TerminalDistances::compute(g, &members).unwrap();
    assert_eq!(td.dist(0, 1), Some(Weight::MAX));
    assert_eq!(screen(g, &td, None), Ok(Weight::MAX));
    assert_screens_match(g, &members, "saturated bridge");
}
