//! Property-based tests over the core invariants.
//!
//! Cases are generated from the vendored [`fpga_route::graph::rng`] PRNG
//! rather than `proptest` so the suite builds with no network access.

use fpga_route::graph::floyd::AllPairs;
use fpga_route::graph::random::{random_connected_graph, random_net};
use fpga_route::graph::rng::{Rng, SplitMix64};
use fpga_route::graph::{GridGraph, ShortestPaths, TerminalDistances, Weight};
use fpga_route::steiner::{idom, ikmb, Dom, Kmb, Net, Pfa, SteinerHeuristic};

const CASES: u64 = 24;

/// Dijkstra agrees with Floyd–Warshall on arbitrary random graphs.
#[test]
fn dijkstra_matches_floyd_warshall() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(2..16usize);
        let extra = rng.gen_range(0..20usize);
        let g = random_connected_graph(n, n - 1 + extra, 1..9, &mut rng).unwrap();
        let ap = AllPairs::run(&g);
        let src = g.node_ids().next().unwrap();
        let sp = ShortestPaths::run(&g, src).unwrap();
        for v in g.node_ids() {
            assert_eq!(sp.dist(v), ap.dist(src, v), "seed {seed}");
        }
    }
}

/// Triangle inequality holds in every distance graph.
#[test]
fn distance_graph_satisfies_triangle_inequality() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(4..14usize);
        let g = random_connected_graph(n, n + 4, 1..9, &mut rng).unwrap();
        let pins = random_net(&g, 4, &mut rng).unwrap();
        let td = TerminalDistances::compute(&g, &pins).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let (Some(ij), Some(ik), Some(kj)) =
                        (td.dist(i, j), td.dist(i, k), td.dist(k, j))
                    else {
                        continue;
                    };
                    assert!(ij <= ik + kj, "seed {seed}");
                }
            }
        }
    }
}

/// Every heuristic returns a *valid tree spanning the net*, with cost
/// equal to the sum of its edge weights.
#[test]
fn heuristics_return_valid_spanning_trees() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(6..22usize);
        let pins = rng.gen_range(2..6usize);
        let g = random_connected_graph(n, 2 * n, 1..9, &mut rng).unwrap();
        let terminals = random_net(&g, pins.min(n), &mut rng).unwrap();
        let net = Net::from_terminals(terminals).unwrap();
        for algo in [
            Box::new(Kmb::new()) as Box<dyn SteinerHeuristic>,
            Box::new(ikmb()),
            Box::new(Dom::new()),
            Box::new(Pfa::new()),
            Box::new(idom()),
        ] {
            let tree = algo.construct(&g, &net).unwrap();
            assert!(tree.spans(&net), "seed {seed}");
            let recomputed: Weight = tree.edges().iter().map(|&e| g.weight(e).unwrap()).sum();
            assert_eq!(recomputed, tree.cost(), "seed {seed}");
            // A tree: |E| = |V| - 1 over its own node set.
            assert_eq!(tree.edge_len() + 1, tree.node_len(), "seed {seed}");
        }
    }
}

/// The arborescence property survives arbitrary congestion reweighting.
#[test]
fn arborescences_respect_congested_metrics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let bumps = rng.gen_range(0..40usize);
        let mut grid = GridGraph::new(6, 6, Weight::UNIT).unwrap();
        let edges: Vec<_> = grid.graph().edge_ids().collect();
        for _ in 0..bumps {
            let e = edges[rng.gen_range(0..edges.len())];
            grid.graph_mut().add_weight(e, Weight::UNIT).unwrap();
        }
        let terminals = random_net(grid.graph(), 4, &mut rng).unwrap();
        let net = Net::from_terminals(terminals).unwrap();
        for algo in [
            Box::new(Pfa::new()) as Box<dyn SteinerHeuristic>,
            Box::new(Dom::new()),
            Box::new(idom()),
        ] {
            let tree = algo.construct(grid.graph(), &net).unwrap();
            assert!(
                tree.is_shortest_paths_tree(grid.graph(), &net).unwrap(),
                "seed {seed}"
            );
        }
    }
}

/// Removal then restoration of arbitrary resources is an exact no-op
/// for shortest paths.
#[test]
fn removal_is_exactly_reversible() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let kill = rng.gen_range(1..8usize);
        let mut grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let src = grid.node_at(0, 0).unwrap();
        let before = ShortestPaths::run(grid.graph(), src).unwrap();
        let victims: Vec<_> = (0..kill)
            .map(|_| fpga_route::graph::NodeId::from_index(rng.gen_range(1..25usize)))
            .collect();
        for &v in &victims {
            grid.graph_mut().remove_node(v).unwrap();
        }
        for &v in &victims {
            grid.graph_mut().restore_node(v).unwrap();
        }
        let after = ShortestPaths::run(grid.graph(), src).unwrap();
        for v in grid.graph().node_ids() {
            assert_eq!(before.dist(v), after.dist(v), "seed {seed}");
        }
    }
}

/// IKMB's cost is monotone under candidate-pool growth: more candidates
/// never hurt.
#[test]
fn bigger_candidate_pools_never_hurt() {
    use fpga_route::steiner::{CandidatePool, Iterated, IteratedConfig};
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let grid = GridGraph::new(6, 6, Weight::UNIT).unwrap();
        let terminals = random_net(grid.graph(), 5, &mut rng).unwrap();
        let net = Net::from_terminals(terminals).unwrap();
        let no_pool = Iterated::with_config(
            Kmb::new(),
            IteratedConfig {
                pool: CandidatePool::Explicit(vec![]),
                ..IteratedConfig::default()
            },
        );
        let all = ikmb();
        let restricted = no_pool.construct(grid.graph(), &net).unwrap();
        let free = all.construct(grid.graph(), &net).unwrap();
        assert!(free.cost() <= restricted.cost(), "seed {seed}");
    }
}

/// A pool-restricted ZEL or PFA scan whose explicit pool covers every
/// node sees the same candidates as the unrestricted scan, so it must
/// build a tree of the same cost. The grid carries seeded congestion
/// noise so shortest paths are not axis-aligned ties.
#[test]
fn restricted_zel_and_pfa_still_match_their_unrestricted_trees() {
    use fpga_route::steiner::{CandidatePool, Zel};
    let mut grid = GridGraph::new(28, 28, Weight::UNIT).unwrap();
    let mut rng = SplitMix64::seed_from_u64(1995);
    let edges: Vec<_> = grid.graph().edge_ids().collect();
    for e in edges {
        let noise = rng.gen_range(0..400u64);
        grid.graph_mut()
            .set_weight(e, Weight::from_milli(1000 + noise))
            .unwrap();
    }
    let net = Net::new(
        grid.node_at(2, 2).unwrap(),
        vec![
            grid.node_at(8, 5).unwrap(),
            grid.node_at(5, 8).unwrap(),
            grid.node_at(8, 8).unwrap(),
        ],
    )
    .unwrap();
    let all: Vec<_> = grid.graph().node_ids().collect();
    let zel_full = Zel::new().construct(grid.graph(), &net).unwrap();
    let zel_pool = Zel::with_pool(CandidatePool::Explicit(all.clone()))
        .construct(grid.graph(), &net)
        .unwrap();
    assert_eq!(zel_full.cost(), zel_pool.cost());
    let pfa_full = Pfa::new().construct(grid.graph(), &net).unwrap();
    let pfa_pool = Pfa::with_pool(CandidatePool::Explicit(all))
        .construct(grid.graph(), &net)
        .unwrap();
    assert_eq!(pfa_full.cost(), pfa_pool.cost());
}
