//! Differential tests: a [`CsrView`] mutated in place is observationally
//! equal to its source [`Graph`] mutated the same way.
//!
//! The sequential rip-up pass routes every net on one `CsrView` whose
//! lanes it edits in place (pin reveal and hide, commit removals,
//! congestion repricing), and each PathFinder route-phase worker does
//! the same on its own copy (pin reveal and hide, exclusion pricing and
//! its restore). Their trees are bit-identical to routing on a `Graph`
//! only if every mutation keeps each lane exactly the `Graph`'s
//! filtered adjacency in insertion order. Cases are seeded SplitMix64
//! interleavings of every mutation, idempotent repeats included; each
//! failure names its seed and step.

use route_graph::random::random_connected_graph;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{
    CsrView, EdgeId, Graph, GraphError, GraphView, GraphViewMut, NodeId, ShortestPaths, Weight,
};

const CASES: u64 = 48;
const OPS: usize = 80;

/// Asserts every observable of the two views agrees: counts, per-node
/// liveness and neighbor sequence, per-edge usability and weight.
fn assert_same_view(csr: &CsrView, g: &Graph, context: &str) {
    assert_eq!(csr.node_count(), g.node_count(), "{context}: node_count");
    assert_eq!(csr.edge_count(), g.edge_count(), "{context}: edge_count");
    assert_eq!(
        csr.live_node_count(),
        g.live_node_count(),
        "{context}: live_node_count"
    );
    assert_eq!(
        csr.live_edge_count(),
        g.live_edge_count(),
        "{context}: live_edge_count"
    );
    for v in (0..g.node_count()).map(NodeId::from_index) {
        assert_eq!(
            csr.is_node_live(v),
            g.is_node_live(v),
            "{context}: node {v}"
        );
        assert_eq!(
            csr.neighbors(v).collect::<Vec<_>>(),
            g.neighbors(v).collect::<Vec<_>>(),
            "{context}: neighbors of {v}"
        );
    }
    for e in (0..g.edge_count()).map(EdgeId::from_index) {
        assert_eq!(
            csr.is_edge_usable(e),
            g.is_edge_usable(e),
            "{context}: edge {e}"
        );
        assert_eq!(
            GraphView::weight(csr, e),
            g.weight(e),
            "{context}: weight of {e}"
        );
    }
    assert_eq!(
        GraphView::node_ids(csr).collect::<Vec<_>>(),
        g.node_ids().collect::<Vec<_>>(),
        "{context}: node_ids"
    );
    assert_eq!(
        GraphView::edge_ids(csr).collect::<Vec<_>>(),
        g.edge_ids().collect::<Vec<_>>(),
        "{context}: edge_ids"
    );
}

/// Applies one mutation through any [`GraphViewMut`].
fn apply_op<G: GraphViewMut>(g: &mut G, op: u64, v: NodeId, e: EdgeId, milli: u64) {
    match op {
        0 => g.set_weight(e, Weight::from_milli(milli)).unwrap(),
        1 => g.add_weight(e, Weight::from_milli(milli)).unwrap(),
        2 => g.remove_edge(e).unwrap(),
        3 => g.restore_edge(e).unwrap(),
        4 => g.remove_node(v).unwrap(),
        _ => g.restore_node(v).unwrap(),
    }
}

/// Asserts identical distances and parents from `source` on both views,
/// for a target-restricted run and a full one.
fn assert_same_paths(csr: &CsrView, g: &Graph, source: NodeId, targets: &[NodeId], context: &str) {
    if !g.is_node_live(source) {
        return;
    }
    let runs = [
        (
            ShortestPaths::run_to_targets(csr, source, targets).unwrap(),
            ShortestPaths::run_to_targets(g, source, targets).unwrap(),
        ),
        (
            ShortestPaths::run(csr, source).unwrap(),
            ShortestPaths::run(g, source).unwrap(),
        ),
    ];
    for (on_csr, on_graph) in &runs {
        for v in (0..g.node_count()).map(NodeId::from_index) {
            assert_eq!(on_csr.dist(v), on_graph.dist(v), "{context}: dist {v}");
            assert_eq!(
                on_csr.parent(v),
                on_graph.parent(v),
                "{context}: parent {v}"
            );
        }
    }
}

#[test]
fn in_place_csr_matches_mutated_graph_under_random_interleavings() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xc5a ^ seed);
        let nodes = rng.gen_range(4..16usize);
        let extra = rng.gen_range(0..16usize);
        let mut g = random_connected_graph(nodes, nodes - 1 + extra, 1..9, &mut rng).unwrap();
        let mut csr = CsrView::build(&g);
        assert_same_view(&csr, &g, &format!("seed {seed}: fresh build"));
        let mut last_epoch = csr.epoch();
        let mut previous: Option<(u64, NodeId, EdgeId, u64)> = None;
        for step in 0..OPS {
            // One op in four repeats the previous one, so idempotent
            // removals and restorations are exercised on purpose.
            let (op, v, e, milli) = match previous {
                Some(prev) if rng.gen_range(0..4u64) == 0 => prev,
                _ => (
                    rng.gen_range(0..6u64),
                    NodeId::from_index(rng.gen_range(0..g.node_count())),
                    EdgeId::from_index(rng.gen_range(0..g.edge_count())),
                    rng.gen_range(1..20_000u64),
                ),
            };
            previous = Some((op, v, e, milli));
            apply_op(&mut csr, op, v, e, milli);
            apply_op(&mut g, op, v, e, milli);
            let context = format!("seed {seed}, step {step}, op {op}");
            assert_same_view(&csr, &g, &context);
            assert!(csr.epoch() > last_epoch, "{context}: epoch must advance");
            last_epoch = csr.epoch();
            if step % 5 == 0 {
                let source = NodeId::from_index(rng.gen_range(0..g.node_count()));
                let targets: Vec<NodeId> = (0..3)
                    .map(|_| NodeId::from_index(rng.gen_range(0..g.node_count())))
                    .collect();
                assert_same_paths(&csr, &g, source, &targets, &context);
            }
        }
    }
}

/// The rip-up pass's own pattern: hide a set of nodes up front, then
/// repeatedly reveal a few, reprice their edges, and hide them again.
#[test]
fn hide_reveal_cycles_match_the_graph() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x41de ^ seed);
        let nodes = rng.gen_range(6..20usize);
        let mut g = random_connected_graph(nodes, 2 * nodes, 1..9, &mut rng).unwrap();
        let hidden: Vec<NodeId> = (0..nodes)
            .filter(|_| rng.gen_range(0..3u64) == 0)
            .map(NodeId::from_index)
            .collect();
        let mut csr = CsrView::build(&g);
        for &v in &hidden {
            csr.remove_node(v).unwrap();
            g.remove_node(v).unwrap();
        }
        for round in 0..10 {
            let shown: Vec<NodeId> = hidden
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..2u64) == 0)
                .collect();
            for &v in &shown {
                csr.restore_node(v).unwrap();
                g.restore_node(v).unwrap();
                let edges: Vec<EdgeId> = g.neighbors(v).map(|(_, e, _)| e).collect();
                for e in edges {
                    let w = Weight::from_milli(rng.gen_range(1000..9000u64));
                    csr.set_weight(e, w).unwrap();
                    g.set_weight(e, w).unwrap();
                }
            }
            let context = format!("seed {seed}, round {round}");
            assert_same_view(&csr, &g, &context);
            assert_same_paths(&csr, &g, NodeId::from_index(0), &shown, &context);
            for &v in &shown {
                csr.remove_node(v).unwrap();
                g.remove_node(v).unwrap();
            }
            assert_same_view(&csr, &g, &format!("{context}: hidden again"));
        }
    }
}

#[test]
fn unknown_ids_are_rejected_without_touching_the_view() {
    let mut rng = SplitMix64::seed_from_u64(3);
    let g = random_connected_graph(5, 7, 1..5, &mut rng).unwrap();
    let mut csr = CsrView::build(&g);
    let far_node = NodeId::from_index(99);
    let far_edge = EdgeId::from_index(99);
    assert_eq!(
        csr.remove_node(far_node),
        Err(GraphError::NodeOutOfBounds(far_node))
    );
    assert_eq!(
        csr.restore_node(far_node),
        Err(GraphError::NodeOutOfBounds(far_node))
    );
    assert_eq!(
        csr.remove_edge(far_edge),
        Err(GraphError::EdgeOutOfBounds(far_edge))
    );
    assert_eq!(
        csr.restore_edge(far_edge),
        Err(GraphError::EdgeOutOfBounds(far_edge))
    );
    assert_eq!(
        csr.set_weight(far_edge, Weight::UNIT),
        Err(GraphError::EdgeOutOfBounds(far_edge))
    );
    assert_same_view(&csr, &g, "after rejected mutations");
}
