//! Differential tests for the shortest-path kernel against an O(V²)
//! array Dijkstra written here from scratch.
//!
//! Graphs are seeded SplitMix64 multigraphs with positive integer
//! milli-weights drawn from a tiny set (so equal-cost ties are
//! everywhere), with some nodes and edges removed. For every entry point
//! — full runs, early-terminating runs, terminal-distance tables,
//! scratch-arena point queries and the goal-oriented variants — each
//! node the kernel reports as settled must carry the true distance, and
//! its parent must be the minimum `(node, edge)` pair among all
//! predecessors achieving that distance (DESIGN.md §5g). Every check is
//! repeated on a flat-CSR snapshot of the same graph.

use route_graph::dijkstra::{minpath, minpath_guided, minpath_with};
use route_graph::lowerbound::{LandmarkPotential, Potential};
use route_graph::rng::{Rng, SliceRandom, SplitMix64};
use route_graph::{
    CsrView, DistanceOracle, EdgeId, Graph, GraphError, GraphView, KernelScratch, NodeId,
    ShortestPaths, TerminalDistances, Weight,
};

const CASES: u64 = 60;

/// A random multigraph with removed nodes and edges, plus a live source
/// and a set of live targets.
fn random_case(seed: u64) -> (Graph, NodeId, Vec<NodeId>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..36usize);
    let m = rng.gen_range(n..4 * n);
    let mut g = Graph::with_nodes(n);
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        // Mostly whole units from {1, 2, 3}: dense equal-cost ties.
        let w = if rng.gen_range(0..8u32) == 0 {
            rng.gen_range(1..=3000u64)
        } else {
            1000 * rng.gen_range(1..=3u64)
        };
        g.add_edge(
            NodeId::from_index(a),
            NodeId::from_index(b),
            Weight::from_milli(w),
        )
        .unwrap();
    }
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    for e in edges {
        if rng.gen_range(0..7u32) == 0 {
            g.remove_edge(e).unwrap();
        }
    }
    let source = NodeId::from_index(rng.gen_range(0..n));
    for i in 0..n {
        let v = NodeId::from_index(i);
        if v != source && rng.gen_range(0..8u32) == 0 {
            g.remove_node(v).unwrap();
        }
    }
    let mut live: Vec<NodeId> = g.node_ids().collect();
    live.shuffle(&mut rng);
    let k = rng.gen_range(1..=live.len().min(5));
    let mut targets = live[..k].to_vec();
    targets.sort_unstable();
    (g, source, targets)
}

/// Usable edges `(a, b, edge, weight milli)` of `g`.
fn usable_edges<G: GraphView>(g: &G) -> Vec<(usize, usize, EdgeId, u64)> {
    (0..g.edge_count())
        .map(EdgeId::from_index)
        .filter(|&e| g.is_edge_usable(e))
        .map(|e| {
            let (a, b) = g.endpoints(e).unwrap();
            (a.index(), b.index(), e, g.weight(e).unwrap().as_milli())
        })
        .collect()
}

/// Reference single-source distances: array Dijkstra over a dense
/// minimum-weight matrix, `O(V²)`, no priority queue.
fn reference_dist<G: GraphView>(g: &G, source: NodeId) -> Vec<Option<u64>> {
    let n = g.node_count();
    let mut w: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
    for (a, b, _, wt) in usable_edges(g) {
        for (x, y) in [(a, b), (b, a)] {
            w[x][y] = Some(w[x][y].map_or(wt, |old: u64| old.min(wt)));
        }
    }
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut done = vec![false; n];
    dist[source.index()] = Some(0);
    loop {
        let next = (0..n)
            .filter(|&i| !done[i])
            .filter_map(|i| dist[i].map(|d| (d, i)))
            .min();
        let Some((d, v)) = next else { break };
        done[v] = true;
        for u in 0..n {
            if let Some(wt) = w[v][u] {
                let nd = d + wt;
                if dist[u].is_none_or(|old| nd < old) {
                    dist[u] = Some(nd);
                }
            }
        }
    }
    dist
}

/// The canonical parent of `v`: the minimum `(node, edge)` over all
/// usable edges into `v` whose far end achieves `v`'s distance.
fn canonical_parent(
    edges: &[(usize, usize, EdgeId, u64)],
    dist: &[Option<u64>],
    v: usize,
) -> Option<(usize, usize)> {
    let dv = dist[v]?;
    edges
        .iter()
        .flat_map(|&(a, b, e, w)| [(a, b, e, w), (b, a, e, w)])
        .filter(|&(_, to, _, _)| to == v)
        .filter(|&(from, _, _, w)| dist[from].is_some_and(|d| d + w == dv))
        .map(|(from, _, e, _)| (from, e.index()))
        .min()
}

/// Every node `sp` settled has the reference distance and the canonical
/// parent; every node of `must_settle` is settled iff it is reachable.
fn check_run<G: GraphView>(g: &G, sp: &ShortestPaths, must_settle: &[NodeId], label: &str) {
    let source = sp.source();
    let dist = reference_dist(g, source);
    let edges = usable_edges(g);
    for i in 0..g.node_count() {
        let v = NodeId::from_index(i);
        let Some(d) = sp.dist(v) else { continue };
        assert_eq!(Some(d.as_milli()), dist[i], "{label}: dist to {v}");
        let parent = sp.parent(v).map(|(p, e)| (p.index(), e.index()));
        let want = if v == source {
            None
        } else {
            canonical_parent(&edges, &dist, i)
        };
        assert_eq!(parent, want, "{label}: parent of {v}");
    }
    for &t in must_settle {
        assert_eq!(
            sp.dist(t).map(Weight::as_milli),
            dist[t.index()],
            "{label}: target {t}"
        );
    }
}

/// The exact distance to the nearest target: a consistent potential.
struct Exact(Vec<Weight>);

impl Potential for Exact {
    fn h(&self, v: NodeId) -> Weight {
        self.0[v.index()]
    }
}

fn exact_potential<G: GraphView>(g: &G, targets: &[NodeId]) -> Exact {
    let tables: Vec<Vec<Option<u64>>> = targets.iter().map(|&t| reference_dist(g, t)).collect();
    Exact(
        (0..g.node_count())
            .map(|i| {
                let near = tables.iter().filter_map(|t| t[i]).min();
                // Unreachable from every target: any finite value
                // keeps the bound consistent (no edge leads to a target).
                Weight::from_milli(near.unwrap_or(0))
            })
            .collect(),
    )
}

fn check_all_entry_points<G: GraphView>(g: &G, source: NodeId, targets: &[NodeId], label: &str) {
    let all: Vec<NodeId> = g.node_ids().collect();
    check_run(
        g,
        &ShortestPaths::run(g, source).unwrap(),
        &all,
        &format!("{label} run"),
    );
    check_run(
        g,
        &ShortestPaths::run_to_targets(g, source, targets).unwrap(),
        targets,
        &format!("{label} run_to_targets"),
    );
    let mut scratch = KernelScratch::new();
    for round in 0..2 {
        check_run(
            g,
            &ShortestPaths::run_to_targets_with(g, source, targets, &mut scratch).unwrap(),
            targets,
            &format!("{label} run_to_targets_with #{round}"),
        );
    }

    // Terminal-distance tables: the source plus the first target are the
    // terminals, the rest are extra targets; the last target is pushed
    // as a new terminal afterwards.
    let mut terminals = vec![source];
    terminals.extend(targets.iter().copied().filter(|&t| t != source).take(1));
    let extras: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|t| !terminals.contains(t))
        .collect();
    let mut members = terminals.clone();
    members.extend(&extras);
    let mut td = TerminalDistances::compute_to_targets(g, &terminals, &extras).unwrap();
    if let Some(&last) = extras.last() {
        td.push_terminal(g, last).unwrap();
    }
    for i in 0..td.len() {
        check_run(
            g,
            td.shortest_paths(i),
            &members,
            &format!("{label} td[{i}]"),
        );
    }

    // Point-to-point queries, allocating and over one reused arena.
    let mut scratch = KernelScratch::new();
    let mut oracle = DistanceOracle::new();
    let dist = reference_dist(g, source);
    for &t in &all {
        let want = dist[t.index()].map(Weight::from_milli);
        let got = |r: Result<Weight, GraphError>| match r {
            Ok(w) => Some(w),
            Err(GraphError::Disconnected { .. }) => None,
            Err(e) => panic!("{label}: minpath to {t}: {e}"),
        };
        assert_eq!(got(minpath(g, source, t)), want, "{label}: minpath {t}");
        assert_eq!(
            got(minpath_with(g, source, t, &mut scratch)),
            want,
            "{label}: minpath_with {t}"
        );
        assert_eq!(
            got(oracle.minpath(g, source, t)),
            want,
            "{label}: oracle minpath {t}"
        );
    }

    // Goal-oriented entry points, checked on the target set.
    let exact = exact_potential(g, targets);
    let landmarks = LandmarkPotential::build(g, 2, targets).unwrap();
    check_guided(
        g,
        source,
        targets,
        &members,
        &terminals,
        &extras,
        &exact,
        &format!("{label} exact"),
    );
    check_guided(
        g,
        source,
        targets,
        &members,
        &terminals,
        &extras,
        &landmarks,
        &format!("{label} alt"),
    );
}

#[allow(clippy::too_many_arguments)]
fn check_guided<G: GraphView, P: Potential>(
    g: &G,
    source: NodeId,
    targets: &[NodeId],
    members: &[NodeId],
    terminals: &[NodeId],
    extras: &[NodeId],
    pot: &P,
    label: &str,
) {
    check_run(
        g,
        &ShortestPaths::run_to_targets_guided(g, source, targets, pot).unwrap(),
        targets,
        &format!("{label} run_to_targets_guided"),
    );
    let all: Vec<NodeId> = g.node_ids().collect();
    check_run(
        g,
        &ShortestPaths::run_guided(g, source, pot).unwrap(),
        &all,
        &format!("{label} run_guided"),
    );
    let td = TerminalDistances::compute_to_targets_guided(g, terminals, extras, pot).unwrap();
    for i in 0..td.len() {
        check_run(
            g,
            td.shortest_paths(i),
            members,
            &format!("{label} guided td[{i}]"),
        );
    }
    let dist = reference_dist(g, source);
    for &t in targets {
        let got = match minpath_guided(g, source, t, pot) {
            Ok(w) => Some(w.as_milli()),
            Err(GraphError::Disconnected { .. }) => None,
            Err(e) => panic!("{label}: minpath_guided to {t}: {e}"),
        };
        assert_eq!(got, dist[t.index()], "{label}: minpath_guided {t}");
    }
}

#[test]
fn kernel_matches_array_dijkstra_on_graph_and_csr() {
    for seed in 0..CASES {
        let (g, source, targets) = random_case(seed);
        check_all_entry_points(&g, source, &targets, &format!("seed {seed} graph"));
        let csr = CsrView::build(&g);
        check_all_entry_points(&csr, source, &targets, &format!("seed {seed} csr"));
    }
}

/// A removed target can never settle: the early-terminating run must
/// fall back to settling everything reachable, exactly.
#[test]
fn dead_target_degrades_to_a_full_run() {
    for seed in 0..CASES {
        let (mut g, source, targets) = random_case(seed);
        let Some(&victim) = targets.iter().find(|&&t| t != source) else {
            continue;
        };
        g.remove_node(victim).unwrap();
        let all: Vec<NodeId> = g.node_ids().collect();
        let sp = ShortestPaths::run_to_targets(&g, source, &[victim]).unwrap();
        check_run(&g, &sp, &all, &format!("seed {seed}"));
        assert_eq!(sp.dist(victim), None, "seed {seed}");
    }
}
