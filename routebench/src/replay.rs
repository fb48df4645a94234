//! Outside replay of rip-up IKMB routing, timed layer by layer.
//!
//! The router's layers are crates and modules of this repository; the
//! replay calls each one through its public API in the order
//! `Router::route` does, and times every call from here, so no timer is
//! added inside the program:
//!
//! * `mask`: hiding foreign pins (`Graph::remove_node`/`restore_node` over
//!   `Device::pin_nodes`), as `router.rs` does around each net;
//! * `td`: per-terminal floods (`TerminalDistances::compute_to_targets`
//!   and `push_terminal`, `crates/graph`);
//! * `screen`: `Kmb::screen_with` upper bounds (`igmst.rs`/`kmb.rs`);
//! * `verify`: exact `Kmb::cost_with` evaluations;
//! * `build`: the final `Kmb::build_with` plus `RoutingTree::pruned_to`;
//! * `commit`: occupancy, resource removal and congestion repricing over
//!   `Device::segment_nodes_at`, as `Router::commit` does.
//!
//! Whatever is left of the replay's wall time (candidate-region lookup,
//! sorting, re-expressing trees on the pristine graph) is `other`.
//!
//! The replay must produce the router's trees bit for bit; the caller
//! compares them.

use std::cmp::Reverse;
use std::time::Duration;

use fpga_device::{Circuit, Device, RouterConfig};
use route_graph::{EdgeId, Graph, GraphError, NodeId, TerminalDistances, Weight};
use steiner_route::{IteratedBase, IteratedConfig, Kmb, Net, RoutingTree, SteinerError};

use crate::stats::{now, timed};

/// Time per layer and work counts of one replayed pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub td: Duration,
    pub screen: Duration,
    pub verify: Duration,
    pub build: Duration,
    pub commit: Duration,
    pub mask: Duration,
    pub wall: Duration,
    /// Terminal floods run (initial terminals plus accepted points).
    pub floods: u64,
    /// Candidates priced with `screen_with`, excluding each round's
    /// reference evaluation (the router's `steiner_candidates_evaluated`).
    pub screened: u64,
    /// Exact `cost_with` evaluations, including each net's baseline.
    pub verified: u64,
    /// Steiner points accepted.
    pub accepted: u64,
    /// IGMST evaluation rounds.
    pub rounds: u64,
}

impl Layers {
    /// Adds another replay's times and counts to this one.
    pub fn add(&mut self, o: &Layers) {
        self.td += o.td;
        self.screen += o.screen;
        self.verify += o.verify;
        self.build += o.build;
        self.commit += o.commit;
        self.mask += o.mask;
        self.wall += o.wall;
        self.floods += o.floods;
        self.screened += o.screened;
        self.verified += o.verified;
        self.accepted += o.accepted;
        self.rounds += o.rounds;
    }

    /// Sum of the named layers (everything but `other`).
    pub fn named(&self) -> Duration {
        self.td + self.screen + self.verify + self.build + self.commit + self.mask
    }
}

/// Replays the rip-up IKMB routing of `circuit` on `device` under
/// `config` (screened IKMB with an explicit candidate pool, as the router
/// runs it) and returns each net's tree on the pristine graph, in net
/// order. Like `Router::route`, every pass starts from a fresh working
/// graph, and a net that cannot be routed moves to the front of the order
/// for the next pass; failed passes count in the layer times because the
/// router spends that time too.
///
/// # Errors
///
/// Fails when the pass budget runs out or a layer reports an error other
/// than an unreachable terminal.
pub fn replay(
    device: &Device,
    circuit: &Circuit,
    config: &RouterConfig,
) -> Result<(Vec<Vec<EdgeId>>, Layers), String> {
    let started = now();
    let mut l = Layers::default();
    // The router's initial order: critical nets first (none here), then
    // by descending pin count, stably.
    let mut order: Vec<usize> = (0..circuit.net_count()).collect();
    order.sort_by_key(|&ni| Reverse(circuit.nets()[ni].pin_count()));
    for _pass in 0..config.max_passes.max(1) {
        match replay_pass(device, circuit, config, &order, &mut l)? {
            Ok(trees) => {
                l.wall = now().duration_since(started);
                return Ok((trees, l));
            }
            Err(failed) => {
                if config.move_to_front {
                    let pos = order
                        .iter()
                        .position(|&ni| ni == failed)
                        .expect("the failed net is in the order");
                    order[..=pos].rotate_right(1);
                }
            }
        }
    }
    Err(format!("unroutable after {} passes", config.max_passes))
}

/// One pass over `order`: the trees of every net, or the net that could
/// not be routed.
fn replay_pass(
    device: &Device,
    circuit: &Circuit,
    config: &RouterConfig,
    order: &[usize],
    l: &mut Layers,
) -> Result<Result<Vec<Vec<EdgeId>>, usize>, String> {
    let kmb = Kmb::new();
    let patience = IteratedConfig::default().screen_patience;
    let mut g = device.working_graph();
    let mut usage: Vec<u32> = vec![0; device.position_count()];
    let mut trees: Vec<Vec<EdgeId>> = vec![Vec::new(); circuit.net_count()];
    let err = |ni: usize, e: &dyn std::fmt::Display| format!("net {ni}: {e}");
    for &ni in order {
        let terminals = circuit.net_terminals(device, ni).map_err(|e| err(ni, &e))?;
        let masked = timed(&mut l.mask, || {
            mask_foreign_pins(&mut g, device, &terminals)
        })
        .map_err(|e| err(ni, &e))?;
        let net = Net::from_terminals(terminals).map_err(|e| err(ni, &e))?;
        let pool = region_nodes(device, circuit, ni, config.candidate_margin);
        let routed = ikmb(&g, &net, &pool, &kmb, patience, l);
        timed(&mut l.mask, || {
            masked.iter().try_for_each(|&p| g.restore_node(p))
        })
        .map_err(|e| err(ni, &e))?;
        let tree = match routed {
            Ok(tree) => tree,
            Err(SteinerError::Graph(GraphError::Disconnected { .. })) => return Ok(Err(ni)),
            Err(e) => return Err(err(ni, &e)),
        };
        timed(&mut l.commit, || {
            commit(&mut g, device, config, &mut usage, &tree)
        })
        .map_err(|e| err(ni, &e))?;
        let tree = RoutingTree::from_edges(device.graph(), tree.edges().to_vec())
            .map_err(|e| err(ni, &e))?;
        trees[ni] = tree.edges().to_vec();
    }
    Ok(Ok(trees))
}

/// The screened, batched IGMST loop over KMB (`Iterated::construct_traced`
/// with the router's configuration), one timed call per layer.
fn ikmb(
    g: &Graph,
    net: &Net,
    pool: &[NodeId],
    kmb: &Kmb,
    patience: usize,
    l: &mut Layers,
) -> Result<RoutingTree, SteinerError> {
    net.validate_in(g)?;
    let mut td = timed(&mut l.td, || {
        TerminalDistances::compute_to_targets(g, net.terminals(), pool)
    })?;
    l.floods += net.terminals().len() as u64;
    l.verified += 1;
    let mut current = timed(&mut l.verify, || kmb.cost_with(g, &td, None))?;
    let candidates: Vec<NodeId> = pool
        .iter()
        .copied()
        .filter(|&v| g.is_node_live(v) && td.index_of(v).is_none())
        .collect();
    loop {
        l.rounds += 1;
        let screen_started = now();
        let reference = kmb.screen_with(g, &td, None)?;
        let mut scored: Vec<(Weight, NodeId)> = Vec::new();
        for &t in &candidates {
            if td.index_of(t).is_some() {
                continue;
            }
            l.screened += 1;
            if let Ok(c) = kmb.screen_with(g, &td, Some(t)) {
                if c < reference {
                    scored.push((c, t));
                }
            }
        }
        l.screen += now().duration_since(screen_started);
        if scored.is_empty() {
            break;
        }
        scored.sort();
        let mut accepted = 0usize;
        let mut misses = 0usize;
        for (_, t) in scored {
            l.verified += 1;
            let c = timed(&mut l.verify, || kmb.cost_with(g, &td, Some(t)))?;
            if c < current {
                timed(&mut l.td, || td.push_terminal(g, t))?;
                l.floods += 1;
                l.accepted += 1;
                current = c;
                accepted += 1;
                misses = 0;
            } else {
                misses += 1;
                if misses >= patience {
                    break;
                }
            }
        }
        if accepted == 0 {
            break;
        }
    }
    timed(&mut l.build, || {
        kmb.build_with(g, &td, None)?.pruned_to(g, net.terminals())
    })
}

/// Removes every live pin node that is not one of `keep`, as the router
/// does before routing a net, and returns the pins it hid.
fn mask_foreign_pins(
    g: &mut Graph,
    device: &Device,
    keep: &[NodeId],
) -> Result<Vec<NodeId>, route_graph::GraphError> {
    let mut masked = Vec::new();
    for pin in device.pin_nodes() {
        if g.is_node_live(pin) && !keep.contains(&pin) {
            g.remove_node(pin)?;
            masked.push(pin);
        }
    }
    Ok(masked)
}

/// Commits `tree`: bumps channel occupancy, removes the tree's nodes, and
/// reprices the live edges around every touched channel position to
/// `1 + alpha·u/W` units, as the router's commit does.
fn commit(
    g: &mut Graph,
    device: &Device,
    config: &RouterConfig,
    usage: &mut [u32],
    tree: &RoutingTree,
) -> Result<(), route_graph::GraphError> {
    let w = device.arch().channel_width as u64;
    let nodes: Vec<NodeId> = tree.nodes().collect();
    let mut touched: Vec<usize> = Vec::new();
    for &v in &nodes {
        if let Some(pos) = device.segment_position(v) {
            usage[pos] = usage[pos].saturating_add(1);
            touched.push(pos);
        }
    }
    for &v in &nodes {
        g.remove_node(v)?;
    }
    touched.sort_unstable();
    touched.dedup();
    let occ = |n: NodeId| device.segment_position(n).map_or(0, |p| usage[p]) as u64;
    for &pos in &touched {
        for v in device.segment_nodes_at(pos) {
            if !g.is_node_live(v) {
                continue;
            }
            let edges: Vec<EdgeId> = g.neighbors(v).map(|(_, e, _)| e).collect();
            for e in edges {
                let (a, b) = g.endpoints(e)?;
                let u = occ(a).max(occ(b));
                let pressure =
                    Weight::from_milli(config.congestion_alpha_milli.saturating_mul(u) / w.max(1));
                g.set_weight(e, Weight::UNIT.saturating_add(pressure))?;
            }
        }
    }
    Ok(())
}

/// Every segment node within net `ni`'s block bounding box grown by
/// `margin` blocks: the router's Steiner candidate region.
fn region_nodes(device: &Device, circuit: &Circuit, ni: usize, margin: usize) -> Vec<NodeId> {
    let arch = device.arch();
    let pins = &circuit.nets()[ni].pins;
    let r0 = pins
        .iter()
        .map(|p| p.row)
        .min()
        .unwrap_or(0)
        .saturating_sub(margin);
    let c0 = pins
        .iter()
        .map(|p| p.col)
        .min()
        .unwrap_or(0)
        .saturating_sub(margin);
    let r1 = (pins.iter().map(|p| p.row).max().unwrap_or(0) + margin).min(arch.rows - 1);
    let c1 = (pins.iter().map(|p| p.col).max().unwrap_or(0) + margin).min(arch.cols - 1);
    let h_positions = (arch.rows + 1) * arch.cols;
    let mut nodes = Vec::new();
    for ch in r0..=r1 + 1 {
        for seg in c0..=c1 {
            nodes.extend(device.segment_nodes_at(ch * arch.cols + seg));
        }
    }
    for ch in c0..=c1 + 1 {
        for seg in r0..=r1 {
            nodes.extend(device.segment_nodes_at(h_positions + ch * arch.rows + seg));
        }
    }
    nodes
}
