//! Independent legality audit of a routed circuit.
//!
//! Everything is recomputed from the device's pristine routing-resource
//! graph and the circuit's pin list; no router state is trusted, not even
//! the cost cached inside each [`RoutingTree`]. An outcome is legal when:
//!
//! * there is one tree per net, built from live edges of the graph;
//! * each tree is connected and acyclic and spans all of its net's pins;
//! * no tree touches a pin node other than its own net's pins;
//! * trees are pairwise node-disjoint (so in particular on segments);
//! * the reported total wirelength and per-net maximum source-sink
//!   pathlengths equal the recomputed ones.

use std::collections::{BTreeMap, BTreeSet};

use fpga_device::{Circuit, Device, RouteOutcome};
use route_graph::{EdgeId, NodeId, Weight};

/// Audits `outcome` as a routing of `circuit` on `device`, returning the
/// first violation found.
pub fn audit(device: &Device, circuit: &Circuit, outcome: &RouteOutcome) -> Result<(), String> {
    let edges: Vec<Vec<EdgeId>> = outcome.trees.iter().map(|t| t.edges().to_vec()).collect();
    audit_edges(
        device,
        circuit,
        &edges,
        outcome.total_wirelength,
        &outcome.max_pathlengths,
    )
}

/// The audit over raw per-net edge lists, so tests can hand it corrupt
/// routings that a [`RoutingTree`](steiner_route::RoutingTree) would refuse to hold.
pub fn audit_edges(
    device: &Device,
    circuit: &Circuit,
    trees: &[Vec<EdgeId>],
    total_wirelength: Weight,
    max_pathlengths: &[Weight],
) -> Result<(), String> {
    let g = device.graph();
    let nets = circuit.net_count();
    if trees.len() != nets || max_pathlengths.len() != nets {
        return Err(format!(
            "{} trees and {} pathlengths for {nets} nets",
            trees.len(),
            max_pathlengths.len()
        ));
    }
    let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut wirelength = Weight::ZERO;
    for (ni, edges) in trees.iter().enumerate() {
        let pins = circuit
            .net_terminals(device, ni)
            .map_err(|e| format!("net {ni}: {e}"))?;
        let mut adj: BTreeMap<NodeId, Vec<(NodeId, Weight)>> = BTreeMap::new();
        let mut seen_edges: BTreeSet<EdgeId> = BTreeSet::new();
        for &e in edges {
            if !seen_edges.insert(e) {
                return Err(format!("net {ni}: edge {e:?} listed twice"));
            }
            if !g.is_edge_usable(e) {
                return Err(format!("net {ni}: edge {e:?} is not in the device graph"));
            }
            let (a, b) = g.endpoints(e).map_err(|err| format!("net {ni}: {err}"))?;
            let w = g.weight(e).map_err(|err| format!("net {ni}: {err}"))?;
            wirelength = wirelength.saturating_add(w);
            adj.entry(a).or_default().push((b, w));
            adj.entry(b).or_default().push((a, w));
        }
        // A lone pin with no edges is not a legal net of two or more pins,
        // and `pins[0]` is the source.
        let source = *pins.first().ok_or(format!("net {ni} has no pins"))?;
        for &p in &pins {
            if !adj.contains_key(&p) {
                return Err(format!("net {ni}: tree misses pin {p:?}"));
            }
        }
        if edges.len() + 1 != adj.len() {
            return Err(format!(
                "net {ni}: {} edges over {} nodes is not a tree",
                edges.len(),
                adj.len()
            ));
        }
        let dist = distances_from(&adj, source);
        if dist.len() != adj.len() {
            return Err(format!(
                "net {ni}: tree is disconnected ({} of {} nodes reached)",
                dist.len(),
                adj.len()
            ));
        }
        for &v in adj.keys() {
            if device.is_pin(v) && !pins.contains(&v) {
                return Err(format!("net {ni}: tree uses foreign pin {v:?}"));
            }
            if let Some(other) = owner.insert(v, ni) {
                return Err(format!("nets {other} and {ni} share node {v:?}"));
            }
        }
        let longest = pins[1..]
            .iter()
            .map(|p| dist[p])
            .max()
            .unwrap_or(Weight::ZERO);
        if longest != max_pathlengths[ni] {
            return Err(format!(
                "net {ni}: reported max pathlength {} but the tree gives {longest}",
                max_pathlengths[ni]
            ));
        }
    }
    if wirelength != total_wirelength {
        return Err(format!(
            "reported wirelength {total_wirelength} but the trees sum to {wirelength}"
        ));
    }
    Ok(())
}

/// Weighted distances from `root` over a tree adjacency (a plain
/// traversal: tree paths are unique).
fn distances_from(
    adj: &BTreeMap<NodeId, Vec<(NodeId, Weight)>>,
    root: NodeId,
) -> BTreeMap<NodeId, Weight> {
    let mut dist = BTreeMap::from([(root, Weight::ZERO)]);
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        let du = dist[&u];
        for &(v, w) in adj.get(&u).into_iter().flatten() {
            if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(v) {
                slot.insert(du.saturating_add(w));
                stack.push(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_device::synth::{synthesize, xc4000_profiles};
    use fpga_device::{ArchSpec, Router, RouterConfig};

    struct Routed {
        device: Device,
        circuit: Circuit,
        trees: Vec<Vec<EdgeId>>,
        wirelength: Weight,
        pathlengths: Vec<Weight>,
    }

    fn routed() -> Routed {
        let profile = xc4000_profiles()
            .into_iter()
            .find(|p| p.name == "term1")
            .expect("term1 is a Table 5 circuit");
        let circuit = synthesize(&profile, 2, 1995).expect("term1 synthesizes");
        let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, 12))
            .expect("device builds");
        let outcome = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .expect("term1 routes at W=12");
        Routed {
            trees: outcome.trees.iter().map(|t| t.edges().to_vec()).collect(),
            wirelength: outcome.total_wirelength,
            pathlengths: outcome.max_pathlengths.clone(),
            device,
            circuit,
        }
    }

    fn check(r: &Routed) -> Result<(), String> {
        audit_edges(
            &r.device,
            &r.circuit,
            &r.trees,
            r.wirelength,
            &r.pathlengths,
        )
    }

    /// A net with at least two edges whose removal keeps the rest sane.
    fn multi_edge_net(r: &Routed) -> usize {
        (0..r.trees.len())
            .find(|&ni| r.trees[ni].len() >= 3)
            .expect("term1 has a net with three or more edges")
    }

    #[test]
    fn accepts_the_router_outcome() {
        check(&routed()).unwrap();
    }

    #[test]
    fn rejects_a_shared_segment() {
        let mut r = routed();
        // Graft onto some net a leaf edge into a segment node another net
        // owns: the grafted tree is still a tree spanning its pins, so only
        // the disjointness check can catch it.
        let g = r.device.graph();
        let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (ni, edges) in r.trees.iter().enumerate() {
            for &e in edges {
                let (a, b) = g.endpoints(e).unwrap();
                owner.insert(a, ni);
                owner.insert(b, ni);
            }
        }
        let (ni, e) = owner
            .iter()
            .find_map(|(&u, &ni)| {
                g.neighbors(u).find_map(|(v, e, _)| {
                    let foreign = owner.get(&v).is_some_and(|&o| o != ni);
                    (foreign && !r.device.is_pin(v)).then_some((ni, e))
                })
            })
            .expect("two routed nets run side by side somewhere");
        r.trees[ni].push(e);
        let err = check(&r).unwrap_err();
        assert!(err.contains("share node"), "unexpected audit error: {err}");
    }

    #[test]
    fn rejects_a_missing_pin() {
        let mut r = routed();
        let ni = multi_edge_net(&r);
        let pins = r.circuit.net_terminals(&r.device, ni).unwrap();
        // Drop every edge incident to the last pin.
        let pin = *pins.last().unwrap();
        let g = r.device.graph();
        r.trees[ni].retain(|&e| {
            let (a, b) = g.endpoints(e).unwrap();
            a != pin && b != pin
        });
        let err = check(&r).unwrap_err();
        assert!(err.contains("misses pin"), "unexpected audit error: {err}");
    }

    #[test]
    fn rejects_a_disconnected_tree() {
        let mut r = routed();
        let ni = multi_edge_net(&r);
        let pins = r.circuit.net_terminals(&r.device, ni).unwrap();
        let g = r.device.graph();
        // Remove an edge between two non-pin nodes: every pin keeps an
        // edge, but the tree falls apart.
        let cut = r.trees[ni]
            .iter()
            .position(|&e| {
                let (a, b) = g.endpoints(e).unwrap();
                !pins.contains(&a) && !pins.contains(&b)
            })
            .expect("some edge joins two segments");
        r.trees[ni].remove(cut);
        let err = check(&r).unwrap_err();
        assert!(err.contains("not a tree"), "unexpected audit error: {err}");
    }

    #[test]
    fn rejects_a_misreported_wirelength() {
        let mut r = routed();
        r.wirelength = r.wirelength.saturating_add(Weight::UNIT);
        let err = check(&r).unwrap_err();
        assert!(err.contains("wirelength"), "unexpected audit error: {err}");
    }

    #[test]
    fn rejects_a_misreported_pathlength() {
        let mut r = routed();
        r.pathlengths[0] = r.pathlengths[0].saturating_add(Weight::UNIT);
        let err = check(&r).unwrap_err();
        assert!(err.contains("pathlength"), "unexpected audit error: {err}");
    }
}
