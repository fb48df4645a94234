//! Golden routing identity: a few Table 5 circuits at seed 1995, routed
//! by rip-up and by selective PathFinder, must keep producing exactly the
//! same trees. Each outcome is reduced to a stable hash of every net's
//! sorted edge list plus its total wirelength and pathlength; the
//! constants were captured before the shortest-path kernel's queue was
//! replaced, so any change to what the router builds fails here.

use fpga_route::fpga::synth::{synthesize, xc4000_profiles};
use fpga_route::fpga::{ArchSpec, Device, RouteMode, RouteOutcome, Router, RouterConfig};

/// The CLI's default synthesis seed.
const SEED: u64 = 1995;

/// `(tree hash, total wirelength milli, summed max-pathlength milli)`.
type Golden = (u64, u64, u64);

/// FNV-1a over each net's index, edge count and sorted edge indices, in
/// net order.
fn fingerprint(outcome: &RouteOutcome) -> Golden {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (ni, tree) in outcome.trees.iter().enumerate() {
        let mut edges: Vec<usize> = tree.edges().iter().map(|e| e.index()).collect();
        edges.sort_unstable();
        eat(ni as u64);
        eat(edges.len() as u64);
        for e in edges {
            eat(e as u64);
        }
    }
    (
        h,
        outcome.total_wirelength.as_milli(),
        outcome.total_max_pathlength().as_milli(),
    )
}

fn route(circuit: &str, width: usize, config: RouterConfig) -> Golden {
    let profile = xc4000_profiles()
        .into_iter()
        .find(|p| p.name == circuit)
        .expect("a Table 5 profile");
    let nets = synthesize(&profile, 2, SEED).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width))
        .expect("a valid architecture");
    let outcome = Router::new(&device, config).route(&nets).expect("routable");
    fingerprint(&outcome)
}

fn ripup() -> RouterConfig {
    RouterConfig {
        threads: 1,
        ..RouterConfig::default()
    }
}

fn selective_pathfinder(threads: usize) -> RouterConfig {
    RouterConfig {
        mode: RouteMode::Pathfinder,
        pf_selective: true,
        threads,
        ..RouterConfig::default()
    }
}

#[test]
fn ripup_term1_trees_are_unchanged() {
    assert_eq!(
        route("term1", 12, ripup()),
        (5_658_625_198_576_090_152, 847_000, 593_000)
    );
}

#[test]
fn ripup_9symml_trees_are_unchanged() {
    assert_eq!(
        route("9symml", 12, ripup()),
        (14_795_732_482_741_687_242, 859_000, 536_000)
    );
}

#[test]
fn selective_pathfinder_term1_trees_are_unchanged_on_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            route("term1", 9, selective_pathfinder(threads)),
            (264_155_666_393_080_907, 904_000, 645_000),
            "threads = {threads}"
        );
    }
}
