//! Golden routing identity: the nine Table 5 circuits at seed 1995,
//! routed by rip-up, plus PathFinder runs at W=9 and two rip-up
//! minimum-width searches, must keep producing exactly the same trees.
//! Each outcome is reduced to a stable hash of every net's sorted edge
//! list plus its total wirelength and pathlength. The rip-up constants
//! were captured before the rip-up pass moved onto one in-place CSR and
//! screening stopped allocating (the `term1`/`9symml` ones already before
//! the shortest-path kernel's queue was replaced), so any change to what
//! the router builds fails here. Rip-up routes one net at a time whatever
//! `threads` says, so the same constants hold at every thread count.
//! The PathFinder constants cover selective mode on the four circuits
//! of the `pf_selective` benchmark and full (non-selective) mode on
//! `term1`; each holds on one and on two route-phase workers. The
//! `9symml`, `apex7`, `alu2` and full-mode ones were captured before
//! the route phase stopped routing through copy-on-write overlays.

use fpga_route::fpga::synth::{synthesize, xc4000_profiles, CircuitProfile};
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{ArchSpec, Device, RouteMode, RouteOutcome, Router, RouterConfig};

/// The CLI's default synthesis seed.
const SEED: u64 = 1995;

/// `(tree hash, total wirelength milli, summed max-pathlength milli)`.
type Golden = (u64, u64, u64);

/// Rip-up `term1` at W=12.
const TERM1_W12: Golden = (5_658_625_198_576_090_152, 847_000, 593_000);

/// Rip-up `9symml` at W=12.
const NINE_SYMML_W12: Golden = (14_795_732_482_741_687_242, 859_000, 536_000);

/// Rip-up binary minimum-width search on `term1`: `(width, golden)`.
const TERM1_MIN_WIDTH: (usize, Golden) = (7, (10_149_248_905_059_025_353, 851_000, 601_000));

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

fn profile(circuit: &str) -> CircuitProfile {
    xc4000_profiles()
        .into_iter()
        .find(|p| p.name == circuit)
        .expect("a Table 5 profile")
}

fn route(circuit: &str, width: usize, config: RouterConfig) -> Golden {
    let profile = profile(circuit);
    let nets = synthesize(&profile, 2, SEED).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width))
        .expect("a valid architecture");
    let outcome = Router::new(&device, config).route(&nets).expect("routable");
    fingerprint(&outcome)
}

/// Binary minimum-width search over `3..=24` with a 10-pass rip-up
/// budget, as the width-search benchmark runs it: `(width, golden)`.
fn min_width(circuit: &str, threads: usize) -> (usize, Golden) {
    let profile = profile(circuit);
    let nets = synthesize(&profile, 2, SEED).expect("synthesizable");
    let config = RouterConfig {
        max_passes: 10,
        ..ripup_on(threads)
    };
    let found = minimum_channel_width(
        ArchSpec::xilinx4000(profile.rows, profile.cols, 24),
        3..=24,
        WidthSearch::Binary,
        |device| Router::new(device, config.clone()).route(&nets),
    )
    .expect("routable within the range");
    (found.channel_width, fingerprint(&found.outcome))
}

fn ripup() -> RouterConfig {
    ripup_on(1)
}

fn ripup_on(threads: usize) -> RouterConfig {
    RouterConfig {
        threads,
        ..RouterConfig::default()
    }
}

fn selective_pathfinder(threads: usize) -> RouterConfig {
    RouterConfig {
        pf_selective: true,
        ..full_pathfinder(threads)
    }
}

fn full_pathfinder(threads: usize) -> RouterConfig {
    RouterConfig {
        mode: RouteMode::Pathfinder,
        threads,
        ..RouterConfig::default()
    }
}

/// Asserts that PathFinder routes `circuit` at W=9 to `golden` on one
/// and on two route-phase workers.
fn assert_pathfinder_w9(circuit: &str, config: fn(usize) -> RouterConfig, golden: Golden) {
    for threads in [1, 2] {
        assert_eq!(route(circuit, 9, config(threads)), golden, "threads = {threads}");
    }
}

#[test]
fn ripup_term1_trees_are_unchanged() {
    assert_eq!(route("term1", 12, ripup()), TERM1_W12);
}

#[test]
fn ripup_9symml_trees_are_unchanged() {
    assert_eq!(route("9symml", 12, ripup()), NINE_SYMML_W12);
}

#[test]
fn ripup_alu4_trees_are_unchanged() {
    assert_eq!(
        route("alu4", 12, ripup()),
        (6_917_616_684_652_916_404, 2_998_000, 1_894_000)
    );
}

#[test]
fn ripup_apex7_trees_are_unchanged() {
    assert_eq!(
        route("apex7", 12, ripup()),
        (15_908_040_719_496_718_272, 1_100_000, 781_000)
    );
}

#[test]
fn ripup_example2_trees_are_unchanged() {
    assert_eq!(
        route("example2", 12, ripup()),
        (14_472_674_487_427_021_822, 1_904_000, 1_352_000)
    );
}

#[test]
fn ripup_too_large_trees_are_unchanged() {
    assert_eq!(
        route("too_large", 12, ripup()),
        (4_496_506_407_429_824_415, 2_032_000, 1_327_000)
    );
}

#[test]
fn ripup_k2_trees_are_unchanged() {
    assert_eq!(
        route("k2", 12, ripup()),
        (462_127_320_481_777_028, 4_653_000, 3_032_000)
    );
}

#[test]
fn ripup_vda_trees_are_unchanged() {
    assert_eq!(
        route("vda", 12, ripup()),
        (7_856_758_128_928_106_086, 2_703_000, 1_679_000)
    );
}

#[test]
fn ripup_alu2_trees_are_unchanged() {
    assert_eq!(
        route("alu2", 12, ripup()),
        (17_662_679_394_392_470_836, 1_769_000, 1_061_000)
    );
}

#[test]
fn ripup_term1_minimum_width_is_unchanged() {
    assert_eq!(min_width("term1", 1), TERM1_MIN_WIDTH);
}

#[test]
fn ripup_9symml_minimum_width_is_unchanged() {
    assert_eq!(
        min_width("9symml", 1),
        (7, (16_114_340_375_865_499_665, 857_000, 525_000))
    );
}

#[test]
fn ripup_trees_do_not_depend_on_the_thread_count() {
    for threads in [2, 0] {
        assert_eq!(route("term1", 12, ripup_on(threads)), TERM1_W12, "threads = {threads}");
        assert_eq!(
            route("9symml", 12, ripup_on(threads)),
            NINE_SYMML_W12,
            "threads = {threads}"
        );
    }
    assert_eq!(min_width("term1", 2), TERM1_MIN_WIDTH);
}

#[test]
fn selective_pathfinder_term1_trees_are_unchanged_on_one_and_two_threads() {
    assert_pathfinder_w9(
        "term1",
        selective_pathfinder,
        (264_155_666_393_080_907, 904_000, 645_000),
    );
}

#[test]
fn selective_pathfinder_9symml_trees_are_unchanged_on_one_and_two_threads() {
    assert_pathfinder_w9(
        "9symml",
        selective_pathfinder,
        (2_912_660_040_727_713_233, 911_000, 576_000),
    );
}

#[test]
fn selective_pathfinder_apex7_trees_are_unchanged_on_one_and_two_threads() {
    assert_pathfinder_w9(
        "apex7",
        selective_pathfinder,
        (12_135_435_783_063_039_702, 1_186_000, 874_000),
    );
}

#[test]
fn selective_pathfinder_alu2_trees_are_unchanged_on_one_and_two_threads() {
    assert_pathfinder_w9(
        "alu2",
        selective_pathfinder,
        (10_364_810_069_672_963_243, 1_895_000, 1_216_000),
    );
}

#[test]
fn full_pathfinder_term1_trees_are_unchanged_on_one_and_two_threads() {
    assert_pathfinder_w9(
        "term1",
        full_pathfinder,
        (15_859_679_637_842_405_066, 930_000, 701_000),
    );
}
