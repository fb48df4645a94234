//! The router's two kinds of parallelism, each bit-identical to its
//! one-thread run.
//!
//! * PathFinder (`RouteMode::Pathfinder`) splits every iteration's route
//!   phase across `RouterConfig::threads` workers. Each net routes
//!   against the same priced snapshot, so the worker count never changes
//!   a tree.
//! * Rip-up routes one net at a time, as the paper does. Its parallel
//!   form is the width search, which runs whole probes at different
//!   channel widths concurrently.
//!
//! Run with: `cargo run --release --example parallel_route [threads] [width]`
//! (widths that are too narrow show both runs agreeing on failure too).

use fpga_route::fpga::synth::{synthesize, xc4000_profiles};
use fpga_route::fpga::width::{minimum_channel_width, minimum_channel_width_parallel, WidthSearch};
use fpga_route::fpga::{ArchSpec, Device, RouteMode, Router, RouterConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);
    let width: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(12);
    let profile = xc4000_profiles()
        .into_iter()
        .find(|p| p.name == "term1")
        .expect("term1 is a published profile");
    let circuit = synthesize(&profile, 2, 1995)?;
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width))?;

    let pathfinder = |threads| RouterConfig {
        mode: RouteMode::Pathfinder,
        pf_selective: true,
        threads,
        ..RouterConfig::default()
    };
    let one = Router::new(&device, pathfinder(1)).route(&circuit);
    let many = Router::new(&device, pathfinder(threads)).route(&circuit);
    println!(
        "{}: {} nets, W = {width}, selective PathFinder on 1 and {threads} thread(s)",
        circuit.name(),
        circuit.net_count()
    );
    match (one, many) {
        (Ok(one), Ok(many)) => {
            assert_eq!(one.trees, many.trees);
            println!(
                "both converge in {} iteration(s), wirelength {}; trees identical",
                many.passes, many.total_wirelength
            );
            for t in &many.telemetry.passes {
                println!(
                    "  iteration {:>2}: {:>3} dirty, {:>3} rerouted, {:>3} over capacity, {:.1?}",
                    t.pass, t.dirty_nets, t.nets_rerouted, t.overcapacity, t.elapsed
                );
            }
        }
        (Err(a), Err(b)) => {
            println!("both report unroutable at W = {width}:");
            println!("  1 thread:          {a}");
            println!("  {threads} thread(s): {b}");
        }
        (a, b) => panic!("thread counts disagree: {a:?} vs {b:?}"),
    }

    // Rip-up width search: the sequential binary search and the parallel
    // probe waves find the same minimum width.
    let base = ArchSpec::xilinx4000(profile.rows, profile.cols, 4);
    let ripup = |device: &Device| {
        Router::new(
            device,
            RouterConfig {
                max_passes: 8,
                ..RouterConfig::default()
            },
        )
        .route(&circuit)
    };
    let sequential = minimum_channel_width(base, 4..=16, WidthSearch::Binary, ripup)?;
    let parallel = minimum_channel_width_parallel(base, 4..=16, threads, ripup)?;
    assert_eq!(sequential.channel_width, parallel.channel_width);
    println!(
        "rip-up minimum channel width: {} ({} sequential probes, {} parallel probes)",
        parallel.channel_width, sequential.attempts, parallel.attempts
    );
    Ok(())
}
