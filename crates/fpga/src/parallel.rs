//! Parallel batched net routing.
//!
//! The sequential router commits one net at a time because each commit
//! removes the net's resources and inflates congestion weights — later
//! nets must see those effects. Most nets, however, occupy disjoint
//! regions of the chip and cannot interact within a single pass. This
//! module exploits that: each pass's remaining order is split into
//! contiguous batches of nets whose expanded terminal bounding boxes do
//! not overlap, every net in a batch is routed *speculatively* on worker
//! threads against a read-only snapshot of the pass graph, and the
//! results are then committed strictly in order. A speculative tree is
//! accepted only if nothing it depends on changed since the snapshot;
//! otherwise the net is re-routed sequentially on the spot.
//!
//! Two properties make speculation sound:
//!
//! * **Within a pass the graph evolves monotonically** — commits only
//!   remove nodes and only raise weights. A net that is disconnected on
//!   the snapshot is therefore also disconnected on every later graph of
//!   the same pass, so a speculative routing *failure* can be reported
//!   immediately without re-checking.
//! * **Conflicts are detectable.** Every commit records the set of nodes
//!   it invalidated (removed tree nodes plus weight-refreshed segment
//!   nodes), and every speculation records its **read set** — each node
//!   whose liveness or incident edge weights its shortest-path runs
//!   examined ([`route_graph::readset`]). A speculation is accepted only
//!   if the invalidated set is disjoint from its read set, its tree, and
//!   its candidate region (the region covers the pool-liveness reads the
//!   Steiner template makes outside Dijkstra). Disjointness means the
//!   entire subgraph the construction observed — weights, liveness,
//!   adjacency order (removal is tombstone-based and never reorders) —
//!   is bit-identical on the live graph, so the deterministic
//!   construction would replay identically there; stale nets instead
//!   fall back to the sequential path. Either way the committed result
//!   is exactly what the sequential router would have produced at that
//!   point in the order.
//!
//! The read-set check is what makes acceptance *sound* rather than
//! merely plausible: congestion-weighted constructions consult distances
//! well outside their final tree, so a batch-mate's commit can redirect
//! a net's choices without ever touching the tree or its region. How
//! often speculation survives the check depends on the algorithm's
//! footprint — IKMB/KMB run target-restricted Dijkstras whose reads stay
//! near the net, while constructions that flood the whole component
//! (ZEL, DJKA, PFA, DOM) conflict with any batch-mate's commit and
//! degrade to the sequential path, trading speed for exactness.
//!
//! One read is deliberately absent from the read set: masking reads the
//! liveness of every logic-block pin, and a batch-mate's commit removes
//! the pins of its own net. That difference is invisible to the
//! construction — a foreign pin is dead during routing either way
//! (masked on the snapshot, already removed on the live graph), pins
//! are unique per net, and a pin's removal refreshes no channel
//! weights — so it cannot change the result.
//!
//! Because every speculative route runs against the same per-batch
//! snapshot (each worker restores its view after each net), the
//! outcome is independent of worker count and scheduling: `threads = 4`
//! and `threads = 1` produce identical trees and channel widths.
//!
//! Workers do not clone the snapshot. Each owns a persistent
//! [`OverlayArena`] and binds a [`GraphOverlay`] over the shared pass
//! graph per batch wave: mutations (pin masking, nothing else — routing
//! never commits) land in the worker's epoch-tagged delta, and restoring
//! the pristine snapshot after each net is an O(1) generation bump. A
//! wave therefore costs O(changed) per worker instead of O(graph), and
//! the arenas amortize their allocation across every wave of every pass.
//! The overlay preserves base adjacency order exactly (removal is
//! tombstone-filtered at iteration), so the bit-identity argument above
//! carries over unchanged.

use std::collections::HashSet;

use route_graph::{CsrView, Graph, GraphOverlay, NodeId, OverlayArena};
use steiner_route::RoutingTree;

use crate::netlist::Circuit;
use crate::router::{PassResult, Router};
use crate::sched::{interaction_gap, net_box, NetBox, REGION_SLACK};
use crate::telemetry::{CongestionSnapshot, PassTelemetry};
use crate::FpgaError;

/// Splits `order[start..]` into a contiguous batch of nets whose raw
/// bounding boxes are pairwise non-interacting at the tight gap (see
/// [`interaction_gap`] — the margins are counted once per pair, not
/// expanded onto each box and double-counted). Always yields at least
/// one net.
fn take_batch(
    circuit: &Circuit,
    order: &[usize],
    start: usize,
    gap: usize,
    max_len: usize,
) -> usize {
    let mut boxes: Vec<NetBox> = vec![net_box(circuit, order[start])];
    let mut len = 1;
    while start + len < order.len() && len < max_len {
        let candidate = net_box(circuit, order[start + len]);
        if boxes.iter().any(|b| b.interacts(&candidate, gap)) {
            break;
        }
        boxes.push(candidate);
        len += 1;
    }
    len
}

/// One net's speculative outcome: the routing result plus the read set
/// its constructions touched (sorted, deduplicated).
type NetSpeculation = (Result<Option<RoutingTree>, FpgaError>, Vec<NodeId>);

/// A [`NetSpeculation`] tagged with its index within the batch.
type Speculation = (usize, NetSpeculation);

/// Routes every net of `batch` against copy-on-write overlays of the
/// shared `snapshot` on up to `threads` scoped worker threads. Results
/// come back in batch order. The snapshot — immutable for the whole
/// wave — is packed once into a flat-CSR view ([`CsrView`]) so every
/// speculative shortest-path run sweeps contiguous adjacency lanes
/// instead of chasing the mutable graph's per-node edge lists (the same
/// packing PathFinder's route phase uses). Each worker binds its arena
/// over that CSR once per wave and resets the overlay after every net
/// (routing masks and unmasks pins but never commits), so all
/// speculation observes the identical snapshot regardless of how nets
/// land on workers — without ever cloning the graph. The CSR view
/// surface is identical to the graph's (same iteration order, same
/// liveness, same weights), so speculative results are bit-identical
/// to routing against the [`Graph`] directly.
#[allow(clippy::too_many_arguments)] // internal plumbing for one call site
fn speculate(
    router: &Router<'_>,
    circuit: &Circuit,
    critical: &[bool],
    snapshot: &Graph,
    batch: &[usize],
    threads: usize,
    arenas: &mut [OverlayArena],
    worker_stats: &mut [(u64, usize)],
) -> Vec<NetSpeculation> {
    let workers = threads.min(batch.len()).min(arenas.len()).max(1);
    let csr = CsrView::build(snapshot);
    let snapshot: &CsrView = &csr;
    let mut collected: Vec<Option<NetSpeculation>> = (0..batch.len()).map(|_| None).collect();
    // Workers record into per-thread trace buffers that merge into the
    // collector when the scope joins (thread exit), so speculation adds
    // no per-event contention; adopting the caller's span keeps worker-
    // side net spans nested under the pass span.
    let parent_span = route_trace::current_span();
    std::thread::scope(|scope| {
        let handles: Vec<_> = arenas[..workers]
            .iter_mut()
            .enumerate()
            .map(|(worker, arena)| {
                scope.spawn(move || -> (usize, Vec<Speculation>, u64) {
                    route_trace::adopt_parent(parent_span);
                    // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
                    let wave_started = route_trace::enabled().then(std::time::Instant::now);
                    let mut g = GraphOverlay::bind(snapshot, arena);
                    let routed: Vec<Speculation> = batch
                        .iter()
                        .enumerate()
                        .skip(worker)
                        .step_by(workers)
                        .map(|(bi, &ni)| {
                            route_graph::readset::begin();
                            let result = router.route_net(&mut g, circuit, ni, critical);
                            let reads = route_graph::readset::take();
                            // O(1) back to the pristine snapshot for the
                            // worker's next net.
                            g.reset();
                            (bi, (result, reads))
                        })
                        .collect();
                    let busy_ns = wave_started.map_or(0, |s| {
                        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    (worker, routed, busy_ns)
                })
            })
            .collect();
        for handle in handles {
            // lint: allow(panic-hygiene): join() only errs if the worker already panicked; re-raising is the correct propagation
            let (worker, routed, busy_ns) = handle.join().expect("routing worker panicked");
            if let Some(stats) = worker_stats.get_mut(worker) {
                stats.0 = stats.0.saturating_add(busy_ns);
                stats.1 = stats.1.saturating_add(routed.len());
            }
            for (bi, outcome) in routed {
                collected[bi] = Some(outcome);
            }
        }
    });
    collected
        .into_iter()
        // lint: allow(panic-hygiene): structural invariant — the strided worker partition covers every batch index exactly once
        .map(|slot| slot.expect("every batch slot speculated"))
        .collect()
}

/// Parallel analogue of the router's sequential pass: identical
/// semantics (net order, congestion updates, failure reporting, final
/// outcome) with intra-batch routing fanned out across worker threads.
pub(crate) fn route_pass_parallel(
    router: &Router<'_>,
    circuit: &Circuit,
    order: &[usize],
    critical: &[bool],
    threads: usize,
    arenas: &mut [OverlayArena],
    pass: usize,
) -> Result<(PassResult, PassTelemetry), FpgaError> {
    let device = router.device();
    let config = router.config();
    let threads = threads.max(2);
    let margin = config.candidate_margin + REGION_SLACK;
    let gap = interaction_gap(config.candidate_margin);

    let mut g = device.working_graph();
    if route_trace::enabled() {
        route_trace::count(route_trace::Counter::GraphSnapshotClones, 1);
    }
    let w = device.arch().channel_width as u64;
    let mut usage: Vec<u32> = vec![0; device.position_count()];
    let mut trees: Vec<Option<RoutingTree>> = vec![None; circuit.net_count()];
    let mut timing = PassTelemetry::default();
    // Per-worker (busy_ns, nets speculated) accumulated across every
    // batch wave of this pass, reported as scheduler-timeline records at
    // pass exit. Zero-cost when tracing is off (stays all-zero, skipped).
    let mut worker_stats: Vec<(u64, usize)> = vec![(0, 0); threads];
    // Taken at every pass exit, success or failure, so each executed pass
    // ships an end-state occupancy snapshot.
    macro_rules! finish_pass {
        ($result:expr) => {{
            if route_trace::enabled() {
                for (worker, &(busy_ns, nets)) in worker_stats.iter().enumerate() {
                    if nets == 0 {
                        continue;
                    }
                    route_trace::record_timeline(route_trace::TimelineRecord {
                        pass,
                        worker,
                        role: "batch-worker",
                        busy_ns,
                        nets,
                        steals: 0,
                        stalls: 0,
                    });
                }
            }
            timing.congestion = CongestionSnapshot::from_usage(0, w as usize, &usage);
            return Ok(($result, timing));
        }};
    }

    let mut start = 0usize;
    while start < order.len() {
        let len = take_batch(circuit, order, start, gap, threads * 4);
        let batch = &order[start..start + len];
        timing.batches += 1;

        if len == 1 {
            // Nothing to overlap with — take the sequential path directly.
            let ni = batch[0];
            match router.route_net(&mut g, circuit, ni, critical)? {
                Some(tree) => commit_one(router, &mut g, &mut usage, w, &mut trees, ni, tree, None)?,
                None => finish_pass!(PassResult::Failed(ni)),
            }
            start += len;
            continue;
        }

        timing.speculated += len;
        let speculated = speculate(
            router,
            circuit,
            critical,
            &g,
            batch,
            threads,
            arenas,
            &mut worker_stats,
        );

        // Commit strictly in order; `changed` accumulates every node the
        // batch's commits invalidated so later nets can detect staleness.
        let mut changed: HashSet<NodeId> = HashSet::new();
        for (bi, (result, reads)) in speculated.into_iter().enumerate() {
            let ni = batch[bi];
            match result? {
                // Disconnected on the snapshot stays disconnected on every
                // later graph of this pass (monotone evolution), so the
                // failure is sound without re-routing.
                None => finish_pass!(PassResult::Failed(ni)),
                Some(tree) => {
                    // Fresh ⇔ nothing the construction observed changed:
                    // its Dijkstra read set (which contains the tree, but
                    // the tree check is kept as cheap defense in depth)
                    // and the candidate region whose pool liveness the
                    // Steiner template scanned.
                    let fresh = changed.is_empty() || {
                        let region = router.region_nodes(circuit, ni, margin);
                        !reads.iter().any(|v| changed.contains(v))
                            && !tree.nodes().any(|v| changed.contains(&v))
                            && !region.iter().any(|v| changed.contains(v))
                    };
                    if fresh {
                        timing.accepted += 1;
                        if route_trace::enabled() {
                            route_trace::count(route_trace::Counter::ConflictAccepts, 1);
                        }
                        commit_one(
                            router,
                            &mut g,
                            &mut usage,
                            w,
                            &mut trees,
                            ni,
                            tree,
                            Some(&mut changed),
                        )?;
                    } else {
                        // Stale speculation: replay this net sequentially
                        // against the live graph, exactly as the
                        // sequential pass would have.
                        timing.rerouted += 1;
                        if route_trace::enabled() {
                            route_trace::count(route_trace::Counter::ConflictReroutes, 1);
                        }
                        match router.route_net(&mut g, circuit, ni, critical)? {
                            Some(tree) => commit_one(
                                router,
                                &mut g,
                                &mut usage,
                                w,
                                &mut trees,
                                ni,
                                tree,
                                Some(&mut changed),
                            )?,
                            None => finish_pass!(PassResult::Failed(ni)),
                        }
                    }
                }
            }
        }
        start += len;
    }

    finish_pass!(PassResult::Complete(router.finalize(circuit, trees)?))
}

/// Commits one routed tree and records it (re-derived against the
/// pristine device graph, matching the sequential pass) in `trees`.
#[allow(clippy::too_many_arguments)]
fn commit_one(
    router: &Router<'_>,
    g: &mut Graph,
    usage: &mut [u32],
    w: u64,
    trees: &mut [Option<RoutingTree>],
    ni: usize,
    tree: RoutingTree,
    changed: Option<&mut HashSet<NodeId>>,
) -> Result<(), FpgaError> {
    router.commit(g, usage, w, &tree, changed)?;
    let pristine = RoutingTree::from_edges(router.device().graph(), tree.edges().to_vec())?;
    trees[ni] = Some(pristine);
    Ok(())
}
