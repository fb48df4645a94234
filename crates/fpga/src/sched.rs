//! Dependency-DAG wavefront scheduling with commit/speculation overlap.
//!
//! The batch engine ([`parallel`](crate::parallel)) advances in lockstep
//! waves: a batch of bbox-disjoint nets is speculated, a barrier waits
//! for the slowest net, then every result is committed while the workers
//! sit idle. This module replaces the barrier with a *wavefront*:
//!
//! 1. A **conflict DAG** is built over the pass order: net `j` depends
//!    on every earlier net `i` whose bounding box interacts with `j`'s
//!    (see [`NetBox::interacts`]). Nets that cannot perturb each other
//!    carry no edge and may be in flight simultaneously.
//! 2. Ready nets (all DAG predecessors committed) are distributed to
//!    per-worker deques; an idle worker pops its own deque first, then
//!    the shared injector, then **steals** from the busiest peer.
//! 3. The committer — the calling thread — consumes speculation results
//!    strictly in pass order and applies them to a
//!    [`SharedPassGraph`] *while workers keep speculating against it*:
//!    a net whose predecessors have all committed becomes stealable the
//!    moment the last one lands, not when the whole wave drains.
//! 4. A speculation that raced with a conflicting commit (read-set
//!    check, below) is **requeued** against a fresh commit sequence
//!    instead of poisoning a wave or falling back to a sequential
//!    re-route.
//!
//! # Why the result is still bit-identical to `threads = 1`
//!
//! Commits are applied in pass order by a single thread, so the shared
//! graph passes through exactly the same sequence of states as under the
//! sequential engine. A speculation records the commit sequence `S` it
//! started from (*before* taking its read view, so `S` never overstates
//! what it saw) and every node its constructions read; at commit
//! position `p` it is accepted only if the nodes invalidated by commits
//! `S+1..=p` (recorded per commit) are disjoint from its read set, its
//! tree, and its candidate region. Disjointness means every location the
//! construction observed had the same value at sequence `S` and at `p` —
//! concurrent writes to *other* locations cannot tear an observed one —
//! so the deterministic construction would produce the identical tree on
//! the sequential graph at `p`. A rejected speculation is requeued at
//! the injector head; the committer is then parked at `p`, so the
//! re-speculation reads `commit_seq == p`, is fresh by construction, and
//! equals the sequential result outright — one retry always suffices.
//! Speculative *disconnection* verdicts are accepted even when stale:
//! within a pass the graph evolves monotonically (commits only remove
//! nodes and raise weights), so a net with no route at `S` has none at
//! any later sequence either.
//!
//! The DAG itself is advisory, not load-bearing: a conflict the bounding
//! boxes miss (congestion-weighted reads can spill past any fixed
//! margin) is still caught by the read-set check and costs one
//! re-speculation. That is what lets the box predicate use the *tight*
//! interaction gap — see [`interaction_gap`] — instead of a conservative
//! double margin.
//!
//! There is no deadlock: position `p`'s DAG predecessors are all earlier
//! positions, every one of which the committer commits before waiting on
//! `p`, so by the time the committer parks on `p` the net has been
//! released to the workers (or sits at the injector head, if requeued).
//! The committer only ever blocks on a net some worker holds *in
//! flight* — a queued net it claims and routes itself — and an
//! in-flight net always posts its result.
//!
//! # Work conservation
//!
//! Speculation is a bet that worker time overlaps commit time. The
//! scheduler refuses to lose that bet in three ways, none of which can
//! change the routed trees (which thread routes a net never changes
//! what the deterministic construction produces):
//!
//! * **Inline claims.** When the next-to-commit net is still sitting in
//!   a ready queue, the committer takes it and routes it itself rather
//!   than parking: over a private [`GraphOverlay`] while workers are
//!   mid-route (their reads must not see its transient pin masks), or
//!   — when *nothing* is in flight — directly on the shared writer
//!   with the workers briefly gated out, which costs exactly what the
//!   sequential engine pays. The gate is required for writer-direct
//!   routing because masking mutates the shared graph and restores it;
//!   unlike commit mutations those transients are recorded in no
//!   changed set, so a concurrent read-set check could not detect
//!   having observed them.
//! * **Adaptive suspension.** `spec_exit_misses` consecutive stale
//!   speculations with no ahead-of-frontier acceptance in between mean
//!   overlap is not paying (typically: the host's cores are
//!   oversubscribed, so worker time is stolen from the committer, and
//!   every stale route is burned twice). The workers are then parked
//!   and the committer drains the queues itself, until a probe window
//!   (every `spec_probe_period` commits) or a fresh ahead acceptance
//!   lifts the pause. Both thresholds are
//!   [`RouterConfig`](crate::router::RouterConfig) fields
//!   (`--spec-exit-misses` / `--spec-probe-period` on the CLI), with
//!   defaults [`SPEC_EXIT_MISSES`] and [`SPEC_PROBE_PERIOD`].
//! * **Solo mode.** On a host with a single hardware thread the bet is
//!   unwinnable by construction, so speculation never starts at all and
//!   the pass runs entirely through the writer-direct claim path —
//!   sequential speed plus a few queue operations.
//!
//! Claims (and with them suspension and solo mode) can be disabled via
//! [`RouterConfig::committer_claims`](crate::RouterConfig); the
//! adversarial stress tests use that to force every net through worker
//! speculation regardless of how the host schedules threads.
//!
//! A worker-side twin of the same idea: a worker that picks up the net
//! the committer is currently parked on (`base_seq == pos`) skips
//! read-set recording entirely — the next in-order commit is that very
//! net, so no mutation can land mid-route and the result is fresh by
//! construction.
//!
//! When the DAG exposes fewer ready nets than there are workers (a
//! serial chain, or the tail of a pass), a worker that takes the *last*
//! ready net grants itself an intra-net budget via
//! [`route_graph::par`], and the net's per-terminal Dijkstra runs fan
//! out across scoped threads instead of leaving cores idle — gated, like
//! speculation itself, on the host actually having idle cores to spend.

use std::collections::{HashSet, VecDeque};
use std::sync::{Condvar, Mutex};

use route_graph::{GraphOverlay, NodeId, OverlayArena, SharedPassGraph};
use steiner_route::RoutingTree;

use crate::netlist::Circuit;
use crate::router::{PassResult, Router};
use crate::telemetry::{CongestionSnapshot, PassTelemetry};
use crate::FpgaError;

/// Extra gap on top of the candidate margins when computing the
/// interaction distance: one block ring covering the congestion weight
/// refresh around a committed tree's channel positions.
pub(crate) const REGION_SLACK: usize = 1;

/// Intra-net Dijkstra fan-out only pays off on chip-scale graphs; below
/// this many live nodes the thread-spawn overhead dwarfs the runs.
const FANOUT_MIN_NODES: usize = 4096;

/// Default for [`RouterConfig::spec_exit_misses`](crate::router::RouterConfig::spec_exit_misses):
/// consecutive stale speculations (with no ahead-of-frontier acceptance
/// in between) after which the committer stops waking workers and routes
/// the frontier itself at sequential speed. Ahead-speculation that
/// always goes stale is pure waste: every stale route burns a core and
/// is redone anyway.
pub(crate) const SPEC_EXIT_MISSES: usize = 4;

/// Default for [`RouterConfig::spec_probe_period`](crate::router::RouterConfig::spec_probe_period):
/// while speculation is suspended, every this-many commits the workers
/// are woken for one probe window. If their speculations land fresh
/// (the workload or the host changed), speculation resumes; if they go
/// stale, the suspension stands. Bounds the cost of mistakenly leaving
/// speculation off at one wasted route per period.
pub(crate) const SPEC_PROBE_PERIOD: usize = 32;

/// A net's raw terminal bounding box in block coordinates. No margin is
/// applied to the box itself — margins enter once per *pair* through
/// [`NetBox::interacts`]'s `gap`, not once per box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NetBox {
    pub r0: usize,
    pub r1: usize,
    pub c0: usize,
    pub c1: usize,
}

impl NetBox {
    /// `true` if the two raw boxes come within `gap` blocks of each
    /// other on both axes — i.e. expanding *one* of them by `gap` would
    /// make them overlap. Edge-of-array clamping is irrelevant here
    /// because neither box has a margin applied.
    pub(crate) fn interacts(&self, other: &NetBox, gap: usize) -> bool {
        self.r0 <= other.r1.saturating_add(gap)
            && other.r0 <= self.r1.saturating_add(gap)
            && self.c0 <= other.c1.saturating_add(gap)
            && other.c0 <= self.c1.saturating_add(gap)
    }
}

/// The raw terminal bounding box of net `ni`.
pub(crate) fn net_box(circuit: &Circuit, ni: usize) -> NetBox {
    let pins = &circuit.nets()[ni].pins;
    let (mut r0, mut r1, mut c0, mut c1) = (usize::MAX, 0usize, usize::MAX, 0usize);
    for p in pins {
        r0 = r0.min(p.row);
        r1 = r1.max(p.row);
        c0 = c0.min(p.col);
        c1 = c1.max(p.col);
    }
    NetBox { r0, r1, c0, c1 }
}

/// The interaction distance between two raw net boxes at a given
/// candidate margin: a committed net's tree is pool-restricted to its
/// box expanded by `candidate_margin`, its weight refresh reaches one
/// further ring, and a reading net's checked observations live within
/// its own box expanded by `candidate_margin` plus that same slack ring
/// — so the tight pairwise distance is `2·candidate_margin` plus the
/// slack counted **once**.
///
/// The batch engine's original predicate expanded *both* boxes by
/// `candidate_margin + REGION_SLACK` before testing overlap, which
/// double-counts the shared slack and adds a ring of false dependencies
/// around every net (denser DAG, shorter batches). Any interaction the
/// tight gap misses is caught by the commit-time read-set check, which
/// is the load-bearing soundness net.
pub(crate) fn interaction_gap(candidate_margin: usize) -> usize {
    2 * candidate_margin + REGION_SLACK
}

/// One net's speculative outcome, tagged with the commit sequence its
/// worker observed before taking its read view.
struct Spec {
    result: Result<Option<RoutingTree>, FpgaError>,
    reads: Vec<NodeId>,
    base_seq: u64,
}

/// How the committer obtained the net at its commit position.
enum Claim {
    /// A worker's posted speculation, subject to the freshness check.
    Posted(Spec),
    /// Claimed from the ready queues while at least one worker is
    /// mid-route on a later net: routed inline over a private overlay so
    /// the transient pin masks stay invisible to the concurrent readers.
    Inline,
    /// Claimed from the ready queues with *no* worker mid-route: the
    /// workers are gated out and the net is routed directly on the
    /// shared writer — no overlay, no read set, pure sequential speed.
    Exclusive,
}

/// Scheduler state shared between the committer and the workers, guarded
/// by one mutex held only for O(1) queue operations — routing and
/// committing both happen outside it.
struct SchedState {
    /// Per-worker ready deques: owners pop the front, thieves pop the
    /// back of the longest deque.
    locals: Vec<VecDeque<usize>>,
    /// Requeued nets (pushed at the front); drained before stealing.
    injector: VecDeque<usize>,
    /// Speculation results, slotted by order position.
    results: Vec<Option<Spec>>,
    /// Nets currently being routed by workers. Zero is what licenses the
    /// committer's exclusive (writer-direct) claim mode.
    inflight: usize,
    /// Set while the committer routes a claimed net directly on the
    /// shared writer; workers must not start a route (the writer's
    /// transient pin masks would be visible to them, and — unlike commit
    /// mutations — they are not recorded in any changed set, so the
    /// read-set check could not catch the tear).
    gate: bool,
    /// Speculation suspended: ahead-of-frontier speculation has been
    /// going stale without a single acceptance, so routing nets on the
    /// workers is pure waste — they park and the committer drains the
    /// ready queues itself at sequential speed until a probe window or
    /// a fresh ahead acceptance lifts the pause.
    paused: bool,
    /// Set by the committer when the pass is over (success, failure, or
    /// error); workers exit at the next acquire.
    done: bool,
    steals: u64,
    stalls: u64,
}

impl SchedState {
    /// Total ready nets currently queued anywhere.
    fn queued(&self) -> usize {
        self.injector.len() + self.locals.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Removes `pos` from whichever queue holds it. `false` if `pos` is
    /// not queued (in flight, or its result already posted).
    fn unqueue(&mut self, pos: usize) -> bool {
        if let Some(i) = self.injector.iter().position(|&p| p == pos) {
            self.injector.remove(i);
            return true;
        }
        for deque in &mut self.locals {
            if let Some(i) = deque.iter().position(|&p| p == pos) {
                deque.remove(i);
                return true;
            }
        }
        false
    }
}


/// Locks the scheduler state, propagating a sibling's panic.
fn lock_state(state: &Mutex<SchedState>) -> std::sync::MutexGuard<'_, SchedState> {
    // lint: allow(panic-hygiene): a poisoned lock means a sibling thread already panicked; compounding the abort is the only sound continuation
    state.lock().expect("scheduler state poisoned")
}

/// Parks on `cv`, re-acquiring the scheduler state lock on wake.
fn park_on<'a>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, SchedState>,
) -> std::sync::MutexGuard<'a, SchedState> {
    // lint: allow(panic-hygiene): same poisoned-lock reasoning as lock_state
    cv.wait(guard).expect("scheduler state poisoned")
}

/// Routes one pass with the wavefront scheduler. Same contract as
/// [`route_pass_parallel`](crate::parallel::route_pass_parallel):
/// semantics identical to the sequential pass (net order, congestion
/// updates, failure reporting), with commit and speculation overlapped
/// instead of alternating.
pub(crate) fn route_pass_wavefront(
    router: &Router<'_>,
    circuit: &Circuit,
    order: &[usize],
    critical: &[bool],
    threads: usize,
    arenas: &mut [OverlayArena],
    pass: usize,
) -> Result<(PassResult, PassTelemetry), FpgaError> {
    let pass_started = if route_trace::enabled() {
        // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
        Some(std::time::Instant::now())
    } else {
        None
    };
    let device = router.device();
    let config = router.config();
    let n = order.len();
    let workers = threads.max(2).min(arenas.len().max(1)).min(n.max(1));
    let margin = config.candidate_margin + REGION_SLACK;
    // Adaptive-suspension tuning, promoted to RouterConfig. A zero
    // probe period would mean "never probe"; clamp to 1 so the modulo
    // below stays defined and suspension stays recoverable.
    let exit_misses = config.spec_exit_misses;
    let probe_period = config.spec_probe_period.max(1);
    let gap = interaction_gap(config.candidate_margin);
    let claims = config.committer_claims;

    // Fan-out spends *idle cores* inside one net; on a host without
    // them the scoped spawns are pure overhead on the critical path.
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fanout_ok =
        workers > 1 && host_cores > 1 && device.graph().live_node_count() >= FANOUT_MIN_NODES;
    // Same physics, applied to speculation itself: with a single
    // hardware thread nothing a worker routes can overlap with the
    // committer — every speculated net only delays the commit chain it
    // is stolen from. The pass then runs in pure committer-claim mode
    // (identical results, sequential speed) instead of paying the
    // speculation tax for no overlap. Disabled alongside claims so the
    // stress tests can force worker speculation anywhere.
    let solo = claims && host_cores <= 1;

    // --- Conflict DAG over the pass order ------------------------------
    let boxes: Vec<NetBox> = order.iter().map(|&ni| net_box(circuit, ni)).collect();
    let mut preds: Vec<usize> = vec![0; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for i in 0..j {
            if boxes[i].interacts(&boxes[j], gap) {
                preds[j] += 1;
                successors[i].push(j);
            }
        }
    }

    // --- Shared pass graph and scheduler state -------------------------
    let shared = SharedPassGraph::new(device.working_graph());
    if route_trace::enabled() {
        route_trace::count(route_trace::Counter::GraphSnapshotClones, 1);
    }
    let w = device.arch().channel_width as u64;
    let mut usage: Vec<u32> = vec![0; device.position_count()];
    let mut trees: Vec<Option<RoutingTree>> = vec![None; circuit.net_count()];
    let mut timing = PassTelemetry::default();

    // Seed the ready queues with every DAG root, round-robin across the
    // workers; `rr` keeps rotating as commits release successors.
    let mut rr = 0usize;
    let mut locals: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for (pos, &p) in preds.iter().enumerate() {
        if p == 0 {
            locals[rr % workers].push_back(pos);
            rr += 1;
        }
    }
    let state = Mutex::new(SchedState {
        locals,
        injector: VecDeque::new(),
        results: (0..n).map(|_| None).collect(),
        inflight: 0,
        gate: false,
        paused: solo,
        done: false,
        steals: 0,
        stalls: 0,
    });
    let work = Condvar::new(); // workers park here waiting for ready nets
    let arrived = Condvar::new(); // the committer parks here for results

    let parent_span = route_trace::current_span();

    // The scope returns the committer's verdict: Ok(None) = every net
    // committed, Ok(Some(ni)) = net ni unroutable at this width.
    let failed: Option<usize> = std::thread::scope(|scope| {
        for (worker, arena) in arenas[..workers].iter_mut().enumerate() {
            let state = &state;
            let work = &work;
            let arrived = &arrived;
            let shared = &shared;
            scope.spawn(move || {
                route_trace::adopt_parent(parent_span);
                // Per-worker occupancy tallies for the scheduler
                // timeline: time spent actually routing (parked time
                // excluded), nets speculated, steals, and stalls.
                let timeline = route_trace::enabled();
                let mut my_busy_ns = 0u64;
                let mut my_nets = 0usize;
                let mut my_steals = 0usize;
                let mut my_stalls = 0usize;
                loop {
                    // --- acquire a ready net ---------------------------
                    let (pos, stole, last_ready) = {
                        let mut st = lock_state(state);
                        let mut stole = false;
                        loop {
                            if st.done {
                                drop(st);
                                if timeline {
                                    route_trace::record_timeline(route_trace::TimelineRecord {
                                        pass,
                                        worker,
                                        role: "worker",
                                        busy_ns: my_busy_ns,
                                        nets: my_nets,
                                        steals: my_steals,
                                        stalls: my_stalls,
                                    });
                                }
                                route_trace::flush_thread();
                                return;
                            }
                            if st.gate || st.paused {
                                // Gated (the committer is routing on the
                                // writer) or paused (speculation is not
                                // paying): park without taking a net.
                                st.stalls += 1;
                                my_stalls += 1;
                                st = park_on(work, st);
                                continue;
                            }
                            let taken = if let Some(p) = st.locals[worker].pop_front() {
                                Some(p)
                            } else if let Some(p) = st.injector.pop_front() {
                                Some(p)
                            } else {
                                // Steal the tail of the longest peer deque.
                                let victim = (0..st.locals.len())
                                    .filter(|&v| v != worker && !st.locals[v].is_empty())
                                    .max_by_key(|&v| st.locals[v].len());
                                victim.map(|v| {
                                    st.steals += 1;
                                    stole = true;
                                    // lint: allow(panic-hygiene): victim deques were filtered to non-empty under this same lock
                                    st.locals[v].pop_back().expect("victim deque nonempty")
                                })
                            };
                            if let Some(p) = taken {
                                st.inflight += 1;
                                break (p, stole, st.queued() == 0);
                            }
                            st.stalls += 1;
                            my_stalls += 1;
                            st = park_on(work, st);
                        }
                    };
                    if stole {
                        my_steals += 1;
                        if route_trace::enabled() {
                            route_trace::count(route_trace::Counter::SchedSteals, 1);
                        }
                    }
                    // lint: allow(determinism-wall-clock): gated on the timeline flag; feeds worker-timeline telemetry only, never routing state
                    let route_started = timeline.then(std::time::Instant::now);

                    // --- speculate outside the lock --------------------
                    // The DAG ran dry behind this net: spend the idle
                    // cores *inside* it by fanning its per-terminal
                    // Dijkstra runs out across scoped threads.
                    let _fanout = (last_ready && fanout_ok)
                        .then(|| route_graph::par::FanoutGuard::new(workers));
                    // Sequence first, view second: commits landing in
                    // between make the freshness window conservative,
                    // never optimistic.
                    let base_seq = shared.commit_seq();
                    let view = shared.view();
                    let mut g = GraphOverlay::bind(&view, arena);
                    // Routing at the commit frontier (`base_seq == pos`)
                    // cannot race with anything: the next commit in order
                    // is this very net, which the committer is waiting
                    // for, so no mutation can land mid-route and no read
                    // set is needed — the result is fresh by construction.
                    let head = base_seq == pos as u64;
                    if !head {
                        route_graph::readset::begin();
                    }
                    let result = router.route_net(&mut g, circuit, order[pos], critical);
                    let reads = if head {
                        Vec::new()
                    } else {
                        route_graph::readset::take()
                    };

                    if let Some(started) = route_started {
                        my_busy_ns = my_busy_ns.saturating_add(
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        my_nets += 1;
                    }

                    let mut st = lock_state(state);
                    st.inflight -= 1;
                    st.results[pos] = Some(Spec {
                        result,
                        reads,
                        base_seq,
                    });
                    drop(st);
                    arrived.notify_all();
                }
            });
        }

        // --- the committer: strictly in order, concurrent with the -----
        // --- speculation above ------------------------------------------
        let mut writer = shared.writer();
        // For inline-claimed nets: the committer masks pins in its own
        // private overlay, never on the shared graph the workers read.
        let cview = shared.view();
        let mut committer_arena = OverlayArena::new();
        // changed_log[k] = nodes invalidated by the commit that published
        // sequence k + 1.
        let mut changed_log: Vec<HashSet<NodeId>> = Vec::with_capacity(n);
        let mut verdict: Result<Option<usize>, FpgaError> = Ok(None);
        // Adaptive speculation throttle (work conservation, part two):
        // while `speculating`, commits wake the workers and the pass
        // runs as a full wavefront. A run of `spec_exit_misses` stale
        // speculations with not one ahead-of-frontier acceptance means
        // overlap is not paying on this host right now — typically
        // because the cores are oversubscribed and speculation merely
        // steals time from the committer — so the wakeups stop and the
        // committer claims every net itself until a probe window (or a
        // fresh ahead acceptance) turns speculation back on. Pure
        // scheduling policy: which thread routes a net never changes
        // what it routes.
        let mut speculating = !solo;
        let mut stale_run = 0usize;
        'nets: for pos in 0..n {
            let ni = order[pos];
            // Commit-lag span: from "net is next to commit" to "commit
            // applied", covering the wait for its speculation and any
            // re-speculation rounds.
            let _commit_span =
                route_trace::span(route_trace::SpanKind::Commit, "commit", ni as u64);
            loop {
                // Take the net's posted speculation, or — work
                // conservation — claim it if no worker has started it
                // yet. A claim with workers mid-route on later nets
                // routes over a private overlay (their reads must not
                // see their pin masks); a claim with *nothing* in flight
                // gates the workers out and routes straight on the
                // writer, which is the sequential engine's exact cost.
                // The exclusive mode is what lets a host whose cores are
                // busy elsewhere degrade to sequential speed instead of
                // paying speculation overhead for no overlap.
                let taken = {
                    let mut st = lock_state(&state);
                    loop {
                        if let Some(spec) = st.results[pos].take() {
                            break Claim::Posted(spec);
                        }
                        if claims && st.unqueue(pos) {
                            if st.inflight == 0 {
                                st.gate = true;
                                break Claim::Exclusive;
                            }
                            break Claim::Inline;
                        }
                        st = park_on(&arrived, st);
                    }
                };
                let tree = match taken {
                    Claim::Posted(spec) => {
                        // Counted at consumption so aborted in-flight
                        // speculation never skews the accepted +
                        // respeculated == speculated invariant on
                        // completed passes.
                        timing.speculated += 1;
                        let tree = match spec.result {
                            Err(e) => {
                                verdict = Err(e);
                                break 'nets;
                            }
                            // Disconnected at any sequence of this pass
                            // means disconnected at every later one
                            // (monotone evolution), so a stale failure
                            // verdict is sound.
                            Ok(None) => {
                                verdict = Ok(Some(ni));
                                break 'nets;
                            }
                            Ok(Some(tree)) => tree,
                        };
                        // Fresh ⇔ nothing the construction observed was
                        // invalidated after its base sequence: its
                        // Dijkstra read set (which contains the tree —
                        // the tree check is kept as cheap defense in
                        // depth) and the candidate region whose pool
                        // liveness the Steiner template scanned outside
                        // Dijkstra. The window can span many commits, so
                        // the scan iterates each commit's (small)
                        // invalidated set against one observed-set index
                        // instead of re-walking the thousands-strong read
                        // set per window entry.
                        // lint: allow(panic-hygiene): base_seq was produced from a usize commit position
                        let base = usize::try_from(spec.base_seq).expect("commit seq fits in usize");
                        let fresh = base >= pos || {
                            let mut observed: HashSet<NodeId> =
                                spec.reads.iter().copied().collect();
                            observed.extend(tree.nodes());
                            observed.extend(router.region_nodes(circuit, ni, margin));
                            changed_log[base..pos]
                                .iter()
                                .all(|changed| changed.is_disjoint(&observed))
                        };
                        if !fresh {
                            // Requeue at the injector head: the committer
                            // stays parked at `pos`, so the retry reads
                            // commit_seq == pos and is fresh by
                            // construction (workers then skip read-set
                            // recording; a busy-worker retry may equally
                            // be claimed inline right here).
                            timing.respeculated += 1;
                            stale_run += 1;
                            if claims && stale_run >= exit_misses {
                                speculating = false;
                            }
                            if route_trace::enabled() {
                                route_trace::count(route_trace::Counter::SchedRespeculations, 1);
                            }
                            let mut st = lock_state(&state);
                            st.paused = !speculating;
                            st.injector.push_front(pos);
                            drop(st);
                            // Suspended: skip the wakeup and claim the
                            // retry right back at the top of the loop.
                            if speculating {
                                work.notify_one();
                            }
                            continue;
                        }
                        timing.accepted += 1;
                        if base < pos {
                            // An ahead-of-frontier speculation survived:
                            // overlap is paying here, keep (or resume)
                            // the full wavefront.
                            stale_run = 0;
                            if !speculating {
                                speculating = true;
                                let mut st = lock_state(&state);
                                st.paused = false;
                                drop(st);
                                work.notify_all();
                            }
                        }
                        if route_trace::enabled() {
                            route_trace::count(route_trace::Counter::ConflictAccepts, 1);
                        }
                        tree
                    }
                    Claim::Inline => {
                        // Inline route at the live commit frontier: no
                        // read set, no freshness check — nothing can
                        // commit while the committer itself is routing.
                        // The overlay keeps this net's pin masks private
                        // to the committer while workers read the shared
                        // graph underneath.
                        let mut g = GraphOverlay::bind(&cview, &mut committer_arena);
                        let result = router.route_net(&mut g, circuit, ni, critical);
                        match result {
                            Err(e) => {
                                verdict = Err(e);
                                break 'nets;
                            }
                            Ok(None) => {
                                verdict = Ok(Some(ni));
                                break 'nets;
                            }
                            Ok(Some(tree)) => tree,
                        }
                    }
                    Claim::Exclusive => {
                        // The gate is up and nothing is in flight, so no
                        // thread observes the graph until it reopens:
                        // route directly on the writer, exactly as the
                        // sequential engine would — masks land on the
                        // shared graph and are restored before anyone
                        // can look. This is the zero-overhead path.
                        let result = router.route_net(&mut writer, circuit, ni, critical);
                        {
                            let mut st = lock_state(&state);
                            st.gate = false;
                        }
                        // Reopen before the commit below: commit
                        // mutations are the ordinary, changed-set-
                        // recorded kind workers may race with. While
                        // speculation is suspended the wakeup is skipped
                        // — parked workers stay parked.
                        if speculating {
                            work.notify_all();
                        }
                        match result {
                            Err(e) => {
                                verdict = Err(e);
                                break 'nets;
                            }
                            Ok(None) => {
                                verdict = Ok(Some(ni));
                                break 'nets;
                            }
                            Ok(Some(tree)) => tree,
                        }
                    }
                };
                let mut changed: HashSet<NodeId> = HashSet::new();
                if let Err(e) =
                    router.commit(&mut writer, &mut usage, w, &tree, Some(&mut changed))
                {
                    verdict = Err(e);
                    break 'nets;
                }
                // Publish *after* the commit's mutations so a worker that
                // Acquire-reads pos + 1 observes all of them.
                writer.publish((pos + 1) as u64);
                let pristine = match RoutingTree::from_edges(device.graph(), tree.edges().to_vec())
                {
                    Ok(t) => t,
                    Err(e) => {
                        verdict = Err(e.into());
                        break 'nets;
                    }
                };
                trees[ni] = Some(pristine);
                changed_log.push(changed);
                // Release the nets this commit was gating — stealable
                // immediately, while we move on to the next position.
                let mut st = lock_state(&state);
                for &succ in &successors[pos] {
                    preds[succ] -= 1;
                    if preds[succ] == 0 {
                        st.locals[rr % workers].push_back(succ);
                        rr += 1;
                    }
                }
                // Probe windows keep a suspended scheduler honest: wake
                // the workers every `spec_probe_period` commits and let
                // their speculations prove (or disprove) that overlap
                // pays now. `stale_run` stays at its threshold, so the
                // first stale result of the window re-arms the pause
                // while a fresh ahead acceptance lifts it for good.
                let probe = !solo && !speculating && (pos + 1) % probe_period == 0;
                if probe {
                    st.paused = false;
                }
                drop(st);
                if speculating || probe {
                    work.notify_all();
                }
                continue 'nets;
            }
        }

        // Shut the workers down (success, failure, and error alike); the
        // scope joins them on exit.
        let mut st = lock_state(&state);
        st.done = true;
        timing.steals = usize::try_from(st.steals).unwrap_or(usize::MAX);
        timing.stalls = usize::try_from(st.stalls).unwrap_or(usize::MAX);
        drop(st);
        work.notify_all();
        verdict
    })?;

    if route_trace::enabled() && timing.stalls > 0 {
        route_trace::count(route_trace::Counter::SchedStalls, timing.stalls as u64);
    }
    if let Some(started) = pass_started {
        // The committer's timeline row: commit-chain occupancy for the
        // whole pass, with the committed-net count and the pass-wide
        // steal/stall totals (workers report their own shares above).
        route_trace::record_timeline(route_trace::TimelineRecord {
            pass,
            worker: workers,
            role: "committer",
            busy_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            nets: trees.iter().filter(|t| t.is_some()).count(),
            steals: timing.steals,
            stalls: timing.stalls,
        });
        route_trace::set_gauge(route_trace::Gauge::SchedWorkers, workers as u64);
    }
    timing.congestion = CongestionSnapshot::from_usage(0, w as usize, &usage);
    match failed {
        None => Ok((
            PassResult::Complete(router.finalize(circuit, trees)?),
            timing,
        )),
        Some(ni) => Ok((PassResult::Failed(ni), timing)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(r0: usize, r1: usize, c0: usize, c1: usize) -> NetBox {
        NetBox { r0, r1, c0, c1 }
    }

    #[test]
    fn interaction_gap_counts_the_slack_once() {
        // candidate_margin = 1: each net's footprint/region reaches past
        // its raw box, but the shared slack ring is one ring, not two.
        assert_eq!(interaction_gap(0), 1);
        assert_eq!(interaction_gap(1), 3);
        assert_eq!(interaction_gap(2), 5);
    }

    #[test]
    fn boxes_interact_exactly_up_to_the_gap() {
        let a = boxed(0, 0, 0, 0);
        for gap in 0..4usize {
            // b exactly `gap` rows past a's edge: still interacting.
            let at_gap = boxed(gap, gap, 0, 0);
            assert!(a.interacts(&at_gap, gap), "distance {gap} at gap {gap}");
            // One row further: independent.
            let beyond = boxed(gap + 1, gap + 1, 0, 0);
            assert!(
                !a.interacts(&beyond, gap),
                "distance {} at gap {gap}",
                gap + 1
            );
        }
    }

    #[test]
    fn the_old_double_margin_was_denser() {
        // Two single-block nets 4 rows apart, candidate_margin = 1. The
        // old predicate expanded both boxes by margin + slack = 2 before
        // testing overlap, so they were declared dependent. The tight
        // gap 2·1 + 1 = 3 keeps them independent.
        let a = boxed(0, 0, 0, 0);
        let b = boxed(4, 4, 0, 0);
        let expand = 1 + REGION_SLACK;
        let old_overlap = a.r0 <= b.r1 + expand + expand && b.r0 <= a.r1 + expand + expand;
        assert!(old_overlap, "the double-counted predicate links them");
        assert!(
            !a.interacts(&b, interaction_gap(1)),
            "the tight predicate keeps them independent"
        );
    }

    #[test]
    fn interaction_is_symmetric() {
        let a = boxed(0, 2, 0, 2);
        let b = boxed(4, 6, 1, 3);
        for gap in 0..4 {
            assert_eq!(a.interacts(&b, gap), b.interacts(&a, gap), "gap {gap}");
        }
    }

    #[test]
    fn column_separation_also_gates_interaction() {
        let a = boxed(0, 0, 0, 0);
        let b = boxed(0, 0, 4, 4);
        assert!(a.interacts(&b, 4));
        assert!(!a.interacts(&b, 3));
    }

    #[test]
    fn overlapping_boxes_always_interact() {
        let a = boxed(0, 3, 0, 3);
        let b = boxed(2, 5, 1, 4);
        assert!(a.interacts(&b, 0));
    }
}
