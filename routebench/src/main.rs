//! Router benchmark: three seeded workloads over the paper's Table 5
//! circuits, timed end to end through the public `fpga_device` API, with
//! every outcome audited, and a separate traced run per workload for the
//! per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path routebench/Cargo.toml -- \
//!     --workload ripup_fixed --seed 1995 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics under `--trace 0` and the per-layer metrics
//! under `--trace 1`. `attempted` counts circuit routings (or width
//! searches); `failed` counts those that errored or failed the audit.

#![forbid(unsafe_code)]

mod audit;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::time::Duration;

use fpga_device::synth::{synthesize, xc4000_profiles, CircuitProfile};
use fpga_device::width::{minimum_channel_width, WidthSearch};
use fpga_device::{
    ArchSpec, Circuit, Device, FpgaError, RouteMode, RouteOutcome, Router, RouterConfig,
};
use route_graph::EdgeId;
use route_trace::{Collector, Counter, Metric, Trace};

use stats::{median, now, ratio, secs_since};

/// The CLI's default synthesis seed.
const DEFAULT_SEED: u64 = 1995;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 5;
/// Channel widths the width search probes.
const WIDTH_RANGE: std::ops::RangeInclusive<usize> = 3..=24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Rip-up IKMB, one thread, all nine Table 5 circuits at W=12.
    RipupFixed,
    /// Selective PathFinder on every core, four circuits at W=9.
    PfSelective,
    /// Rip-up binary width search over 3..=24 with 10 passes per probe.
    WidthSearch,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::RipupFixed,
        Workload::PfSelective,
        Workload::WidthSearch,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RipupFixed => "ripup_fixed",
            Workload::PfSelective => "pf_selective",
            Workload::WidthSearch => "width_search",
        }
    }

    fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::RipupFixed => &[
                "alu4",
                "apex7",
                "term1",
                "example2",
                "too_large",
                "k2",
                "vda",
                "9symml",
                "alu2",
            ],
            Workload::PfSelective => &["9symml", "term1", "apex7", "alu2"],
            Workload::WidthSearch => &["9symml", "term1", "apex7"],
        }
    }

    /// Circuits synthesized per profile. Instance 0 uses the run's seed;
    /// the others use seeds derived from it. Routing time varies a lot
    /// between synthesized instances of one profile (a width search by up
    /// to 2x), so each run averages over several instances, about 30 s of
    /// work, and its figures describe the workload, not one draw of it.
    fn instances(self) -> u64 {
        match self {
            Workload::RipupFixed => 2,
            Workload::PfSelective | Workload::WidthSearch => 3,
        }
    }

    /// The fixed channel width, or the top of the search range (the
    /// width whose device the set-up builds) for the width search.
    fn width(self) -> usize {
        match self {
            Workload::RipupFixed => 12,
            Workload::PfSelective => 9,
            Workload::WidthSearch => *WIDTH_RANGE.end(),
        }
    }

    fn config(self, threads: usize) -> RouterConfig {
        let base = RouterConfig::default();
        match self {
            Workload::RipupFixed => RouterConfig { threads: 1, ..base },
            Workload::PfSelective => RouterConfig {
                mode: RouteMode::Pathfinder,
                pf_selective: true,
                threads,
                ..base
            },
            Workload::WidthSearch => RouterConfig {
                threads: 1,
                max_passes: 10,
                ..base
            },
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let workload = match flags.get("--workload") {
        None => return Err("--workload is required".to_string()),
        Some(name) => Workload::ALL
            .into_iter()
            .find(|w| w.name() == *name)
            .ok_or(format!(
            "unknown workload {name:?} (expected one of ripup_fixed, pf_selective, width_search)"
        ))?,
    };
    let number = |key: &str, default: u64| -> Result<u64, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse::<u64>()
                .map_err(|e| format!("{key} {v:?} is not a non-negative integer: {e}"))
        })
    };
    let seed = number("--seed", DEFAULT_SEED)?;
    let seconds = number("--seconds", 30)?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=3600"));
    }
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One circuit of a workload, ready to route.
struct Case {
    /// The profile name, with `#j` for derived instance `j`.
    label: String,
    profile: CircuitProfile,
    circuit: Circuit,
    /// Device at the workload's width.
    device: Device,
}

impl Case {
    fn base_arch(&self) -> ArchSpec {
        ArchSpec::xilinx4000(self.profile.rows, self.profile.cols, 1)
    }
}

/// What a routing must reproduce exactly on every repeat: the channel
/// width and each net's edge set.
type Fingerprint = (usize, Vec<Vec<EdgeId>>);

fn fingerprint(width: usize, outcome: &RouteOutcome) -> Fingerprint {
    let trees = outcome
        .trees
        .iter()
        .map(|t| {
            let mut e = t.edges().to_vec();
            e.sort_unstable();
            e
        })
        .collect();
    (width, trees)
}

/// The result of routing one case: its channel width and outcome.
struct Routed {
    width: usize,
    outcome: RouteOutcome,
}

/// Routes one case the way its workload does, with `threads` for the
/// PathFinder route phase. `probe` sees each width-search probe's
/// architecture, duration and result.
fn route_case(
    workload: Workload,
    case: &Case,
    threads: usize,
    mut probe: impl FnMut(ArchSpec, Duration, &Result<RouteOutcome, FpgaError>),
) -> Result<Routed, FpgaError> {
    let config = workload.config(threads);
    match workload {
        Workload::RipupFixed | Workload::PfSelective => {
            let outcome = Router::new(&case.device, config).route(&case.circuit)?;
            Ok(Routed {
                width: workload.width(),
                outcome,
            })
        }
        Workload::WidthSearch => {
            let found = minimum_channel_width(
                case.base_arch(),
                WIDTH_RANGE,
                WidthSearch::Binary,
                |device| {
                    let started = now();
                    let r = Router::new(device, config.clone()).route(&case.circuit);
                    probe(*device.arch(), now().duration_since(started), &r);
                    r
                },
            )?;
            Ok(Routed {
                width: found.channel_width,
                outcome: found.outcome,
            })
        }
    }
}

/// Checks a routing with the outside audit, on a device rebuilt at the
/// routed width when it differs from the case's own.
fn audit_routed(case: &Case, routed: &Routed) -> Result<(), String> {
    if routed.width == case.device.arch().channel_width {
        return audit::audit(&case.device, &case.circuit, &routed.outcome);
    }
    let device = Device::new(case.base_arch().with_channel_width(routed.width))
        .map_err(|e| format!("rebuilding the W={} device: {e}", routed.width))?;
    audit::audit(&device, &case.circuit, &routed.outcome)
}

/// The synthesis seed of instance `j` of a run seeded with `seed`:
/// `seed` itself for instance 0, then steps of the 64-bit golden ratio,
/// so runs with different seeds never share an instance.
fn instance_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Synthesizes `instances` of each of the workload's circuits and builds
/// their devices `SETUP_REPEATS` times; returns the last cases plus the
/// median total set-up time and the median time spent in `Device::new`.
fn setup(workload: Workload, seed: u64, instances: u64) -> Result<(Vec<Case>, f64, f64), String> {
    let profiles = xc4000_profiles();
    let mut totals = Vec::new();
    let mut device_builds = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = now();
        let mut device_time = Duration::ZERO;
        cases.clear();
        for (&name, j) in workload
            .circuits()
            .iter()
            .flat_map(|n| (0..instances).map(move |j| (n, j)))
        {
            let profile = *profiles
                .iter()
                .find(|p| p.name == name)
                .ok_or(format!("{name} is not a Table 5 circuit"))?;
            let label = if j == 0 {
                name.to_string()
            } else {
                format!("{name}#{j}")
            };
            let circuit = synthesize(&profile, 2, instance_seed(seed, j))
                .map_err(|e| format!("synthesizing {label}: {e}"))?;
            let arch = ArchSpec::xilinx4000(profile.rows, profile.cols, workload.width());
            let device = stats::timed(&mut device_time, || Device::new(arch))
                .map_err(|e| format!("building the {label} device: {e}"))?;
            circuit
                .validate_against(device.arch())
                .map_err(|e| format!("{label} does not fit its device: {e}"))?;
            cases.push(Case {
                label,
                profile,
                circuit,
                device,
            });
        }
        totals.push(secs_since(started));
        device_builds.push(device_time.as_secs_f64());
    }
    let med = |v: &[f64]| median(v).ok_or("no set-up samples".to_string());
    Ok((cases, med(&totals)?, med(&device_builds)?))
}

/// Tallies of one run: routings attempted and failed, with reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one routing; returns it when it routed and passed the audit.
    fn check(&mut self, case: &Case, result: Result<Routed, FpgaError>) -> Option<Routed> {
        self.attempted += 1;
        let name = &case.label;
        let verdict = result.map_err(|e| format!("{name}: {e}")).and_then(|r| {
            audit_routed(case, &r)
                .map(|()| r)
                .map_err(|e| format!("{name}: audit: {e}"))
        });
        match verdict {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
                None
            }
        }
    }

    /// Records a determinism or replay mismatch (not a failed routing).
    fn mismatch(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// A metric value with its unit, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Timed, untraced repeats of the workload until `seconds` is used up
/// (at least one), after a determinism gate, with the audit on every
/// routing and every repeat compared with the first.
fn run_end_to_end(args: &Args) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let (cases, setup_s, _) = setup(w, args.seed, w.instances())?;
    let threads = available_threads();
    let mut tally = Tally::default();
    // times[c][r]: seconds to route case c in repeat r.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut reference: Vec<Option<Fingerprint>> = vec![None; cases.len()];
    let mut quality: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); cases.len()];
    // Determinism gate before timing: the smallest case is routed once,
    // untimed, and its first timed routing must reproduce it exactly.
    let gate = (0..cases.len())
        .min_by_key(|&c| cases[c].circuit.net_count())
        .unwrap_or(0);
    let gate_fp = tally
        .check(
            &cases[gate],
            route_case(w, &cases[gate], threads, |_, _, _| {}),
        )
        .map(|r| fingerprint(r.width, &r.outcome));
    let started = now();
    let mut reps = 0usize;
    loop {
        let mut rep_time = 0.0;
        for (c, case) in cases.iter().enumerate() {
            let t0 = now();
            let result = route_case(w, case, threads, |_, _, _| {});
            let t = secs_since(t0);
            let Some(routed) = tally.check(case, result) else {
                continue;
            };
            // The time counts only once the audit passed.
            times[c].push(t);
            rep_time += t;
            let fp = fingerprint(routed.width, &routed.outcome);
            match &reference[c] {
                None => {
                    if c == gate && gate_fp.as_ref() != Some(&fp) {
                        tally.mismatch(format!(
                            "{}: timed routing differs from the untimed gate routing",
                            case.label
                        ));
                    }
                    eprintln!(
                        "{}: {} routed at W={} in {} pass(es), {t:.3} s",
                        w.name(),
                        case.label,
                        routed.width,
                        routed.outcome.passes
                    );
                    quality[c] = (
                        units(routed.outcome.total_wirelength.as_milli()),
                        units(routed.outcome.total_max_pathlength().as_milli()),
                        routed.width as f64,
                    );
                    reference[c] = Some(fp);
                }
                Some(r) if *r != fp => tally.mismatch(format!(
                    "{}: repeat {} differs from repeat 1",
                    case.label,
                    reps + 1
                )),
                Some(_) => {}
            }
        }
        reps += 1;
        eprintln!(
            "{}: repeat {reps} routed the list in {rep_time:.3} s",
            w.name()
        );
        let elapsed = secs_since(started);
        if elapsed + elapsed / reps as f64 > args.seconds as f64 {
            break;
        }
    }
    // Sum of per-circuit medians: one slow repeat of one circuit does not
    // move the figure the way a slow whole-list repeat would.
    let wall_s: f64 = times.iter().filter_map(|t| median(t)).sum();
    let rep_totals: Vec<f64> = (0..reps)
        .map(|r| times.iter().filter_map(|t| t.get(r)).sum())
        .collect();
    if let Some((q1, q3)) = stats::quartiles(&rep_totals) {
        eprintln!(
            "{}: {reps} repeats, list time quartiles {q1:.3} s .. {q3:.3} s",
            w.name()
        );
    }
    let nets: usize = cases.iter().map(|c| c.circuit.net_count()).sum();
    let (wirelength, pathlength, width) = quality
        .iter()
        .fold((0.0, 0.0, 0.0), |a, q| (a.0 + q.0, a.1 + q.1, a.2 + q.2));
    let metrics = vec![
        ("wall_s", wall_s, "s"),
        ("setup_s", setup_s, "s"),
        ("nets_per_s", ratio(nets as f64, wall_s), "1/s"),
        ("wirelength", wirelength, "units"),
        ("pathlength", pathlength, "units"),
        ("channel_width", width, "tracks"),
        ("peak_rss_mb", stats::peak_rss_mb()?, "MiB"),
    ];
    Ok((tally, metrics))
}

fn units(milli: u64) -> f64 {
    milli as f64 / 1000.0
}

/// Routes every case once untraced and returns the fingerprints and the
/// summed wall time.
fn route_all(
    w: Workload,
    cases: &[Case],
    threads: usize,
    tally: &mut Tally,
) -> (Vec<Option<Fingerprint>>, f64) {
    let mut wall = 0.0;
    let fps = cases
        .iter()
        .map(|case| {
            let t0 = now();
            let result = route_case(w, case, threads, |_, _, _| {});
            wall += secs_since(t0);
            tally
                .check(case, result)
                .map(|r| fingerprint(r.width, &r.outcome))
        })
        .collect();
    (fps, wall)
}

/// Width-search probe tallies, filled from the benchmark's own closure.
#[derive(Default)]
struct Probes {
    count: u64,
    failed: u64,
    passes: u64,
    ok: Duration,
    failed_time: Duration,
    /// The architecture of every probe, to time its device build later.
    archs: Vec<ArchSpec>,
}

impl Probes {
    fn record(&mut self, arch: ArchSpec, t: Duration, r: &Result<RouteOutcome, FpgaError>) {
        self.count += 1;
        self.archs.push(arch);
        match r {
            Ok(o) => {
                self.passes += o.passes as u64;
                self.ok += t;
            }
            Err(e) => {
                self.failed += 1;
                self.failed_time += t;
                if let FpgaError::Unroutable { passes, .. } = e {
                    self.passes += *passes as u64;
                }
            }
        }
    }
}

/// Routes every case under a trace collector with `threads`, checking
/// each against the untraced fingerprints; returns the trace, the traced
/// wall time, and the width-search probe tallies.
fn route_traced(
    w: Workload,
    cases: &[Case],
    threads: usize,
    untraced: &[Option<Fingerprint>],
    tally: &mut Tally,
    label: &str,
) -> (Trace, f64, Probes) {
    let mut probes = Probes::default();
    let collector = Collector::install();
    let mut wall = 0.0;
    for (case, want) in cases.iter().zip(untraced) {
        let t0 = now();
        let result = route_case(w, case, threads, |a, t, r| probes.record(a, t, r));
        wall += secs_since(t0);
        if let Some(r) = tally.check(case, result) {
            if want.as_ref() != Some(&fingerprint(r.width, &r.outcome)) {
                tally.mismatch(format!(
                    "{}: {label} routing differs from the untraced one",
                    case.label
                ));
            }
        }
    }
    (collector.finish(), wall, probes)
}

/// The traced run: untraced reference routings, a traced routing for the
/// work counts, and (rip-up) the outside replay for the layer times. It
/// covers instance 0 only, the circuits synthesized from the seed itself:
/// per-layer figures need no averaging, and this keeps the run short.
fn run_traced(args: &Args) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let (cases, _, device_build_s) = setup(w, args.seed, 1)?;
    let threads = available_threads();
    let mut tally = Tally::default();
    let (reference, wall) = route_all(w, &cases, threads, &mut tally);
    // PathFinder is traced on one thread so summed per-net times are a
    // share of wall time; its trees must equal the multi-threaded ones.
    let (traced_threads, base_wall) = match w {
        Workload::PfSelective => (1, route_all(w, &cases, 1, &mut tally).1),
        _ => (threads, wall),
    };
    let (trace, traced_wall, probes) =
        route_traced(w, &cases, traced_threads, &reference, &mut tally, "traced");
    let c = |k: Counter| trace.counters.get(k) as f64;
    let hist_s = |m: Metric| trace.metrics.get(m).sum() as f64 / 1e9;
    let route_phase_s = hist_s(Metric::NetRouteNs);

    let mut layers = replay::Layers::default();
    let mut replay_ratio = 0.0;
    if w == Workload::RipupFixed {
        for (case, want) in cases.iter().zip(&reference) {
            let (trees, l) = replay::replay(&case.device, &case.circuit, &w.config(1))
                .map_err(|e| format!("{}: replay: {e}", case.label))?;
            let trees: Vec<Vec<EdgeId>> = trees
                .into_iter()
                .map(|mut t| {
                    t.sort_unstable();
                    t
                })
                .collect();
            if want.as_ref().map(|f| &f.1) != Some(&trees) {
                tally.mismatch(format!(
                    "{}: replayed trees differ from Router::route",
                    case.label
                ));
            }
            layers.add(&l);
        }
        replay_ratio = ratio(layers.wall.as_secs_f64(), wall);
        // The replay must do the router's work, not merely reach its trees.
        for (what, replayed, traced) in [
            ("floods", layers.floods, Counter::DijkstraRuns),
            (
                "screened candidates",
                layers.screened,
                Counter::SteinerCandidatesEvaluated,
            ),
            (
                "accepted points",
                layers.accepted,
                Counter::SteinerCandidatesAccepted,
            ),
            ("rounds", layers.rounds, Counter::SteinerRounds),
        ] {
            if replayed != trace.counters.get(traced) {
                tally.mismatch(format!(
                    "replay counted {replayed} {what}, the router's trace {}",
                    trace.counters.get(traced)
                ));
            }
        }
    }

    let s = |d: Duration| d.as_secs_f64();
    // Rip-up layer times come from the replay and are shares of its wall
    // time; elsewhere they are shares of the traced routing's wall time.
    let (td_s, denom) = if w == Workload::RipupFixed {
        (s(layers.td), s(layers.wall))
    } else {
        (hist_s(Metric::DijkstraRunNs), traced_wall)
    };
    let cost_update_s = if w == Workload::PfSelective {
        hist_s(Metric::PfIterationNs) - route_phase_s
    } else {
        0.0
    };
    let (device_s, other_s) = match w {
        Workload::RipupFixed => (device_build_s, s(layers.wall) - s(layers.named())),
        Workload::PfSelective => (device_build_s, traced_wall - route_phase_s - cost_update_s),
        Workload::WidthSearch => {
            // The search builds each probe's device before calling the
            // closure; rebuild the same devices here to time that layer.
            let mut builds = Duration::ZERO;
            for &arch in &probes.archs {
                stats::timed(&mut builds, || Device::new(arch))
                    .map_err(|e| format!("rebuilding a probe device: {e}"))?;
            }
            let probes_s = s(probes.ok + probes.failed_time);
            (s(builds), traced_wall - probes_s - s(builds))
        }
    };
    let nets_rerouted: usize = trace.convergence.iter().map(|r| r.nets_rerouted).sum();
    let metrics = vec![
        ("td.s", td_s, "s"),
        ("td.share", ratio(td_s, denom), "ratio"),
        ("td.floods", c(Counter::DijkstraRuns), "count"),
        ("td.heap_pops", c(Counter::DijkstraHeapPops), "count"),
        ("td.relaxations", c(Counter::DijkstraRelaxations), "count"),
        ("screen.s", s(layers.screen), "s"),
        ("screen.share", ratio(s(layers.screen), denom), "ratio"),
        (
            "screen.calls",
            c(Counter::SteinerCandidatesEvaluated),
            "count",
        ),
        ("verify.s", s(layers.verify), "s"),
        ("verify.share", ratio(s(layers.verify), denom), "ratio"),
        ("verify.calls", layers.verified as f64, "count"),
        (
            "verify.accept_ratio",
            ratio(layers.accepted as f64, layers.verified as f64),
            "ratio",
        ),
        ("build.s", s(layers.build), "s"),
        ("build.share", ratio(s(layers.build), denom), "ratio"),
        ("igmst.rounds", c(Counter::SteinerRounds), "count"),
        ("commit.s", s(layers.commit), "s"),
        ("commit.share", ratio(s(layers.commit), denom), "ratio"),
        ("mask.s", s(layers.mask), "s"),
        ("mask.share", ratio(s(layers.mask), denom), "ratio"),
        ("pf.iterations", c(Counter::PathfinderIterations), "count"),
        ("pf.nets_rerouted", nets_rerouted as f64, "count"),
        ("pf.dirty_nets", c(Counter::PathfinderDirtyNets), "count"),
        (
            "pf.repriced_edges",
            c(Counter::PathfinderRepricedEdges),
            "count",
        ),
        ("route_phase.s", route_phase_s, "s"),
        ("cost_update.s", cost_update_s, "s"),
        ("cost_update.share", ratio(cost_update_s, denom), "ratio"),
        ("probe.count", probes.count as f64, "count"),
        ("probe.failed", probes.failed as f64, "count"),
        ("probe.passes", probes.passes as f64, "count"),
        ("probe.failed_s", s(probes.failed_time), "s"),
        ("probe.ok_s", s(probes.ok), "s"),
        ("device.build_s", device_s, "s"),
        ("other.s", other_s, "s"),
        ("replay.ratio", replay_ratio, "ratio"),
        (
            "trace.overhead",
            ratio(traced_wall, base_wall) - 1.0,
            "ratio",
        ),
    ];
    if w == Workload::RipupFixed {
        eprintln!(
            "{}: named layers cover {:.1}% of the replay's {:.3} s",
            w.name(),
            100.0 * ratio(s(layers.named()), s(layers.wall)),
            s(layers.wall)
        );
    }
    Ok((tally, metrics))
}

fn json_result(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("routebench: {e}");
            eprintln!(
                "usage: routebench --workload <ripup_fixed|pf_selective|width_search> \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        run_traced
    } else {
        run_end_to_end
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for p in &tally.problems {
                eprintln!("routebench: {p}");
            }
            for (name, value, unit) in &metrics {
                println!("{name:<20} {value:>16.6} {unit}");
            }
            println!("{}", json_result(&tally, &metrics));
        }
        Err(e) => {
            eprintln!("routebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload pf_selective --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::PfSelective,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = parse("--workload width_search").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 30, false));
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload ripup_fixed --seed -3",
            "--workload ripup_fixed --seed 1e3",
            "--workload ripup_fixed --seed 99999999999999999999999",
            "--workload ripup_fixed --seconds 0",
            "--workload ripup_fixed --trace 2",
            "--workload ripup_fixed --trace",
            "--workload ripup_fixed --workload ripup_fixed",
            "--workload ripup_fixed --bogus 1",
            "ripup_fixed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 1,
            problems: vec!["x".into()],
        };
        let line = json_result(&tally, &vec![("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
