//! The workloads, the load generators, the correctness oracle and the
//! metrics of one run.

use crate::alloc;
use crate::gen::{
    pipeline, schedule, working_set, Batch, Kind, Planned, Sampler, Segment, Traffic,
};
use crate::spans::{SpanId, Tracer};
use crate::stats::{calibrate, mean, median, percentile, proc_status_mb, tail, tail_quantile};
use crate::Args;
use snap_core::{PhaseTimings, SolverChoice};
use snap_distrib::{
    deploy_in_process_custom, CommitReport, Controller, DeployOptions, DistNetwork, DistribOptions,
    InProcessDeployment, InjectError, InjectOutcome,
};
use snap_lang::{Field, Packet, StateVar, Store, Value};
use snap_session::{CompilerSession, SessionStats};
use snap_telemetry::{CommitEvent, MetricsSnapshot};
use snap_topology::generators::{campus, igen_topology};
use snap_topology::{PortId, Topology, TrafficMatrix};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cores of the two-core layout (see `run`).
const TRAFFIC_CPU: usize = 0;
const CONTROL_CPU: usize = 1;
/// Packets per injected batch.
const BATCH: usize = 64;
/// Per-port egress queue capacity.
const QUEUE_CAPACITY: usize = 4096;
/// Seed of the gravity matrix every set-up starts from (the topology's).
const MATRIX_SEED: u64 = 7;

/// Packets of the campus sequence replayed through the reference
/// interpreter (it clones the whole store per packet, so keep it bounded).
const ORACLE_PACKETS: usize = 8_192;

/// Batches of the counting prefix (see [`count_prefix`]).
const COUNT_BATCHES: usize = 1_024;

/// One workload: a topology, its egress subnets and its update schedule.
struct Spec {
    topology: fn() -> Topology,
    egress_ports: usize,
    /// Updates run concurrently with traffic (`false`: after it).
    updates_with_traffic: bool,
    /// Replay a prefix through `snap_lang::eval`.
    eval_oracle: bool,
    /// Set-ups before the timed phase (the last one is kept) and after
    /// each traffic window (in child processes, see [`set_up_in_child`]);
    /// `setup_s` and `cold_start_s` are the medians of all of them.
    setups_before: usize,
    setups_per_window: usize,
    /// Traffic windows the timed phase is split into. Spreading campus's
    /// short set-ups and updates across the run samples the host's speed
    /// over all of it, not over one second of it.
    windows: usize,
    /// The update schedule.
    updates: &'static [Segment],
}

use Kind::{Edit as E, Flip as F, Reroute as R};

/// ISP churn, concurrent with traffic, laid out for a 30 s run (other run
/// lengths scale the rounds): 100 working-set flips, then 36 novel edits
/// with a reroute after every third. Each gap is about twice or more its
/// update's cost under traffic, so one slow update delays itself, not the
/// rest of the schedule. The edit gap is that wide because a few updates,
/// at the same indices in every run (the 1st, 7th and 23rd after the
/// flips), prepare for 0.6-0.8 s instead of 0.2 s: with 450 ms gaps each
/// made the next three to eight late, and with 48 edits `edit_ms_tail`
/// (then the 11th largest) fell where that run-dependent backlog ended; it
/// spread by 0.31 over five runs. Flips come first and alone on purpose: a
/// reroute clears the session's version cache (the next flips recompile),
/// and every edit adds a root to each agent's first-in-first-out flatten
/// cache (evicting the working set, so flips re-flatten). Mixed in, either
/// put a varying handful of 50-150 ms flips right where `flip_ms_tail`
/// (the 11th-slowest flip) falls. More flips would push that tail into
/// the host's scheduling hiccups: at 180 flips (p94) it spread by 0.47
/// over ten runs.
const ISP_UPDATES: &[Segment] = &[
    Segment {
        slots: &[(F, 50)],
        rounds: 100,
    },
    Segment {
        slots: &[(E, 600), (E, 600), (E, 600), (R, 200)],
        rounds: 12,
    },
];
const ISP_UPDATES_SECONDS: u64 = 30;

/// The campus updates, in slices between traffic windows, so these clocks
/// are the control plane alone on a quiet network. Campus updates take
/// about a millisecond, so one scheduling hiccup of the host is several
/// times an update, and the first flip after each traffic window is about
/// half again as slow as the rest. Both land in the tail (the 11th
/// largest), and the more flips, the higher its percentile: with 50 flips
/// (p80) `flip_ms_tail` spread by 0.25-0.50 over five runs, with 30 (p66.7)
/// by 0.07. Edits and reroutes alternate: with 10 reroutes (after every
/// third edit) `reroute_ms_p50` spread by 0.09-0.21, with 30 by 0.04-0.12.
const CAMPUS_UPDATES: &[Segment] = &[
    Segment {
        slots: &[(F, 5)],
        rounds: 30,
    },
    Segment {
        slots: &[(E, 40), (R, 10)],
        rounds: 30,
    },
];

fn igen_100() -> Topology {
    igen_topology(100, 7)
}

fn spec(name: &str) -> Result<Spec, String> {
    match name {
        "campus-steady" => Ok(Spec {
            topology: campus,
            egress_ports: 6,
            updates_with_traffic: false,
            eval_oracle: true,
            setups_before: 1,
            setups_per_window: 2,
            windows: 10,
            updates: CAMPUS_UPDATES,
        }),
        "isp-churn" => Ok(Spec {
            topology: igen_100,
            egress_ports: 70,
            updates_with_traffic: true,
            eval_oracle: false,
            setups_before: 3,
            setups_per_window: 0,
            windows: 1,
            updates: ISP_UPDATES,
        }),
        _ => Err(format!(
            "unknown workload {name:?} (campus-steady, isp-churn)"
        )),
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// What one run prints.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    *value
                } else {
                    eprintln!("metric {name} is not a number");
                    correct = false;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failed operations and the first few reasons.
#[derive(Default)]
struct Failures {
    count: u64,
    samples: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.samples.len() < 8 {
            self.samples.push(what());
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The two clocks of one set-up and their split by layer.
#[derive(Clone, Copy)]
struct SetupFigures {
    setup_s: f64,
    cold_start_s: f64,
    topology_ms: f64,
    deploy_ms: f64,
    bootstrap_ms: f64,
    /// Cold compile phases P2 (xFDD), P3 (mapping), P5 (placement) and
    /// P6 (rule generation).
    phases_ms: [f64; 4],
}

impl SetupFigures {
    /// One line of numbers, as a set-up child process prints it. Rust
    /// prints an `f64` with as many digits as it takes to read it back
    /// exactly.
    fn to_line(self) -> String {
        let [p2, p3, p5, p6] = self.phases_ms;
        format!(
            "{} {} {} {} {} {p2} {p3} {p5} {p6}",
            self.setup_s, self.cold_start_s, self.topology_ms, self.deploy_ms, self.bootstrap_ms
        )
    }

    fn from_line(line: &str) -> Option<SetupFigures> {
        let v: Vec<f64> = line
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let [setup_s, cold_start_s, topology_ms, deploy_ms, bootstrap_ms, p2, p3, p5, p6] = v[..]
        else {
            return None;
        };
        Some(SetupFigures {
            setup_s,
            cold_start_s,
            topology_ms,
            deploy_ms,
            bootstrap_ms,
            phases_ms: [p2, p3, p5, p6],
        })
    }
}

/// One deployed workload, warmed up and ready for traffic.
struct Deployed {
    dep: InProcessDeployment,
    topology: Topology,
    traffic: Traffic,
    /// Packets injected per ingress port (the `count[inport]` oracle).
    ledger: BTreeMap<PortId, u64>,
    /// Every packet injected so far, in order (kept only while the
    /// interpreter oracle still needs them).
    history: Option<Vec<(PortId, Packet)>>,
    figures: SetupFigures,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Topology + policy → first packet delivered → working set warmed.
fn set_up(
    spec: &Spec,
    seed: u64,
    keep_history: bool,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Deployed, String> {
    let t0 = Instant::now();
    let span = tracer.open("setup", req, None);
    let topology = (spec.topology)();
    let topology_ms = ms(t0.elapsed());
    // The base matrix is part of the scenario, not of the seeded inputs:
    // it decides placement, and with it every packet's path.
    let matrix = TrafficMatrix::gravity(&topology, crate::gen::TRAFFIC_VOLUME, MATRIX_SEED);
    let session =
        CompilerSession::new(topology.clone(), matrix.clone()).with_solver(SolverChoice::Heuristic);
    let options = DeployOptions {
        distrib: DistribOptions {
            // No auto-compaction (the default, pinned here): the full
            // resync of every agent that follows one would land at a
            // different point of each run.
            compact_threshold: None,
            ..DistribOptions::default()
        },
        ack_delay: None,
    };
    let t = Instant::now();
    let mut dep = deploy_in_process_custom(session, QUEUE_CAPACITY, options);
    let deploy_ms = ms(t.elapsed());
    tracer.record("deploy", req, span, t, Instant::now());

    let ws = working_set(seed);
    let t = Instant::now();
    let bootstrap = dep
        .controller
        .update_policy(&pipeline(ws[0], spec.egress_ports))
        .map_err(|e| format!("bootstrap commit: {e}"))?;
    tracer.record("update_policy", req, span, t, Instant::now());
    // The distribution part of the first commit: every agent resyncs.
    let bootstrap_ms = ms(bootstrap.prepare_time + bootstrap.commit_time);
    let cold = dep
        .controller
        .session()
        .current()
        .ok_or("no compilation after the bootstrap commit")?
        .timings;

    let mut traffic = Traffic::new(Sampler::new(&matrix, spec.egress_ports), seed);
    let probe = traffic.next_batch(1);
    let mut failures = Failures::default();
    let mut ledger = BTreeMap::new();
    let t = Instant::now();
    let results = dep.network.inject_batch(&probe.packets);
    tracer.record("inject_batch", req, span, t, Instant::now());
    check_batch(&dep.network, &probe, &results, &mut ledger, &mut failures);
    if failures.count > 0 {
        return Err(format!("first packet: {}", failures.samples.join("; ")));
    }
    let cold_start_s = t0.elapsed().as_secs_f64();

    // Warm the working set: visit every other threshold once and come
    // back to the bootstrap one, so later flips are version-cache hits.
    for &t in ws[1..].iter().chain(&ws[..1]) {
        dep.controller
            .update_policy(&pipeline(t, spec.egress_ports))
            .map_err(|e| format!("warm-up commit: {e}"))?;
    }
    check_epochs(&dep.controller, &dep.network).map_err(|e| format!("after warm-up: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.close(span);
    Ok(Deployed {
        dep,
        topology,
        traffic,
        ledger,
        history: keep_history.then_some(probe.packets),
        figures: SetupFigures {
            setup_s,
            cold_start_s,
            topology_ms,
            deploy_ms,
            bootstrap_ms,
            phases_ms: [
                ms(cold.xfdd_generation),
                ms(cold.packet_state_mapping),
                ms(cold.optimization),
                ms(cold.rule_generation),
            ],
        },
    })
}

fn check_epochs(controller: &Controller, network: &DistNetwork) -> Result<(), String> {
    let epochs = network.current_epochs();
    let want = BTreeSet::from([controller.epoch()]);
    if epochs == want {
        Ok(())
    } else {
        Err(format!(
            "agents hold epochs {epochs:?}, controller committed {}",
            controller.epoch()
        ))
    }
}

/// The drain half of [`check_batch`]: when it started, how long it took
/// and the `(allocations, bytes)` the calling thread made in it.
struct Drain {
    start: Instant,
    took: Duration,
    allocs: (u64, u64),
}

/// Check one batch's outcomes against the generator's destinations, count
/// the packets into the ledger, then drain the egress ports the batch
/// reached (the external consumer) and check the drained counts.
fn check_batch(
    network: &DistNetwork,
    batch: &Batch,
    results: &[Result<InjectOutcome, InjectError>],
    ledger: &mut BTreeMap<PortId, u64>,
    failures: &mut Failures,
) -> Drain {
    let mut per_port: BTreeMap<PortId, usize> = BTreeMap::new();
    for (((src, _), want), result) in batch.packets.iter().zip(&batch.expected).zip(results) {
        match result {
            Ok(outcome) => {
                *ledger.entry(*src).or_default() += 1;
                let at_port = outcome.delivered.len() == 1
                    && outcome.delivered[0].0 == *want
                    && outcome.delivered[0].1.get(&Field::OutPort)
                        == Some(&Value::Int(want.0 as i64));
                if !at_port {
                    let got: Vec<PortId> = outcome.delivered.iter().map(|(p, _)| *p).collect();
                    failures.add(|| format!("packet for {want:?} delivered at {got:?}"));
                }
                if outcome.backpressure_drops > 0 {
                    failures.add(|| format!("egress tail-drop at {want:?}"));
                }
                for (port, _) in &outcome.delivered {
                    *per_port.entry(*port).or_default() += 1;
                }
            }
            Err(e) => failures.add(|| format!("inject error: {e}")),
        }
    }
    let mut mismatches = Vec::new();
    let a0 = alloc::local();
    let start = Instant::now();
    for (&port, &want) in &per_port {
        let got = network.drain_port(port).len();
        if got != want {
            mismatches.push((port, got, want));
        }
    }
    let took = start.elapsed();
    let a1 = alloc::local();
    for (port, got, want) in mismatches {
        failures.add(|| format!("drained {got} packets at {port:?}, expected {want}"));
    }
    Drain {
        start,
        took,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
    }
}

// ---------------------------------------------------------------------------
// The interpreter oracle
// ---------------------------------------------------------------------------

/// Replay a bounded prefix through `snap_lang::eval` (the language's
/// reference semantics, not the compiler's output) and require the same
/// deliveries and the same final store.
fn eval_oracle(d: &mut Deployed, spec: &Spec, seed: u64) -> Result<(), String> {
    let policy = pipeline(working_set(seed)[0], spec.egress_ports);
    let mut history = d.history.take().ok_or("oracle needs the packet history")?;
    let mut delivered: Vec<BTreeSet<Packet>> = Vec::new();
    // The probe packet went through during set-up; its delivery was
    // checked there and its output is recomputed below from the history.
    let mut failures = Failures::default();
    let probe_outputs = history.len();
    while history.len() < ORACLE_PACKETS {
        let batch = d.traffic.next_batch(BATCH);
        let results = d.dep.network.inject_batch(&batch.packets);
        for r in &results {
            if let Ok(outcome) = r {
                delivered.push(outcome.delivered.iter().map(|(_, p)| p.clone()).collect());
            } else {
                delivered.push(BTreeSet::new());
            }
        }
        check_batch(
            &d.dep.network,
            &batch,
            &results,
            &mut d.ledger,
            &mut failures,
        );
        history.extend(batch.packets);
    }
    if failures.count > 0 {
        return Err(format!("oracle prefix: {}", failures.samples.join("; ")));
    }
    let mut store = Store::new();
    for (i, (_, pkt)) in history.iter().enumerate() {
        let result = snap_lang::eval(&policy, &store, pkt).map_err(|e| format!("eval: {e:?}"))?;
        if i >= probe_outputs && result.packets != delivered[i - probe_outputs] {
            return Err(format!(
                "packet {i}: interpreter emits {:?}, data plane delivered {:?}",
                result.packets,
                delivered[i - probe_outputs]
            ));
        }
        store = result.store;
    }
    let plane = d.dep.network.aggregate_store();
    let vars: BTreeSet<&StateVar> = store.variables().chain(plane.variables()).collect();
    for var in vars {
        if !store.var_eq(&plane, var) {
            return Err(format!(
                "state {} differs from the interpreter after {} packets",
                var.name(),
                history.len()
            ));
        }
    }
    eprintln!(
        "oracle: {} packets and {} state variables match snap_lang::eval",
        history.len(),
        store.variables().count()
    );
    Ok(())
}

/// `count[inport]` in the aggregated store must equal the injected-per-port
/// ledger once every writer has stopped.
fn check_ledger(network: &DistNetwork, ledger: &BTreeMap<PortId, u64>) -> Result<(), String> {
    let store = network.aggregate_store();
    let var = StateVar::new("count");
    let table = store
        .table(&var)
        .ok_or("no count table in the aggregated store")?;
    let mut counted: BTreeMap<i64, i64> = BTreeMap::new();
    for (index, value) in table.iter() {
        if let ([Value::Int(port)], Value::Int(n)) = (index.as_slice(), value) {
            counted.insert(*port, *n);
        } else {
            return Err(format!("unexpected count entry {index:?} = {value:?}"));
        }
    }
    let expected: BTreeMap<i64, i64> = ledger
        .iter()
        .map(|(p, n)| (p.0 as i64, *n as i64))
        .collect();
    if counted == expected {
        Ok(())
    } else {
        Err(format!(
            "count[inport] {counted:?} differs from the injected ledger {expected:?}"
        ))
    }
}

// ---------------------------------------------------------------------------
// The counting prefix
// ---------------------------------------------------------------------------

/// What the data plane and the allocator did for the counting prefix.
struct PrefixCounts {
    packets: u64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    allocs: u64,
    alloc_bytes: u64,
}

/// Inject [`COUNT_BATCHES`] batches before anything is timed, from a thread
/// counted like the traffic thread, checking each like the traffic loop
/// does. Nothing else runs meanwhile, so for one seed the per-packet counts
/// taken over this fixed packet sequence repeat exactly; over the timed
/// phase, whose packet count follows the host's speed, they do not.
fn count_prefix(d: &mut Deployed, pin: bool, failures: &mut Failures) -> PrefixCounts {
    let network = &d.dep.network;
    let before = network.metrics_snapshot();
    let (traffic, ledger) = (&mut d.traffic, &mut d.ledger);
    let (allocs, alloc_bytes) = std::thread::scope(|scope| {
        scope
            .spawn(move || {
                alloc::mark_traffic_thread();
                if pin {
                    alloc::pin_current_thread(TRAFFIC_CPU);
                }
                let mut total = (0, 0);
                for _ in 0..COUNT_BATCHES {
                    let batch = traffic.next_batch(BATCH);
                    let a0 = alloc::local();
                    let results = network.inject_batch(&batch.packets);
                    let a1 = alloc::local();
                    let drain = check_batch(network, &batch, &results, ledger, failures);
                    total.0 += a1.0 - a0.0 + drain.allocs.0;
                    total.1 += a1.1 - a0.1 + drain.allocs.1;
                }
                total
            })
            .join()
            .expect("counting thread panicked")
    });
    PrefixCounts {
        packets: (COUNT_BATCHES * BATCH) as u64,
        before,
        after: network.metrics_snapshot(),
        allocs,
        alloc_bytes,
    }
}

// ---------------------------------------------------------------------------
// The traffic loop (closed loop, one thread)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct TrafficOut {
    packets: u64,
    batches: u64,
    /// Per-batch inject latency (ns) of batches through the deployment's
    /// own plane.
    batch_ns: Vec<u64>,
    /// Σ inject + drain time (s).
    busy_s: f64,
    drain: Duration,
    failures: Failures,
    /// Traced run only: inject latency split by plane and by tracing.
    telemetry_ns: Vec<u64>,
    bare_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    untraced_ns: Vec<u64>,
}

/// Marks the update phase done when dropped.
struct DoneOnDrop<'a>(&'a AtomicBool);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

struct TrafficCtx<'a> {
    network: &'a DistNetwork,
    /// Traced run only: the same agents behind a plane without telemetry.
    bare: Option<&'a DistNetwork>,
    deadline: Instant,
    updates_done: &'a AtomicBool,
    /// Run on [`TRAFFIC_CPU`] alone.
    pin: bool,
}

/// One traffic window; adds to `out`.
fn traffic_loop(
    ctx: &TrafficCtx<'_>,
    traffic: &mut Traffic,
    ledger: &mut BTreeMap<PortId, u64>,
    tracer: &mut Tracer,
    out: &mut TrafficOut,
) {
    alloc::mark_traffic_thread();
    if ctx.pin {
        alloc::pin_current_thread(TRAFFIC_CPU);
    }
    let mut busy = Duration::ZERO;
    loop {
        if Instant::now() >= ctx.deadline && ctx.updates_done.load(Ordering::Acquire) {
            break;
        }
        let batch = traffic.next_batch(BATCH);
        let i = out.batches;
        // Traced run: alternate planes every batch and tracing every two,
        // so both overheads come from interleaved batches.
        let (plane, telemetry, traced) = match ctx.bare {
            Some(bare) if i % 2 == 1 => (bare, false, (i / 2).is_multiple_of(2)),
            Some(_) => (ctx.network, true, (i / 2).is_multiple_of(2)),
            None => (ctx.network, true, false),
        };
        let t = Instant::now();
        let span = if traced {
            tracer.open("inject_batch", i, None)
        } else {
            None
        };
        let results = plane.inject_batch(&batch.packets);
        tracer.close(span);
        let dt = t.elapsed();

        let drain = check_batch(plane, &batch, &results, ledger, &mut out.failures);
        if traced {
            tracer.record("drain_port", i, None, drain.start, drain.start + drain.took);
        }
        out.drain += drain.took;
        busy += dt + drain.took;
        out.packets += batch.packets.len() as u64;
        out.batches += 1;
        let ns = dt.as_nanos() as u64;
        if telemetry {
            out.batch_ns.push(ns);
        }
        if ctx.bare.is_some() {
            if telemetry {
                out.telemetry_ns.push(ns);
            } else {
                out.bare_ns.push(ns);
            }
            if traced {
                out.traced_ns.push(ns);
            } else {
                out.untraced_ns.push(ns);
            }
        }
    }
    out.busy_s += busy.as_secs_f64();
}

// ---------------------------------------------------------------------------
// The update loop (open loop, one thread)
// ---------------------------------------------------------------------------

struct UpdateRec {
    kind: Kind,
    /// Due → call start.
    late_ms: f64,
    /// Due → `current_epochs()` is the single new epoch.
    effect_ms: f64,
    /// The call alone.
    call_ms: f64,
    report: Option<CommitReport>,
    timings: Option<PhaseTimings>,
    stats_delta: [u64; 4],
    allocs: u64,
}

fn stats_vector(s: &SessionStats) -> [u64; 4] {
    [
        s.subtree_hits,
        s.subtree_misses,
        s.version_hits,
        s.placement_reuses,
    ]
}

const STAT_NAMES: [&str; 4] = [
    "subtree_hits",
    "subtree_misses",
    "version_hits",
    "placement_reuses",
];

enum Input {
    Policy(snap_lang::Policy),
    Traffic(TrafficMatrix),
}

fn update_loop(
    controller: &mut Controller,
    network: &DistNetwork,
    plan: &[Planned],
    first_index: usize,
    egress_ports: usize,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Vec<UpdateRec> {
    let start = Instant::now();
    let origin = plan.first().map_or(Duration::ZERO, |u| u.due);
    let mut recs = Vec::with_capacity(plan.len());
    for (i, u) in (first_index..).zip(plan) {
        // The input is made before it is due, as an operator's would be.
        let input = match u.kind {
            Kind::Reroute => Input::Traffic(TrafficMatrix::gravity(
                network.topology(),
                crate::gen::TRAFFIC_VOLUME,
                u.traffic_seed,
            )),
            Kind::Flip | Kind::Edit => Input::Policy(pipeline(u.threshold, egress_ports)),
        };
        let due = start + (u.due - origin);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        let s0 = stats_vector(&controller.session().stats());
        let a0 = alloc::shared();
        let result = match input {
            Input::Policy(p) => controller.update_policy(&p).map_err(|e| e.to_string()),
            Input::Traffic(m) => match controller.update_traffic(m) {
                Ok(Some(report)) => Ok(report),
                Ok(None) => Err("update_traffic before any compile".to_string()),
                Err(e) => Err(e.to_string()),
            },
        };
        let returned = Instant::now();
        let a1 = alloc::shared();
        let s1 = stats_vector(&controller.session().stats());
        let epochs = check_epochs(controller, network);
        let effect = Instant::now();

        let req = i as u64;
        let top = tracer.record("update", req, None, due, effect);
        tracer.record("late", req, top, due.min(begin), begin);
        let call_name = match u.kind {
            Kind::Reroute => "update_traffic",
            _ => "update_policy",
        };
        let call = tracer.record(call_name, req, top, begin, returned);
        if let Ok(report) = &result {
            record_call_parts(tracer, req, call, begin, returned, report);
        }
        tracer.record("current_epochs", req, top, returned, effect);

        let mut ok = true;
        if let Err(e) = &result {
            failures.add(|| format!("update {i} ({}): {e}", u.kind.label()));
            ok = false;
        }
        if let (true, Err(e)) = (ok, &epochs) {
            failures.add(|| format!("update {i} ({}): {e}", u.kind.label()));
        }
        let timings = controller.session().current().map(|c| c.timings);
        recs.push(UpdateRec {
            kind: u.kind,
            late_ms: ms(begin.saturating_duration_since(due)),
            effect_ms: ms(effect - due),
            call_ms: ms(returned - begin),
            report: result.ok(),
            timings,
            stats_delta: std::array::from_fn(|k| s1[k] - s0[k]),
            allocs: a1.0 - a0.0,
        });
    }
    recs
}

/// Child intervals of an update call rebuilt from its [`CommitReport`]:
/// the session-local part (compile, pool import, delta encode) first, then
/// the prepare phase, then the commit phase, which ends the call.
fn record_call_parts(
    tracer: &mut Tracer,
    req: u64,
    call: SpanId,
    begin: Instant,
    end: Instant,
    report: &CommitReport,
) {
    let commit_start = end
        .checked_sub(report.commit_time)
        .unwrap_or(begin)
        .max(begin);
    let prepare_start = commit_start
        .checked_sub(report.prepare_time)
        .unwrap_or(begin)
        .max(begin);
    tracer.record("session_local", req, call, begin, prepare_start);
    tracer.record("prepare", req, call, prepare_start, commit_start);
    tracer.record("commit", req, call, commit_start, end);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn report_setup(i: usize, f: &SetupFigures) {
    eprintln!(
        "setup {i}: {:.3} s (cold start {:.3} s; P5 {:.1} ms)",
        f.setup_s, f.cold_start_s, f.phases_ms[2]
    );
}

/// Child-process mode (`--setup-probe 1`): one set-up, torn down again;
/// returns the line to print.
pub fn probe_setup(args: &Args) -> Result<String, String> {
    let spec = spec(&args.workload)?;
    let mut tracer = Tracer::new(Instant::now(), false);
    let d = set_up(&spec, args.seed, false, &mut tracer, 0)?;
    d.dep.shutdown();
    Ok(d.figures.to_line())
}

/// One more set-up, in a child process running this binary with
/// `--setup-probe 1`. The child inherits this thread's core. A deployment
/// built and torn down in this process would leave its agent threads'
/// malloc arenas behind, in a state that depends on the order those
/// threads exited, and that made campus's `peak_rss_mb` spread by 0.14-0.27
/// over ten runs (0.006 without these set-ups).
fn set_up_in_child(args: &Args) -> Result<SetupFigures, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(SetupFigures::from_line) {
        Some(f) if out.status.success() => Ok(f),
        _ => Err(format!("set-up child failed ({}): {stdout}", out.status)),
    }
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn family_total(s: &MetricsSnapshot, name: &str) -> u64 {
    s.families
        .get(name)
        .map(|rows| rows.iter().map(|(_, v)| v).sum())
        .unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn agent_totals(network: &DistNetwork) -> (u64, u64) {
    let relaxed = Ordering::Relaxed;
    network.agents().fold((0, 0), |(hits, prepares), a| {
        (
            hits + a.stats().flat_cache_hits.load(relaxed),
            prepares + a.stats().prepares.load(relaxed),
        )
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = spec(&args.workload)?;
    // The traffic thread gets one core to itself; the controller and every
    // agent thread (spawned after this, so they inherit it) share the
    // other. Left to the scheduler, which core the traffic thread shared
    // with the control plane changed from run to run and moved ISP
    // throughput by a third.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pin = cores >= 2 && alloc::pin_current_thread(CONTROL_CPU);
    let calib_before = calibrate();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, args.trace);

    // Set up several times; keep the last deployment for the timed phase.
    // The first one, on campus, also serves the interpreter oracle.
    let mut setups: Vec<SetupFigures> = Vec::new();
    let mut oracle_errors = Vec::new();
    let mut deployed = None;
    for i in 0..spec.setups_before {
        let oracle = spec.eval_oracle && i == 0;
        let mut d = set_up(&spec, args.seed, oracle, &mut tracer, i as u64)?;
        report_setup(i, &d.figures);
        if oracle {
            if let Err(e) = eval_oracle(&mut d, &spec, args.seed)
                .and_then(|()| check_ledger(&d.dep.network, &d.ledger))
            {
                oracle_errors.push(format!("interpreter oracle: {e}"));
            }
        }
        setups.push(d.figures);
        if i + 1 == spec.setups_before {
            deployed = Some(d);
        } else {
            d.dep.shutdown();
        }
    }
    let mut d = deployed.expect("at least one set-up");
    let rss_setup_mb = proc_status_mb("VmRSS");
    let mut traffic = TrafficOut::default();
    let prefix = count_prefix(&mut d, pin, &mut traffic.failures);

    // The timed phase. Concurrent updates stretch with the run; the
    // campus schedule is fixed.
    let scale = if spec.updates_with_traffic {
        args.seconds as f64 / ISP_UPDATES_SECONDS as f64
    } else {
        1.0
    };
    let plan = schedule(spec.updates, scale, args.seed);
    let bare = args.trace.then(|| {
        let agents = d
            .dep
            .network
            .agents()
            .map(|a| (a.switch(), Arc::clone(a)))
            .collect();
        DistNetwork::new(d.topology.clone(), agents).without_telemetry()
    });
    let snap_span = tracer.open("metrics_snapshot", 0, None);
    let before = d.dep.network.metrics_snapshot();
    tracer.close(snap_span);
    let agents_before = agent_totals(&d.dep.network);
    let events_from = before.events.last().map(|e| e.seq + 1).unwrap_or(0);

    let mut update_failures = Failures::default();
    let network = Arc::clone(&d.dep.network);
    let mut traffic_tracer = Tracer::new(origin, args.trace);
    let mut updates = Vec::new();
    let window = Duration::from_secs(args.seconds) / spec.windows as u32;
    let chunk = plan.len().div_ceil(spec.windows);
    for w in 0..spec.windows {
        let updates_done = AtomicBool::new(!spec.updates_with_traffic);
        let ctx = TrafficCtx {
            pin,
            network: &network,
            bare: bare.as_ref(),
            deadline: Instant::now() + window,
            updates_done: &updates_done,
        };
        std::thread::scope(|scope| {
            let (traffic_gen, ledger, tt, out) = (
                &mut d.traffic,
                &mut d.ledger,
                &mut traffic_tracer,
                &mut traffic,
            );
            let ctx = &ctx;
            let handle = scope.spawn(move || traffic_loop(ctx, traffic_gen, ledger, tt, out));
            // Stops the traffic thread even if the update loop panics.
            let release = DoneOnDrop(&updates_done);
            if spec.updates_with_traffic {
                updates.extend(update_loop(
                    &mut d.dep.controller,
                    &network,
                    &plan,
                    0,
                    spec.egress_ports,
                    &mut tracer,
                    &mut update_failures,
                ));
            }
            drop(release);
            handle.join().expect("traffic thread panicked");
        });
        if !spec.updates_with_traffic {
            // Campus: a slice of the update clocks on a quiet network,
            // between traffic windows.
            let from = (w * chunk).min(plan.len());
            let to = ((w + 1) * chunk).min(plan.len());
            updates.extend(update_loop(
                &mut d.dep.controller,
                &network,
                &plan[from..to],
                from,
                spec.egress_ports,
                &mut tracer,
                &mut update_failures,
            ));
        }
        for _ in 0..spec.setups_per_window {
            let extra = set_up_in_child(args)?;
            report_setup(setups.len(), &extra);
            setups.push(extra);
        }
    }
    let traffic_s = traffic.busy_s;
    let snap_span = tracer.open("metrics_snapshot", 1, None);
    let after = d.dep.network.metrics_snapshot();
    tracer.close(snap_span);
    let agents_after = agent_totals(&d.dep.network);

    // Correctness once every writer has stopped.
    let check_span = tracer.open("check", 0, None);
    if let Err(e) = check_ledger(&network, &d.ledger) {
        oracle_errors.push(e);
    }
    if let Err(e) = check_epochs(&d.dep.controller, &network) {
        oracle_errors.push(format!("final: {e}"));
    }
    if network.total_backpressure() != 0 {
        oracle_errors.push(format!(
            "{} egress tail-drops",
            network.total_backpressure()
        ));
    }
    tracer.close(check_span);
    drop(bare);
    drop(network);
    let peak_rss_mb = proc_status_mb("VmHWM");
    d.dep.shutdown();
    let calib_after = calibrate();
    tracer.absorb(traffic_tracer);

    for e in traffic
        .failures
        .samples
        .iter()
        .chain(&update_failures.samples)
        .chain(&oracle_errors)
    {
        eprintln!("FAILED: {e}");
    }
    let failed = traffic.failures.count + update_failures.count;
    let mut report = Report {
        correct: failed == 0 && oracle_errors.is_empty(),
        attempted: prefix.packets + traffic.packets + updates.len() as u64,
        failed,
        metrics: Vec::new(),
    };

    let by_kind =
        |kind: Kind| -> Vec<&UpdateRec> { updates.iter().filter(|u| u.kind == kind).collect() };
    let effect = |kind: Kind| -> Vec<f64> { by_kind(kind).iter().map(|u| u.effect_ms).collect() };
    for kind in Kind::ALL {
        let v = effect(kind);
        eprintln!(
            "{:>8}: n={:<4} p50 {:8.3} ms  tail p{:.1} {:8.3} ms  max {:8.3} ms",
            kind.label(),
            v.len(),
            median(&v),
            tail_quantile(v.len()) * 100.0,
            tail(&v),
            percentile(&v, 1.0)
        );
    }
    let batch_us: Vec<f64> = traffic.batch_ns.iter().map(|&n| n as f64 / 1e3).collect();
    eprintln!(
        "traffic: {} packets in {} batches, {:.3} s busy, batch p50 {:.1} us p99 {:.1} us; \
         host calibration {:.2} / {:.2} ms",
        traffic.packets,
        traffic.batches,
        traffic_s,
        percentile(&batch_us, 0.5),
        percentile(&batch_us, 0.99),
        calib_before,
        calib_after
    );

    if !args.trace {
        let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
        let cold: Vec<f64> = setups.iter().map(|s| s.cold_start_s).collect();
        report.put("setup_s", median(&setup_s), "s");
        report.put("cold_start_s", median(&cold), "s");
        report.put(
            "pkts_per_s",
            ratio(traffic.packets as f64, traffic_s),
            "1/s",
        );
        report.put("batch_us_p99", percentile(&batch_us, 0.99), "us");
        let (flips, edits, reroutes) = (
            effect(Kind::Flip),
            effect(Kind::Edit),
            effect(Kind::Reroute),
        );
        report.put("flip_ms_p50", median(&flips), "ms");
        report.put("flip_ms_tail", tail(&flips), "ms");
        report.put("edit_ms_p50", median(&edits), "ms");
        report.put("edit_ms_tail", tail(&edits), "ms");
        report.put("reroute_ms_p50", median(&reroutes), "ms");
        report.put("peak_rss_mb", peak_rss_mb, "MB");
        return Ok(report);
    }

    // ---- per-layer metrics (traced run) ----
    let med_setup = |f: &dyn Fn(&SetupFigures) -> f64| -> f64 {
        median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    report.put("topology.build_ms", med_setup(&|l| l.topology_ms), "ms");
    let phases = ["p2_xfdd", "p3_mapping", "p5_placement", "p6_rulegen"];
    for (i, phase) in phases.iter().enumerate() {
        report.put(
            format!("core.cold.{phase}_ms"),
            med_setup(&|l| l.phases_ms[i]),
            "ms",
        );
    }
    let timing = |kind: Kind, f: &dyn Fn(&PhaseTimings) -> Duration| -> f64 {
        median(
            &by_kind(kind)
                .iter()
                .filter_map(|u| u.timings.as_ref().map(|t| ms(f(t))))
                .collect::<Vec<_>>(),
        )
    };
    report.put(
        "core.edit.p2_xfdd_ms",
        timing(Kind::Edit, &|t| t.xfdd_generation),
        "ms",
    );
    report.put(
        "core.edit.p3_mapping_ms",
        timing(Kind::Edit, &|t| t.packet_state_mapping),
        "ms",
    );
    report.put(
        "core.edit.p6_rulegen_ms",
        timing(Kind::Edit, &|t| t.rule_generation),
        "ms",
    );
    report.put(
        "core.reroute.p5_routing_ms",
        timing(Kind::Reroute, &|t| t.optimization),
        "ms",
    );

    let from_reports = |kind: Kind, f: &dyn Fn(&UpdateRec, &CommitReport) -> f64| -> f64 {
        median(
            &by_kind(kind)
                .iter()
                .filter_map(|u| u.report.as_ref().map(|r| f(u, r)))
                .collect::<Vec<_>>(),
        )
    };
    for kind in Kind::ALL {
        let k = kind.label();
        report.put(
            format!("session.local_ms.{k}"),
            from_reports(kind, &|u, r| {
                u.call_ms - ms(r.prepare_time) - ms(r.commit_time)
            }),
            "ms",
        );
        let recs = by_kind(kind);
        for (s, name) in STAT_NAMES.iter().enumerate() {
            let per: Vec<f64> = recs.iter().map(|u| u.stats_delta[s] as f64).collect();
            report.put(format!("session.{name}.{k}"), mean(&per), "count");
        }
    }
    report.put("distrib.deploy_ms", med_setup(&|l| l.deploy_ms), "ms");
    report.put("distrib.bootstrap_ms", med_setup(&|l| l.bootstrap_ms), "ms");
    for kind in Kind::ALL {
        let k = kind.label();
        report.put(
            format!("distrib.prepare_ms.{k}"),
            from_reports(kind, &|_, r| ms(r.prepare_time)),
            "ms",
        );
        report.put(
            format!("distrib.commit_ms.{k}"),
            from_reports(kind, &|_, r| ms(r.commit_time)),
            "ms",
        );
        report.put(
            format!("distrib.delta_bytes.{k}"),
            from_reports(kind, &|_, r| r.delta_bytes as f64),
            "bytes",
        );
    }
    report.put(
        "distrib.new_nodes.edit",
        from_reports(Kind::Edit, &|_, r| r.new_nodes as f64),
        "count",
    );
    let reports: Vec<&CommitReport> = updates.iter().filter_map(|u| u.report.as_ref()).collect();
    report.put(
        "distrib.resyncs",
        reports.iter().map(|r| r.resyncs as f64).sum(),
        "count",
    );
    report.put(
        "distrib.compacted_nodes",
        reports.iter().map(|r| r.compacted_nodes as f64).sum(),
        "count",
    );
    let edit_epochs: BTreeSet<u64> = by_kind(Kind::Edit)
        .iter()
        .filter_map(|u| u.report.as_ref().map(|r| r.epoch))
        .collect();
    let slowest_acks: Vec<f64> = after
        .events
        .iter()
        .filter(|e| e.seq >= events_from)
        .filter_map(|e| match &e.event {
            CommitEvent::Prepare {
                epoch, per_agent, ..
            } if edit_epochs.contains(epoch) => Some(per_agent.max_us() as f64),
            _ => None,
        })
        .collect();
    report.put("distrib.prepare_ack_us_max", median(&slowest_acks), "us");
    report.put(
        "distrib.agent.flat_cache_hit_ratio",
        ratio(
            (agents_after.0 - agents_before.0) as f64,
            (agents_after.1 - agents_before.1) as f64,
        ),
        "ratio",
    );

    // Work per packet over the counting prefix; contention over the timed
    // phase, where the traffic runs next to the updates.
    let pc = |name: &str| (counter(&prefix.after, name) - counter(&prefix.before, name)) as f64;
    let pf = |name: &str| {
        (family_total(&prefix.after, name) - family_total(&prefix.before, name)) as f64
    };
    let pkts = pc("driver.packets");
    report.put(
        "dataplane.hops_per_pkt",
        ratio(pf("switch.hops"), pkts),
        "count",
    );
    report.put(
        "dataplane.state_writes_per_pkt",
        ratio(pf("switch.state_writes"), pkts),
        "count",
    );
    report.put(
        "dataplane.shard_acq_per_pkt",
        ratio(pf("store.shard.acquisitions"), pkts),
        "count",
    );
    report.put(
        "dataplane.wave_prefix_survivor_ratio",
        ratio(
            pc("driver.wave_prefix.survivors"),
            pc("driver.wave_prefix.packets"),
        ),
        "ratio",
    );
    let df = |name: &str| (family_total(&after, name) - family_total(&before, name)) as f64;
    report.put(
        "dataplane.shard_contended_ratio",
        ratio(df("store.shard.contended"), df("store.shard.acquisitions")),
        "ratio",
    );
    // Not an end-to-end metric: batch latency has two modes (about 70 and
    // 105 us per batch on campus) that alternate over seconds, so the
    // median jumps between them from run to run; `pkts_per_s` (the mean)
    // and `batch_us_p99` carry the packet path end to end.
    report.put("dataplane.batch_us_p50", percentile(&batch_us, 0.5), "us");
    report.put(
        "dataplane.drain_us",
        ratio(traffic.drain.as_secs_f64() * 1e6, traffic.batches as f64),
        "us",
    );
    let overhead = |with: &[u64], without: &[u64]| -> f64 {
        let with: Vec<f64> = with.iter().map(|&n| n as f64).collect();
        let without: Vec<f64> = without.iter().map(|&n| n as f64).collect();
        100.0 * ratio(median(&with) - median(&without), median(&without))
    };
    report.put(
        "telemetry.overhead_pct",
        overhead(&traffic.telemetry_ns, &traffic.bare_ns),
        "%",
    );
    report.put(
        "trace.overhead_pct",
        overhead(&traffic.traced_ns, &traffic.untraced_ns),
        "%",
    );

    report.put(
        "alloc.per_pkt",
        ratio(prefix.allocs as f64, prefix.packets as f64),
        "count",
    );
    report.put(
        "alloc.bytes_per_pkt",
        ratio(prefix.alloc_bytes as f64, prefix.packets as f64),
        "bytes",
    );
    for kind in [Kind::Flip, Kind::Edit] {
        let per: Vec<f64> = by_kind(kind).iter().map(|u| u.allocs as f64).collect();
        report.put(format!("alloc.per_{}", kind.label()), mean(&per), "count");
    }
    report.put("mem.rss_setup_mb", rss_setup_mb, "MB");
    let late: Vec<f64> = updates.iter().map(|u| u.late_ms).collect();
    report.put("load.update_late_ms", percentile(&late, 1.0), "ms");
    report.put("host.calib_ms", (calib_before + calib_after) / 2.0, "ms");

    // Self time per span, and how much of each update kind's measured
    // due-to-effect time its session-local + prepare + commit parts cover.
    let selves = tracer.self_times();
    for name in [
        "setup",
        "deploy",
        "inject_batch",
        "drain_port",
        "late",
        "session_local",
        "prepare",
        "commit",
        "current_epochs",
        "metrics_snapshot",
        "check",
    ] {
        let s = selves.get(name).copied().unwrap_or_default();
        report.put(
            format!("self_us.{name}"),
            ratio(s.self_ns as f64 / 1e3, s.count as f64),
            "us",
        );
    }
    for kind in [Kind::Flip, Kind::Edit] {
        let recs = by_kind(kind);
        let parts: f64 = recs
            .iter()
            .filter(|u| u.report.is_some())
            .map(|u| u.call_ms)
            .sum();
        let wall: f64 = recs.iter().map(|u| u.effect_ms).sum();
        report.put(
            format!("trace.{}_accounted_pct", kind.label()),
            100.0 * ratio(parts, wall),
            "%",
        );
    }
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}
