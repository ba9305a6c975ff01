//! `routed_fig9`: the paper's Figure 9 (trigger response time) through
//! the real network path. An in-process `DirectoryServer` and one
//! `PartitionNode` sit behind a `ClusterRouter`; a thousand programmed
//! triggers watch the rooms of a 50-room floor, and tracked objects
//! toggle in and out of them. `ClusterRouter::ingest` runs open loop at
//! a fixed rate; a second thread receives notifications from
//! `ClusterRouter::notifications()` and interleaves `router.query` RPCs.
//!
//! Why: frame encoding, RPC and routing dominate here, while fusion and
//! rules are trivial. Replication and failover stay out: a second node
//! would put more connections and threads on the load generator than
//! the host has cores, and the chaos suites already prove those paths.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mw_cluster::{
    ClusterRouter, DirectoryOptions, DirectoryServer, NodeConfig, PartitionNode, RouterConfig,
};
use mw_core::{LocationQuery, Notification, Predicate, QueryTarget, Rule};
use mw_geometry::{Point, Rect};
use mw_model::{Glob, SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, MobileObjectId, Revocation, SensorReading, SensorSpec};
use mw_sim::building::{synthetic_floor, FloorPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, LayerInputs};
use crate::oracle::{Digest, ToggleOracle};
use crate::pace::{self, Lateness};
use crate::report::{Delta, E2eSamples, Outcome};
use crate::shadow::{Shadow, SpanSink};
use crate::trace::{Recorder, ROOT};
use crate::Config;

/// Set-ups per run, half before the measured phase and half after it, so
/// that their median (`setup_s`) samples the host twice. Cheap set-ups
/// repeat more.
const SETUP_REPS: usize = 10;

const ROOMS_PER_SIDE: usize = 25;
const OBJECTS: usize = 100;
const RULES: usize = 1_000;
/// Rooms each object cycles through, one trigger each.
const ROOMS_PER_OBJECT: usize = RULES / OBJECTS;
/// Routed ingest calls (one reading each) per wall-clock second.
const RATE: f64 = 2_000.0;
/// Routed queries per wall-clock second on average, interleaved on the
/// receiver.
const QUERY_RATE: f64 = 1_000.0;
/// Simulated time between consecutive readings: each object reports
/// once per simulated second, which keeps every toggle (about 25 ft)
/// under the supervisor's velocity bound.
const STEP: f64 = 1.0 / OBJECTS as f64;
const SEED_AT: f64 = 100.0;
const PROBE_AT: f64 = 200.0;
const T0: f64 = 1_000.0;
/// Readings whose notifications make up the run's digest.
const DIGEST_READINGS: usize = 2_000;
/// How long the receiver waits for stragglers after the last ingest.
const GRACE: Duration = Duration::from_millis(500);
const PROBE: &str = "probe";

struct Floor {
    plan: FloorPlan,
    /// Watched rooms: (glob, rect).
    rooms: Vec<(String, Rect)>,
    corridor: (String, Rect),
}

fn floor() -> Floor {
    let plan = synthetic_floor(ROOMS_PER_SIDE);
    let (corridors, rooms): (Vec<_>, Vec<_>) = plan
        .rooms
        .iter()
        .cloned()
        .partition(|(glob, _)| glob.ends_with("Corridor"));
    let corridor = corridors
        .into_iter()
        .next()
        .expect("synthetic floor has a corridor");
    Floor {
        plan,
        rooms,
        corridor,
    }
}

/// Where a tagged object is: inside room `r` (seen by `card-r`) or on
/// the corridor spot in front of it (seen by `hall-r`).
#[derive(Clone, Copy)]
struct Place {
    room: usize,
    inside: bool,
}

impl Floor {
    /// The room object `o` enters on its `visit`-th toggle-in: each
    /// object cycles through [`ROOMS_PER_OBJECT`] rooms, one trigger
    /// each.
    fn room_of(&self, o: usize, visit: usize) -> usize {
        (o * ROOMS_PER_OBJECT + visit % ROOMS_PER_OBJECT) % self.rooms.len()
    }

    /// A 2×2 ft spot in the corridor in front of room `r`.
    fn spot(&self, r: usize) -> Rect {
        let x = self.rooms[r].1.center().x;
        let y = self.corridor.1.center().y;
        Rect::new(Point::new(x - 1.0, y - 1.0), Point::new(x + 1.0, y + 1.0))
    }

    /// The output that moves `object` from `from` to `to` at simulated
    /// time `at`: the old place's sensor forgets it, the new one sees it.
    /// Every sensor sees a given object at one spot only, so no move
    /// trips the supervisor's velocity gate.
    fn step(&self, object: &MobileObjectId, from: Place, to: Place, at: SimTime) -> AdapterOutput {
        let sensor = |p: Place| {
            if p.inside {
                format!("card-{}", p.room)
            } else {
                format!("hall-{}", p.room)
            }
        };
        let (glob, region) = if to.inside {
            (&self.rooms[to.room].0, self.rooms[to.room].1)
        } else {
            (&self.corridor.0, self.spot(to.room))
        };
        AdapterOutput {
            readings: vec![SensorReading {
                sensor_id: sensor(to).as_str().into(),
                spec: SensorSpec::card_reader(),
                object: object.clone(),
                glob_prefix: glob.parse::<Glob>().expect("floor globs parse"),
                region,
                detected_at: at,
                time_to_live: SimDuration::from_secs(86_400.0),
                tdf: TemporalDegradation::None,
                moving: false,
            }],
            revocations: vec![Revocation {
                sensor_id: sensor(from).as_str().into(),
                object: object.clone(),
            }],
        }
    }

    /// Where object `o` starts: outside its first room.
    fn start(&self, o: usize) -> Place {
        Place {
            room: self.room_of(o, 0),
            inside: false,
        }
    }
}

struct Cluster {
    directory: DirectoryServer,
    node: PartitionNode,
    router: ClusterRouter,
}

impl Cluster {
    fn shutdown(self) {
        drop(self.router);
        self.node.shutdown();
        self.directory.shutdown();
    }
}

/// Starts the directory, the node and the router, registers the rules
/// and seeds every object outside its room.
fn build(seed: u64, f: &Floor, objects: &[MobileObjectId]) -> Cluster {
    let directory = DirectoryServer::bind("127.0.0.1:0", DirectoryOptions::default())
        .expect("directory binds an ephemeral port");
    let node = PartitionNode::start(
        NodeConfig::new("node-a", directory.local_addr()),
        f.plan.db.clone(),
        f.plan.universe,
    )
    .expect("partition node starts");
    let router = ClusterRouter::connect(RouterConfig {
        metrics: Some(MetricsRegistry::new()),
        ..RouterConfig::new(seed, directory.local_addr())
    })
    .expect("router connects");
    // One trigger per (object, room it visits), plus the probe's.
    let watches = objects
        .iter()
        .enumerate()
        .flat_map(|(o, id)| (0..ROOMS_PER_OBJECT).map(move |v| (id.clone(), f.room_of(o, v))))
        .chain(std::iter::once((MobileObjectId::new(PROBE), 0)));
    for (object, room) in watches {
        let rule = Rule::when(Predicate::in_region(f.rooms[room].1, 0.3))
            .object(object)
            .build()
            .expect("room rects are valid predicates");
        let registered = router.subscribe_rule(rule).expect("cluster has a member");
        assert!(!registered.is_empty(), "rule registration reached no node");
    }
    let at = SimTime::from_secs(SEED_AT);
    let batch = objects
        .iter()
        .enumerate()
        .map(|(o, id)| (id.clone(), f.step(id, f.start(o), f.start(o), at)))
        .collect();
    router.ingest(batch, at).expect("seed ingest");
    Cluster {
        directory,
        node,
        router,
    }
}

/// Blocks until the router's notification pump is connected, by
/// toggling a probe object into a watched room until it is heard.
fn wait_for_pump(f: &Floor, c: &Cluster, inbox: &mw_bus::Subscription<Notification>) {
    let probe = MobileObjectId::new(PROBE);
    for j in 0..200 {
        let at = SimTime::from_secs(PROBE_AT + j as f64);
        let place = |inside| Place { room: 0, inside };
        let output = f.step(&probe, place(j % 2 == 1), place(j % 2 == 0), at);
        c.router
            .ingest(vec![(probe.clone(), output)], at)
            .expect("probe ingest");
        if inbox.recv_timeout(Duration::from_millis(50)).is_some() {
            std::thread::sleep(Duration::from_millis(20));
            inbox.drain();
            return;
        }
    }
    panic!("router notification pump never connected");
}

/// What the receiver thread collected.
struct Received {
    /// (reading index, subscription, receipt time), in arrival order.
    notes: Vec<(usize, u64, String, Instant)>,
    query_us: Vec<f64>,
    query_busy_s: f64,
    query_errors: u64,
    rec: Recorder,
}

fn reading_of(n: &Notification) -> usize {
    ((n.at.as_secs() - T0) / STEP).round() as usize
}

#[allow(clippy::too_many_arguments)]
fn receive(
    c: &Cluster,
    f: &Floor,
    inbox: mw_bus::Subscription<Notification>,
    objects: &[MobileObjectId],
    t0: Instant,
    sim_bits: &AtomicU64,
    stop: &AtomicBool,
    traced: &AtomicBool,
    seed: u64,
    origin: Instant,
    // Queries to issue from `t0`, `QUERY_RATE` per second on average.
    queries: usize,
) -> Received {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0040_07ed);
    let mut r = Received {
        notes: Vec::new(),
        query_us: Vec::new(),
        query_busy_s: 0.0,
        query_errors: 0,
        rec: Recorder::new(origin),
    };
    // Query arrivals are a seeded Poisson process. At a fixed spacing the
    // queries lock to a phase of the node's threads, which sleep in
    // steps tied to the ingest schedule, and each run's median then lands
    // on whichever phase it drew.
    let mut arrivals = StdRng::seed_from_u64(seed ^ 0x00a7_7a1e);
    let mut next_q = t0;
    let mut qi = 0usize;
    let mut last_heard = Instant::now();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        if stopping && qi >= queries && last_heard.elapsed() > GRACE {
            break;
        }
        let wait = next_q
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(5));
        if let Some(n) = inbox.recv_timeout(wait) {
            let at = Instant::now();
            last_heard = at;
            if n.object.as_str() != PROBE {
                r.notes.push((
                    reading_of(&n),
                    n.subscription.value(),
                    n.object.as_str().to_string(),
                    at,
                ));
            }
            continue;
        }
        if qi >= queries || Instant::now() < next_q {
            continue;
        }
        let u: f64 = arrivals.gen_range(0.0..1.0);
        next_q += Duration::from_secs_f64(-(1.0 - u).ln() / QUERY_RATE);
        qi += 1;
        let o = rng.gen_range(0..objects.len());
        let target = if qi.is_multiple_of(4) {
            QueryTarget::Region(f.rooms[f.room_of(o, qi)].0.clone())
        } else {
            QueryTarget::Fix
        };
        let query = LocationQuery {
            object: objects[o].clone(),
            target,
            now: SimTime::from_secs(f64::from_bits(sim_bits.load(Ordering::Acquire))),
            deadline: None,
        };
        let start = Instant::now();
        let ok = c.router.query(&query).is_ok();
        let end = Instant::now();
        if !ok {
            r.query_errors += 1;
        }
        r.query_us.push((end - start).as_secs_f64() * 1e6);
        r.query_busy_s += (end - start).as_secs_f64();
        if traced.load(Ordering::Relaxed) {
            r.rec.record("core.query", start, end, ROOT, qi as u64);
        }
    }
    r
}

/// Runs `routed_fig9`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = E2eSamples::default();
    let f = floor();
    let objects: Vec<MobileObjectId> = (0..OBJECTS)
        .map(|o| MobileObjectId::new(format!("tag-{o}")))
        .collect();

    let mut cluster = None;
    for _ in 0..SETUP_REPS / 2 {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c);
        }
        let start = Instant::now();
        cluster = Some(build(cfg.seed, &f, &objects));
        e2e.setup_s.push(start.elapsed().as_secs_f64());
    }
    let c = cluster.expect("built at least once");
    let inbox = c.router.notifications();
    wait_for_pump(&f, &c, &inbox);

    // The schedule: reading k moves object k mod N; objects start
    // outside, so each one alternates in, out, in, ...
    let timed = (RATE * cfg.seconds).ceil() as usize;
    let g = Instant::now();
    // A toggle-in to an object's v-th room must fire exactly its trigger
    // number o × ROOMS_PER_OBJECT + v mod ROOMS_PER_OBJECT.
    let mut place: Vec<Place> = (0..OBJECTS).map(|o| f.start(o)).collect();
    let mut visits = vec![0usize; OBJECTS];
    let mut oracle = ToggleOracle::new(vec![1; OBJECTS * ROOMS_PER_OBJECT]);
    let schedule: Vec<(MobileObjectId, AdapterOutput, SimTime)> = (0..timed)
        .map(|k| {
            let o = k % OBJECTS;
            let from = place[o];
            let to = if from.inside {
                visits[o] += 1;
                Place {
                    room: f.room_of(o, visits[o]),
                    inside: false,
                }
            } else {
                Place {
                    room: from.room,
                    inside: true,
                }
            };
            let trigger = o * ROOMS_PER_OBJECT + visits[o] % ROOMS_PER_OBJECT;
            oracle.push_reading(to.inside.then_some(trigger));
            place[o] = to;
            let at = SimTime::from_secs(T0 + k as f64 * STEP);
            (objects[o].clone(), f.step(&objects[o], from, to, at), at)
        })
        .collect();
    let gen_ns_per_reading = g.elapsed().as_nanos() as f64 / timed.max(1) as f64;

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let registry = c.node.metrics_registry().clone();
    let sim_bits = AtomicU64::new(T0.to_bits());
    let stop = AtomicBool::new(false);
    let traced_flag = AtomicBool::new(false);
    let mut late = Lateness::default();
    let mut calls = [(0.0f64, 0.0f64); 2]; // (ns, calls) per phase
    let mut spans_of: Vec<Option<u32>> = vec![None; timed];
    let mut ends: Vec<Instant> = Vec::with_capacity(timed);
    let mut traced_snap = None;
    let mut traced_from = usize::MAX;
    let mut consumed = 0usize;
    let mut rpc_errors = 0u64;
    let t0 = Instant::now() + Duration::from_millis(2);

    let got = std::thread::scope(|scope| {
        let (c, f, objects) = (&c, &f, &objects);
        let (sim_bits, stop, traced_flag) = (&sim_bits, &stop, &traced_flag);
        let receiver = scope.spawn(move || {
            receive(
                c,
                f,
                inbox,
                objects,
                t0,
                sim_bits,
                stop,
                traced_flag,
                cfg.seed,
                origin,
                (QUERY_RATE * cfg.seconds).ceil() as usize,
            )
        });
        let mut prev_end = None;
        for (k, (object, output, at)) in schedule.iter().enumerate() {
            let due = pace::due(t0, k, RATE);
            let traced = cfg.trace && k >= timed / 2;
            if traced && traced_snap.is_none() {
                traced_snap = Some(registry.snapshot());
                traced_from = k;
                traced_flag.store(true, Ordering::Relaxed);
            }
            let batch = vec![(object.clone(), output.clone())];
            pace::wait_until(due, pace::SPIN);
            sim_bits.store(at.as_secs().to_bits(), Ordering::Release);
            let start = Instant::now();
            let ok = c.router.ingest(batch, *at).is_ok();
            let end = Instant::now();
            late.record(due, start, prev_end);
            prev_end = Some(end);
            ends.push(end);
            if !ok {
                rpc_errors += 1;
            }
            let call = end - start;
            let p = &mut calls[usize::from(traced)];
            p.0 += call.as_nanos() as f64;
            p.1 += 1.0;
            e2e.readings += 1;
            e2e.ingest_busy_s += call.as_secs_f64();
            e2e.batch_ms.push(call.as_secs_f64() * 1e3);
            if traced {
                spans_of[k] = Some(rec.record("cluster.route_ingest", start, end, ROOT, k as u64));
            }
            consumed = k + 1;
        }
        stop.store(true, Ordering::Release);
        receiver.join().expect("receiver thread panicked")
    });
    let after = registry.snapshot();

    // Oracle over the notification stream.
    let mut digest = Digest::default();
    let mut by_reading: Vec<Vec<(u64, &str)>> = vec![Vec::new(); DIGEST_READINGS.min(consumed)];
    let mut received = [0.0f64; 2];
    for (k, sub, object, at) in &got.notes {
        oracle.observe(*k, *sub);
        if let Some(v) = by_reading.get_mut(*k) {
            v.push((*sub, object.as_str()));
        }
        if *k < consumed {
            e2e.trigger_us.push((
                at.saturating_duration_since(pace::due(t0, *k, RATE))
                    .as_secs_f64()
                    * 1e6,
                1,
            ));
            received[usize::from(*k >= traced_from)] += 1.0;
            // Delivery: from the routed call's return to receipt (zero
            // when the notification overtook the RPC reply).
            if let Some(parent) = spans_of[*k] {
                let end = ends[*k];
                rec.record("bus.deliver", end, (*at).max(end), parent, *k as u64);
            }
        }
    }
    for notes in by_reading {
        digest.add(notes);
    }
    let expected = oracle.expected();
    let failures = oracle.finish();
    out.mismatch("missing_notification", failures.missing);
    out.mismatch("extra_notification", failures.extra);
    out.mismatch("duplicate_notification", failures.duplicate);
    out.mismatch("out_of_order_notification", failures.out_of_order);
    out.fail("rpc_error", rpc_errors);
    out.fail("query_error", got.query_errors);

    let queries = got.query_us.len() as u64;
    out.attempted = consumed as u64 + queries;
    out.valid = late.valid();
    out.note(format!(
        "routed_fig9: 1 node, {OBJECTS} objects toggling through {} watched rooms, {RULES} object triggers; {consumed} routed readings at {RATE}/s, {expected} notifications expected, {} received, {queries} queries at {QUERY_RATE}/s",
        f.rooms.len(),
        got.notes.len()
    ));
    out.note(format!(
        "generator: own lateness p99 {:.1} us ({}), {} calls behind a running call",
        late.p99_us(),
        if out.valid {
            "valid"
        } else {
            "INVALID: the generator fell behind"
        },
        late.backlogged
    ));
    out.note(format!(
        "notification digest (first {DIGEST_READINGS} readings): {:016x}",
        digest.0
    ));

    if let Some(before) = traced_snap.as_ref() {
        // Shadow pass over every routed reading (state must match), timed
        // in the traced half, plus the relation calls the router has no
        // RPC for, made on the node's service in process.
        let mut shadow = Shadow::new(f.plan.db.clone(), f.plan.universe);
        let seed_at = SimTime::from_secs(SEED_AT);
        for (o, id) in objects.iter().enumerate() {
            shadow.apply(&f.step(id, f.start(o), f.start(o), seed_at), seed_at, None);
        }
        shadow.tick(seed_at);
        for (k, (object, output, at)) in schedule.iter().take(consumed).enumerate() {
            if k == traced_from {
                shadow.reset_counts();
            }
            match spans_of[k] {
                Some(parent) => {
                    let id = k as u64;
                    shadow.apply(
                        output,
                        *at,
                        Some(SpanSink {
                            rec: &mut rec,
                            parent,
                            id,
                        }),
                    );
                    shadow.fuse(
                        object,
                        *at,
                        None,
                        Some(SpanSink {
                            rec: &mut rec,
                            parent,
                            id,
                        }),
                    );
                    let room = &f.rooms[f.room_of(k % OBJECTS, k)].0;
                    let svc = c.node.service();
                    rec.time("reasoning.relation", parent, id, || {
                        svc.region_relation(room, &f.corridor.0).is_ok()
                    });
                }
                None => {
                    shadow.apply(output, *at, None);
                }
            }
            shadow.tick(*at);
        }
        rec.merge(got.rec);
        let spans = rec.totals();
        let sut = Delta {
            before,
            after: &after,
        };
        let node_ingest_ns = sut.hist_mean("core.ingest.latency_us") * 1e3;
        let node_query_ns = sut.hist_mean("core.query.latency_us") * 1e3;
        let (traced_ns, traced_calls) = calls[1];
        let (untraced_ns, untraced_calls) = calls[0];
        let inputs = LayerInputs {
            spans: &spans,
            sut,
            shadow: &shadow,
            readings: traced_calls,
            call_ns: traced_ns / traced_calls.max(1.0),
            readings_per_call: 1.0,
            core_ns_per_reading: node_ingest_ns,
            untraced_ns_per_reading: untraced_ns / untraced_calls.max(1.0),
            gen_ns_per_reading,
            late_p99_us: late.p99_us(),
            received: received[1],
            supervised: true,
        };
        layers::fill(&mut out, &inputs);
        out.set("core.query_ns", node_query_ns);
        out.set(
            "cluster.route_query_us",
            spans.get("core.query").map_or(0.0, |t| t.mean_ns() / 1e3),
        );
        out.note(format!(
            "routing + RPC per ingest call: {:.1} us client-side vs {:.1} us in the node's service",
            traced_ns / traced_calls.max(1.0) / 1e3,
            node_ingest_ns / 1e3
        ));
        crate::write_trace(&rec, "routed_fig9", cfg.seed, &mut out);
    }
    c.shutdown();
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let start = Instant::now();
        let built = build(cfg.seed, &f, &objects);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        built.shutdown();
    }
    e2e.query_us = got.query_us;
    e2e.query_busy_s = got.query_busy_s;
    e2e.finish(&mut out);
    out
}
