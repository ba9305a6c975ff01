//! `floor_fusion`: a few hundred people walking a 50-room floor under
//! overlapping Ubisense, RFID, biometric, card-reader and desktop
//! coverage, with a few hundred region rules, on a supervised service.
//! Adapter outputs are ingested one per call, open loop at a fixed rate
//! well below capacity, while a second thread runs a paced mix of
//! object, region and relation queries.
//!
//! Why: fusion lattices, conflict resolution, admission and the fusion
//! cache do the work here, and reads run beside writes. The rule layer
//! is light and the working set fits in cache: the opposite of
//! `city_rush`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mw_bus::Broker;
use mw_core::{
    DeliveryPolicy, LocationQuery, LocationService, Notification, Predicate, QueryTarget, Rule,
    SharedNotification, WorldModel,
};
use mw_geometry::Rect;
use mw_model::{SimDuration, SimTime};
use mw_obs::MetricsRegistry;
use mw_sensors::health::{GateDecision, HealthConfig, SensorSupervisor, Violation};
use mw_sensors::{AdapterOutput, SensorId};
use mw_sim::building::{synthetic_floor, FloorPlan};
use mw_sim::{Deployment, DeploymentConfig, Person};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, LayerInputs};
use crate::oracle::{delivery_failures, Digest, Note};
use crate::pace::{self, Lateness};
use crate::report::{Delta, E2eSamples, Outcome};
use crate::shadow::{Shadow, SpanSink};
use crate::trace::{Recorder, ROOT};
use crate::Config;

/// Set-ups per run, half before the measured phase and half after it, so
/// that their median (`setup_s`) samples the host twice. Cheap set-ups
/// repeat more.
const SETUP_REPS: usize = 100;

/// Rooms per side of the corridor: 50 rooms plus the corridor.
const ROOMS_PER_SIDE: usize = 25;
const PEOPLE: usize = 500;
const RULES: usize = 500;
const THRESHOLDS: [f64; 3] = [0.3, 0.5, 0.7];
/// Adapter outputs ingested per wall-clock second.
const RATE: f64 = 10_000.0;
/// Queries issued per wall-clock second by the query thread.
const QUERY_RATE: f64 = 5_000.0;
/// Simulated seconds ingested before timing starts.
const WARM_SIM_SECS: usize = 5;
/// A reading is genuine when its region, grown by this margin (ft),
/// contains the person's true position.
const GENUINE_MARGIN_FT: f64 = 1.0;

/// Sensor coverage, as room-index strides into the floor's room list.
fn deployment(rooms: usize) -> DeploymentConfig {
    let every = |step: usize, from: usize| (from..rooms).step_by(step).collect::<Vec<_>>();
    DeploymentConfig {
        ubisense_rooms: every(2, 0),
        rfid_rooms: every(3, 0),
        biometric_rooms: every(5, 1),
        card_reader_rooms: every(4, 2),
        desktop_rooms: every(6, 3),
        ..DeploymentConfig::default()
    }
}

struct World {
    plan: FloorPlan,
    svc: Arc<LocationService>,
    registry: MetricsRegistry,
    _broker: Broker,
    /// Subscription id → (watched region, threshold).
    rules: HashMap<u64, (Rect, f64)>,
    people: Vec<Person>,
    deployment: Deployment,
    model: WorldModel,
    rng: StdRng,
}

fn build(seed: u64) -> World {
    let plan = synthetic_floor(ROOMS_PER_SIDE);
    let mut rng = StdRng::seed_from_u64(seed);
    let config = deployment(plan.rooms.len());
    let deployment = Deployment::install(&config, &plan.rooms);
    let people = (0..PEOPLE)
        .map(|i| {
            let (_, room) = &plan.rooms[rng.gen_range(0..plan.rooms.len())];
            let at = mw_geometry::Point::new(
                rng.gen_range(room.min().x + 1.0..room.max().x - 1.0),
                rng.gen_range(room.min().y + 1.0..room.max().y - 1.0),
            );
            let carries = rng.gen_bool(config.carry_probability);
            Person::new(format!("person-{i}").as_str().into(), at, carries)
        })
        .collect();
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(plan.universe)).shared();
    let svc = LocationService::new_supervised(
        plan.db.clone(),
        plan.universe,
        &broker,
        &registry,
        supervisor,
    );
    let mut rules = HashMap::new();
    for _ in 0..RULES {
        let region = plan.rooms[rng.gen_range(0..plan.rooms.len())].1;
        let threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];
        let rule = Rule::when(Predicate::in_region(region, threshold))
            .build()
            .expect("room rects are valid predicates");
        rules.insert(svc.subscribe_rule(rule).value(), (region, threshold));
    }
    let model = WorldModel::from_database(&plan.db);
    World {
        plan,
        svc,
        registry,
        _broker: broker,
        rules,
        people,
        deployment,
        model,
        rng,
    }
}

/// The pre-generated input: outputs with their simulated times and, per
/// reading, whether it is genuine: consistent with ground truth and
/// inside the building frame the supervisor is registered with.
struct Schedule {
    outputs: Vec<AdapterOutput>,
    at: Vec<SimTime>,
    genuine: Vec<Vec<bool>>,
    /// Per output, its readings whose region reaches past the frame.
    /// The frame gate must turn each of them away.
    outside: Vec<usize>,
    warm: usize,
    gen_ns: f64,
    readings: u64,
}

fn generate(w: &mut World, timed_outputs: usize) -> Schedule {
    let start = Instant::now();
    let index: HashMap<String, usize> = w
        .people
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id.as_str().to_string(), i))
        .collect();
    let mut s = Schedule {
        outputs: Vec::new(),
        at: Vec::new(),
        genuine: Vec::new(),
        outside: Vec::new(),
        warm: 0,
        gen_ns: 0.0,
        readings: 0,
    };
    let dt = SimDuration::from_secs(1.0);
    let mut step = 0usize;
    while s.outputs.len() < s.warm + timed_outputs || step <= WARM_SIM_SECS {
        step += 1;
        let now = SimTime::from_secs(step as f64);
        for p in &mut w.people {
            p.step(dt, &w.model, &w.plan.rooms, &mut w.rng);
        }
        for output in w.deployment.poll(&w.people, now, &mut w.rng) {
            let inside =
                |r: &mw_sensors::SensorReading| frame_contains(&w.plan.universe, &r.region);
            let genuine = output
                .readings
                .iter()
                .map(|r| {
                    let truth = w.people[index[r.object.as_str()]].position;
                    let grown = Rect::new(
                        mw_geometry::Point::new(
                            r.region.min().x - GENUINE_MARGIN_FT,
                            r.region.min().y - GENUINE_MARGIN_FT,
                        ),
                        mw_geometry::Point::new(
                            r.region.max().x + GENUINE_MARGIN_FT,
                            r.region.max().y + GENUINE_MARGIN_FT,
                        ),
                    );
                    grown.contains_point(truth) && inside(r)
                })
                .collect();
            s.outside
                .push(output.readings.iter().filter(|r| !inside(r)).count());
            s.readings += output.readings.len() as u64;
            s.outputs.push(output);
            s.at.push(now);
            s.genuine.push(genuine);
        }
        if step == WARM_SIM_SECS {
            s.warm = s.outputs.len();
        }
    }
    s.gen_ns = start.elapsed().as_nanos() as f64;
    s
}

/// Whether `region` lies wholly inside `frame`, edges included.
fn frame_contains(frame: &Rect, region: &Rect) -> bool {
    frame.min().x <= region.min().x
        && frame.min().y <= region.min().y
        && region.max().x <= frame.max().x
        && region.max().y <= frame.max().y
}

#[derive(Clone, Copy)]
enum Query {
    Fix,
    Region,
    Rect,
    Proximity,
    CoLocation,
}

const QUERY_MIX: [Query; 8] = [
    Query::Fix,
    Query::Fix,
    Query::Fix,
    Query::Fix,
    Query::Region,
    Query::Rect,
    Query::Proximity,
    Query::CoLocation,
];

/// Query errors that are documented answers rather than failures: the
/// object has no usable evidence (`NoLocation`) or only evidence from
/// quarantined sensors (`SensorsQuarantined`).
const DEGRADED_ANSWERS: [&str; 2] = ["NoLocation", "SensorsQuarantined"];

/// The query thread's spin margin before a due time. It sleeps the rest
/// of each gap, so it leaves the generator's core alone; a query that
/// starts late is still timed from its own start.
const QUERY_SPIN: Duration = Duration::from_micros(20);

struct Reader {
    latencies_us: Vec<f64>,
    busy_s: f64,
    /// Errors by kind.
    errors: BTreeMap<String, u64>,
    rec: Recorder,
}

/// Shared between the generator and the query thread.
struct Progress {
    sim_bits: AtomicU64,
    traced: AtomicBool,
}

/// Issues `total` queries, paced at [`QUERY_RATE`] from `t0`, so the
/// number of operations is fixed by the command line.
fn reader(
    w: &World,
    progress: &Progress,
    seed: u64,
    origin: Instant,
    t0: Instant,
    total: usize,
) -> Reader {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00e0_ad5e);
    let ids: Vec<_> = w.people.iter().map(|p| p.id.clone()).collect();
    let mut r = Reader {
        latencies_us: Vec::new(),
        busy_s: 0.0,
        errors: BTreeMap::new(),
        rec: Recorder::new(origin),
    };
    for k in 1..=total {
        pace::wait_until(pace::due(t0, k, QUERY_RATE), QUERY_SPIN);
        let kind = QUERY_MIX[k % QUERY_MIX.len()];
        let a = &ids[rng.gen_range(0..ids.len())];
        let b = &ids[rng.gen_range(0..ids.len())];
        let room = &w.plan.rooms[rng.gen_range(0..w.plan.rooms.len())];
        let now = SimTime::from_secs(f64::from_bits(progress.sim_bits.load(Ordering::Acquire)));
        let located = |target| LocationQuery {
            object: a.clone(),
            target,
            now,
            deadline: None,
        };
        let start = Instant::now();
        let (result, span) = match kind {
            Query::Fix => (
                w.svc.query(located(QueryTarget::Fix)).map(drop),
                "core.query",
            ),
            Query::Region => (
                w.svc
                    .query(located(QueryTarget::Region(room.0.clone())))
                    .map(drop),
                "core.query",
            ),
            Query::Rect => (
                w.svc.query(located(QueryTarget::Rect(room.1))).map(drop),
                "core.query",
            ),
            Query::Proximity => (
                w.svc.proximity(a, b, 30.0, now).map(drop),
                "reasoning.relation",
            ),
            Query::CoLocation => (
                w.svc.co_location(a, b, 2, now).map(drop),
                "reasoning.relation",
            ),
        };
        let end = Instant::now();
        r.latencies_us.push((end - start).as_secs_f64() * 1e6);
        r.busy_s += (end - start).as_secs_f64();
        if progress.traced.load(Ordering::Relaxed) {
            r.rec.record(span, start, end, ROOT, k as u64);
        }
        if let Err(e) = result {
            *r.errors.entry(error_kind(&e)).or_default() += 1;
        }
    }
    r
}

/// What the generator saw for one output.
#[derive(Default)]
struct Delivered {
    returned: Vec<Notification>,
    received: Vec<Note>,
    excluded: Option<HashSet<SensorId>>,
    /// Readings of this output the service's supervisor turned away.
    sut_rejected: usize,
    ingest_span: Option<u32>,
}

/// Runs `floor_fusion`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = E2eSamples::default();
    let mut world = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(world.take());
        let start = Instant::now();
        world = Some(build(cfg.seed));
        e2e.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = world.expect("built at least once");

    let inbox = w.svc.subscribe_notifications(DeliveryPolicy::Unbounded);
    let timed = (RATE * cfg.seconds).ceil() as usize;
    let sched = generate(&mut w, timed);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let progress = Progress {
        sim_bits: AtomicU64::new(0f64.to_bits()),
        traced: AtomicBool::new(false),
    };
    let mut delivered: Vec<Delivered> = Vec::with_capacity(sched.outputs.len());
    let mut late = Lateness::default();
    // [untraced, traced]: ingest-call ns, calls, readings, received.
    let mut phase_ns = [0.0f64; 2];
    let mut phase_calls = [0.0f64; 2];
    let mut phase_readings = [0.0f64; 2];
    let mut phase_received = [0.0f64; 2];
    let mut traced_snap = None;
    let mut traced_from = usize::MAX;
    let supervisor = w.svc.supervisor().expect("supervised service").clone();
    let mut excluded: Option<HashSet<SensorId>> = None;

    // Admission is the only place these move, and only the generator
    // ingests, so their change across one call is that call's.
    let turned_away = [
        w.registry.counter("health.readings_rejected"),
        w.registry.counter("health.quarantine_dropped"),
    ];
    let ingest = |w: &World, i: usize, d: &mut Delivered| -> (Instant, Instant) {
        let output = sched.outputs[i].clone();
        let now = sched.at[i];
        progress
            .sim_bits
            .store(now.as_secs().to_bits(), Ordering::Release);
        let before: u64 = turned_away.iter().map(mw_obs::Counter::get).sum();
        let start = Instant::now();
        d.returned = w.svc.ingest(output, now);
        let end = Instant::now();
        let after: u64 = turned_away.iter().map(mw_obs::Counter::get).sum();
        d.sut_rejected = (after - before) as usize;
        (start, end)
    };

    // Warm-up: the first simulated seconds, back to back, untimed.
    for i in 0..sched.warm {
        let mut d = Delivered::default();
        ingest(&w, i, &mut d);
        d.received = drain(&inbox).0;
        delivered.push(d);
    }

    let queries = (QUERY_RATE * cfg.seconds).ceil() as usize;
    let t0 = Instant::now() + Duration::from_millis(1);
    let reader_out = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(&w, &progress, cfg.seed, origin, t0, queries));
        let mut prev_end = None;
        for j in 0..timed.min(sched.outputs.len() - sched.warm) {
            let i = sched.warm + j;
            let due = pace::due(t0, j, RATE);
            let traced = cfg.trace && j >= timed / 2;
            if traced && traced_snap.is_none() {
                traced_snap = Some(w.registry.snapshot());
                traced_from = i;
                progress.traced.store(true, Ordering::Relaxed);
            }
            pace::wait_until(due, Duration::MAX);
            let mut d = Delivered::default();
            let (start, end) = ingest(&w, i, &mut d);
            late.record(due, start, prev_end);
            prev_end = Some(end);
            let (received, at) = drain(&inbox);
            let call = end - start;
            e2e.trigger_us
                .push(((at - due).as_secs_f64() * 1e6, received.len() as u64));
            let p = usize::from(traced);
            phase_ns[p] += call.as_nanos() as f64;
            phase_calls[p] += 1.0;
            phase_readings[p] += sched.outputs[i].readings.len() as f64;
            phase_received[p] += received.len() as f64;
            e2e.readings += sched.outputs[i].readings.len() as u64;
            e2e.ingest_busy_s += call.as_secs_f64();
            e2e.batch_ms.push(call.as_secs_f64() * 1e3);
            if traced {
                let parent = rec.record("core.ingest", start, end, ROOT, i as u64);
                rec.record("bus.deliver", end, at, parent, i as u64);
                d.ingest_span = Some(parent);
            }
            // The quarantined set the notification re-check must leave
            // out; never wait for the lock (the query path holds it too),
            // keep the last set seen instead.
            if let Ok(guard) = supervisor.try_lock() {
                excluded = (guard.quarantined_count() > 0).then(|| guard.excluded());
            }
            d.excluded = excluded.clone();
            d.received = received;
            delivered.push(d);
        }
        reader.join().expect("query thread panicked")
    });

    // Oracle replay over everything ingested, warm-up included; in the
    // traced half the replay also times the shadow calls.
    let consumed = delivered.len();
    let mut shadow = Shadow::new(w.plan.db.clone(), w.plan.universe);
    let mut shadow_rejected_before = 0u64;
    let mut rejected_genuine: BTreeMap<String, u64> = BTreeMap::new();
    let mut digest = Digest::default();
    let ever_quarantined: HashSet<SensorId> = delivered
        .iter()
        .filter_map(|d| d.excluded.as_ref())
        .flatten()
        .cloned()
        .collect();
    let (mut rechecked, mut unchecked) = (0u64, 0u64);
    let mut outside_by_sensor: BTreeMap<String, usize> = BTreeMap::new();
    out.fail("rejected_genuine_reading", 0);
    out.fail("query_error", 0);
    for name in [
        "out_of_frame_admitted",
        "fusion_recheck_below_threshold",
        "missing_notification",
        "extra_notification",
        "duplicate_notification",
    ] {
        out.mismatch(name, 0);
    }
    for (i, d) in delivered.iter().enumerate() {
        if i == traced_from {
            shadow_rejected_before = shadow.counts().rejected;
            shadow.reset_counts();
        }
        let now = sched.at[i];
        let output = &sched.outputs[i];
        let id = i as u64;
        let rejected = match d.ingest_span {
            Some(parent) => shadow.apply_following(
                output,
                now,
                Some(d.sut_rejected),
                Some(SpanSink {
                    rec: &mut rec,
                    parent,
                    id,
                }),
            ),
            None => shadow.apply_following(output, now, Some(d.sut_rejected), None),
        };
        shadow.tick(now);
        // The frame gate looks at the reading alone: every reading that
        // reaches past the frame must be among those the service turned
        // away.
        if sched.outside[i] > 0 {
            for r in &output.readings {
                if !frame_contains(&w.plan.universe, &r.region) {
                    *outside_by_sensor
                        .entry(r.sensor_id.as_str().to_string())
                        .or_default() += 1;
                }
            }
            if d.sut_rejected < sched.outside[i] {
                out.mismatch(
                    "out_of_frame_admitted",
                    (sched.outside[i] - d.sut_rejected) as u64,
                );
            }
        }
        for (r, decision) in rejected {
            if !sched.genuine[i][r] {
                continue;
            }
            // The frame gate looks at the reading alone, so the service
            // turned it away too; the history-dependent gates (velocity,
            // quarantine) are only reported, since the service's sensor
            // history also moves with the queries it answers.
            if decision == GateDecision::Reject(Violation::OutOfFrame) {
                out.fail("rejected_genuine_reading", 1);
            }
            *rejected_genuine
                .entry(format!("{decision:?}"))
                .or_insert(0u64) += 1;
        }
        // Fresh fusion of every object this output touched (timed in the
        // traced half), and the re-check of what fired.
        let mut touched: Vec<&mw_sensors::MobileObjectId> =
            output.readings.iter().map(|r| &r.object).collect();
        touched.extend(output.revocations.iter().map(|r| &r.object));
        touched.sort();
        touched.dedup();
        let mut fused = HashMap::new();
        for object in touched {
            let needed = d.ingest_span.is_some() || d.returned.iter().any(|n| &n.object == object);
            if !needed {
                continue;
            }
            let ex = d.excluded.as_ref();
            let result = match d.ingest_span {
                Some(parent) => shadow.fuse(
                    object,
                    now,
                    ex,
                    Some(SpanSink {
                        rec: &mut rec,
                        parent,
                        id,
                    }),
                ),
                None => shadow.fuse(object, now, ex, None),
            };
            fused.insert(object.clone(), result);
        }
        // The query thread moves sensors in and out of quarantine while
        // the service evaluates rules, so a firing is only re-checked when
        // none of the object's live readings comes from a sensor that was
        // ever quarantined; the rest are counted as unchecked.
        for n in &d.returned {
            let (region, threshold) = w.rules[&n.subscription.value()];
            if shadow
                .live_sensors(&n.object, now)
                .iter()
                .any(|s| ever_quarantined.contains(s))
            {
                unchecked += 1;
                continue;
            }
            rechecked += 1;
            if shadow.probability(&n.object, now, None, &region) + 1e-9 < threshold {
                out.mismatch("fusion_recheck_below_threshold", 1);
            }
        }
        let returned: Vec<Note> = d.returned.iter().map(note).collect();
        let f = delivery_failures(&returned, &d.received);
        out.mismatch("missing_notification", f.missing);
        out.mismatch("extra_notification", f.extra);
        out.mismatch("duplicate_notification", f.duplicate + f.out_of_order);
        if i < sched.warm {
            digest.add(returned.iter().map(|n| (n.sub, n.object.as_str())));
        }
    }
    for (kind, n) in &reader_out.errors {
        let documented = DEGRADED_ANSWERS.contains(&kind.as_str());
        if !documented {
            out.fail("query_error", *n);
        }
        out.note(format!(
            "query errors {kind}: {n}{}",
            if documented {
                " (a documented degraded answer)"
            } else {
                ""
            }
        ));
    }
    out.note(format!(
        "fusion re-check: {rechecked} firings re-checked, {unchecked} left unchecked (evidence from a sensor that was quarantined during the run)"
    ));
    for (sensor, n) in &outside_by_sensor {
        out.note(format!(
            "readings from {sensor} reaching past the floor outline, turned away by the frame gate: {n}"
        ));
    }
    for (decision, n) in &rejected_genuine {
        out.note(format!(
            "genuine readings the shadow supervisor rejected as {decision}: {n}"
        ));
    }

    let queries = reader_out.latencies_us.len() as u64;
    out.attempted = e2e.readings + queries;
    out.valid = late.valid();
    let notifications: usize = delivered.iter().map(|d| d.returned.len()).sum();
    out.note(format!(
        "floor_fusion: {PEOPLE} people, {} rooms, {} sensors, {RULES} rules; {} outputs ({} warm-up) at {RATE}/s, {} readings, {queries} queries, {notifications} notifications",
        w.plan.rooms.len(),
        w.deployment.len(),
        consumed,
        sched.warm,
        e2e.readings,
    ));
    out.note(format!(
        "generator: own lateness p99 {:.1} us ({}), {} outputs behind a running call",
        late.p99_us(),
        if out.valid {
            "valid"
        } else {
            "INVALID: the generator fell behind"
        },
        late.backlogged
    ));
    out.note(format!(
        "notification digest (warm-up outputs, ingested before the query thread starts): {:016x}",
        digest.0
    ));
    let snap = w.registry.snapshot();
    out.note(format!(
        "supervisor: {} sensors quarantined at the end; the service rejected {} readings and dropped {} from quarantined sensors, the shadow (no query feedback) rejected {} of {}",
        supervisor.lock().expect("supervisor lock poisoned").quarantined_count(),
        snap.counter("health.readings_rejected").unwrap_or(0),
        snap.counter("health.quarantine_dropped").unwrap_or(0),
        shadow_rejected_before + shadow.counts().rejected,
        sched.outputs[..consumed].iter().map(|o| o.readings.len()).sum::<usize>(),
    ));

    if let Some(before) = traced_snap.as_ref() {
        let after = w.registry.snapshot();
        rec.merge(reader_out.rec);
        let spans = rec.totals();
        let inputs = LayerInputs {
            spans: &spans,
            sut: Delta {
                before,
                after: &after,
            },
            shadow: &shadow,
            readings: phase_readings[1],
            call_ns: phase_ns[1] / phase_calls[1].max(1.0),
            readings_per_call: phase_readings[1] / phase_calls[1].max(1.0),
            core_ns_per_reading: phase_ns[1] / phase_readings[1].max(1.0),
            untraced_ns_per_reading: phase_ns[0] / phase_readings[0].max(1.0),
            gen_ns_per_reading: sched.gen_ns / sched.readings.max(1) as f64,
            late_p99_us: late.p99_us(),
            received: phase_received[1],
            supervised: true,
        };
        layers::fill(&mut out, &inputs);
        crate::write_trace(&rec, "floor_fusion", cfg.seed, &mut out);
    }
    drop(w);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let start = Instant::now();
        let built = build(cfg.seed);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    e2e.query_us = reader_out.latencies_us;
    e2e.query_busy_s = reader_out.busy_s;
    e2e.finish(&mut out);
    out
}

/// The variant name of a service error, e.g. `NoLocation`.
fn error_kind(e: &mw_core::CoreError) -> String {
    let debug = format!("{e:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("")
        .to_string()
}

fn note(n: &Notification) -> Note {
    Note {
        sub: n.subscription.value(),
        object: n.object.as_str().to_string(),
    }
}

/// Drains the inbox; returns what arrived and when.
fn drain(inbox: &mw_bus::Subscription<SharedNotification>) -> (Vec<Note>, Instant) {
    let mut got = Vec::new();
    while let Some(n) = inbox.try_recv() {
        got.push(note(&n));
    }
    (got, Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_geometry::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn frame_check_includes_edges_and_catches_coverage_past_the_outline() {
        let frame = rect(0.0, 0.0, 500.0, 80.0);
        assert!(frame_contains(&frame, &rect(475.0, 50.0, 500.0, 80.0)));
        assert!(frame_contains(&frame, &frame));
        // The end room's RFID coverage reaches 5 ft past the floor.
        assert!(!frame_contains(&frame, &rect(475.0, 50.0, 505.0, 80.0)));
        assert!(!frame_contains(&frame, &rect(-0.5, 10.0, 3.0, 12.0)));
    }
}
