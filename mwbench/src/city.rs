//! `city_rush`: a 100k-object city with 10k look-alike region rules,
//! driven closed loop on one thread by rush-hour and diurnal ticks in
//! 1000-move batches.
//!
//! Why: it is the object-heavy, rule-heavy, fan-out-heavy regime (a few
//! hundred notifications per reading) whose working set is far larger
//! than the CPU caches. Each object has a single evidence rect, so
//! fusion is trivial here; the rule layer and per-object state do the
//! work.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mw_bus::Broker;
use mw_core::{
    LocationQuery, LocationService, Notification, Predicate, QueryTarget, Rule, ServiceTuning,
};
use mw_geometry::Rect;
use mw_model::SimTime;
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, MobileObjectId};
use mw_sim::zipf::{sample_zipf, zipf_cdf};
use mw_sim::{City, CityConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, LayerInputs};
use crate::oracle::{city_batch_failures, Digest};
use crate::pace::Lateness;
use crate::report::{Delta, E2eSamples, Outcome};
use crate::shadow::{Shadow, SpanSink};
use crate::trace::{Recorder, ROOT};
use crate::Config;

/// Set-ups per run, half before the measured phase and half after it, so
/// that their median (`setup_s`) samples the host twice. Cheap set-ups
/// repeat more.
const SETUP_REPS: usize = 10;

/// City shape: 80 buildings × 3 floors × (12 rooms + hall) = 3120 rooms.
const BUILDINGS: usize = 80;
const FLOORS: usize = 3;
const ROOMS_PER_FLOOR: usize = 12;
const POPULATION: usize = 100_000;
const RULES: usize = 10_000;
/// Zipf exponent of work-room popularity and of rule placement; both
/// rank rooms the same way, so hot rooms carry crowds of rules.
const ZIPF_S: f64 = 1.1;
/// Moves per ingest call: the fixed batch shape.
const BATCH: usize = 1_000;
/// Queries issued after each batch, cycling through [`QUERY_MIX`].
const QUERIES_PER_BATCH: usize = 8;
/// Diurnal ticks after each rush hour: two workward, two homeward.
const HOURS: [f64; 4] = [12.0, 14.0, 20.0, 22.0];
const CHURN: f64 = 0.3;
/// Nominal length of one cycle: about 117k readings, which took 1 to 2 s
/// on a two-core host depending on its other load.
const CYCLE_SECS: f64 = 2.0;

#[derive(Clone, Copy)]
enum Query {
    Fix,
    Region,
    Rect,
    Proximity,
    CoLocation,
}

const QUERY_MIX: [Query; QUERIES_PER_BATCH] = [
    Query::Fix,
    Query::Fix,
    Query::Fix,
    Query::Fix,
    Query::Region,
    Query::Rect,
    Query::Proximity,
    Query::CoLocation,
];

struct World {
    city: City,
    svc: Arc<LocationService>,
    registry: MetricsRegistry,
    _broker: Broker,
    rules_per_room: Vec<u64>,
    room_of: HashMap<[u64; 4], usize>,
    rooms: Vec<(String, Rect)>,
    people: Vec<MobileObjectId>,
}

fn rect_key(r: &Rect) -> [u64; 4] {
    [
        r.min().x.to_bits(),
        r.min().y.to_bits(),
        r.max().x.to_bits(),
        r.max().y.to_bits(),
    ]
}

/// Builds the city and service, seeds presence and registers the rules.
/// Returns the seed outputs too when `keep_seed` (the shadow needs them).
fn build(seed: u64, keep_seed: bool) -> (World, Vec<AdapterOutput>) {
    let mut city = City::new(&CityConfig {
        buildings: BUILDINGS,
        floors: FLOORS,
        rooms_per_floor: ROOMS_PER_FLOOR,
        population: POPULATION,
        zipf_exponent: ZIPF_S,
        seed,
    });
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let svc = LocationService::new_with_tuning_and_obs(
        city.plan().db.clone(),
        city.plan().universe,
        &broker,
        &registry,
        ServiceTuning::default(),
    );
    let now = SimTime::from_secs(1.0);
    let presence = city.seed_presence(now);
    let kept = if keep_seed {
        presence.clone()
    } else {
        Vec::new()
    };
    drop(svc.ingest_batch(presence, now));

    let rects = city.room_rects();
    let cdf = zipf_cdf(rects.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0031_5eed);
    let mut rules_per_room = vec![0u64; rects.len()];
    for _ in 0..RULES {
        let room = sample_zipf(&cdf, &mut rng);
        let rule = Rule::when(Predicate::in_region(rects[room], 0.3))
            .build()
            .expect("room rects are valid predicates");
        let _ = svc.subscribe_rule(rule);
        rules_per_room[room] += 1;
    }
    let room_of = rects
        .iter()
        .enumerate()
        .map(|(i, r)| (rect_key(r), i))
        .collect();
    let rooms = city.plan().rooms.clone();
    let people = city.people().to_vec();
    (
        World {
            city,
            svc,
            registry,
            _broker: broker,
            rules_per_room,
            room_of,
            rooms,
            people,
        },
        kept,
    )
}

/// Phase totals: ingest-call time and readings.
#[derive(Default)]
struct Phase {
    ingest_ns: f64,
    readings: f64,
    calls: f64,
    received: f64,
}

/// Runs `city_rush`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = E2eSamples::default();

    let mut world = None;
    let mut seed_outputs = Vec::new();
    for _ in 0..SETUP_REPS / 2 {
        drop(world.take());
        let start = Instant::now();
        let (w, kept) = build(cfg.seed, cfg.trace);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        world = Some(w);
        seed_outputs = kept;
    }
    let mut w = world.expect("built at least once");

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut shadow = cfg.trace.then(|| {
        let mut s = Shadow::new(w.city.plan().db.clone(), w.city.plan().universe);
        let now = SimTime::from_secs(1.0);
        for o in &seed_outputs {
            s.apply_following(o, now, Some(0), None);
        }
        s.tick(now);
        s.reset_counts();
        s
    });
    drop(seed_outputs);

    // A fixed number of whole cycles, scaled from `--seconds`: tick sizes
    // differ a lot within a cycle, so a run cut by the clock would change
    // its mix (and every percentile) with the host's speed.
    let total_cycles = ((cfg.seconds / CYCLE_SECS).round() as u64).max(2);
    let trace_from = total_cycles / 2;
    let mut fired: Vec<Notification> = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0051_ee75);
    let mut late = Lateness::default();
    let mut gen_ns = 0.0f64;
    let mut generated = 0u64;
    let mut queries = 0u64;
    let mut digest = Digest::default();
    let mut cycle_digest = None;
    let mut reading_id = 0u64;
    let mut phases = [Phase::default(), Phase::default()];
    let mut traced_snap = None;
    let mut sim = 10.0f64;
    let mut cycles = 0u64;
    out.mismatch("notification_count_mismatch", 0);
    out.fail("query_error", 0);

    while cycles < total_cycles {
        let traced = cfg.trace && cycles >= trace_from;
        if traced && traced_snap.is_none() {
            traced_snap = Some(w.registry.snapshot());
        }
        let phase = usize::from(traced);
        for tick in 0..=HOURS.len() {
            let now = SimTime::from_secs(sim);
            sim += 1.0;
            let g = Instant::now();
            let outputs = if tick == 0 {
                w.city.rush_hour_tick(now)
            } else {
                w.city.diurnal_tick(HOURS[tick - 1], CHURN, now)
            };
            gen_ns += g.elapsed().as_nanos() as f64;
            generated += outputs.len() as u64;

            let mut moves = outputs.into_iter();
            loop {
                let prep = Instant::now();
                let batch: Vec<AdapterOutput> = moves.by_ref().take(BATCH).collect();
                if batch.is_empty() {
                    break;
                }
                let expected: u64 = batch
                    .iter()
                    .map(|o| w.rules_per_room[w.room_of[&rect_key(&o.readings[0].region)]])
                    .sum();
                let n = batch.len() as u64;
                late.record_gap(prep.elapsed());
                let copy = traced.then(|| batch.clone());

                let t0 = Instant::now();
                w.svc.ingest_batch_into(batch, now, &mut fired);
                let t1 = Instant::now();

                // The caller's buffer is the subscriber.
                let actual = fired.len() as u64;
                if cycles == 0 {
                    digest.add(
                        fired
                            .iter()
                            .map(|n| (n.subscription.value(), n.object.as_str())),
                    );
                }
                // Dropping the delivered notifications is the subscriber's
                // work; left in the buffer, it would land in the next call.
                fired.clear();
                let t2 = Instant::now();

                let call = t1 - t0;
                e2e.readings += n;
                e2e.ingest_busy_s += call.as_secs_f64();
                e2e.batch_ms.push(call.as_secs_f64() * 1e3);
                // Every notification of the batch reached the caller when
                // the call returned.
                e2e.trigger_us.push((call.as_secs_f64() * 1e6, actual));
                out.mismatch(
                    "notification_count_mismatch",
                    city_batch_failures(expected, actual, n),
                );
                let p = &mut phases[phase];
                p.ingest_ns += call.as_nanos() as f64;
                p.readings += n as f64;
                p.calls += 1.0;
                p.received += actual as f64;

                if let (Some(batch), Some(shadow)) = (copy, shadow.as_mut()) {
                    let parent = rec.record("core.ingest", t0, t1, ROOT, reading_id);
                    rec.record("bus.deliver", t1, t2, parent, reading_id);
                    // The unsupervised service admits every reading, so
                    // the shadow's table does too; its supervisor only
                    // times what admission would cost.
                    for o in &batch {
                        reading_id += 1;
                        let id = reading_id;
                        let sink = Some(SpanSink {
                            rec: &mut rec,
                            parent,
                            id,
                        });
                        shadow.apply_following(o, now, Some(0), sink);
                        let object = &o.readings[0].object;
                        shadow.fuse(
                            object,
                            now,
                            None,
                            Some(SpanSink {
                                rec: &mut rec,
                                parent,
                                id,
                            }),
                        );
                    }
                    shadow.tick(now);
                } else {
                    reading_id += n;
                }

                for kind in QUERY_MIX {
                    queries += 1;
                    let (ok, span, start, end) = query(&w, kind, now, &mut rng);
                    if !ok {
                        out.fail("query_error", 1);
                    }
                    e2e.query_us.push((end - start).as_secs_f64() * 1e6);
                    e2e.query_busy_s += (end - start).as_secs_f64();
                    if traced {
                        rec.record(span, start, end, ROOT, queries);
                    }
                }
            }
        }
        cycles += 1;
        if cycles == 1 {
            cycle_digest = Some(digest.0);
        }
    }

    out.attempted = e2e.readings + queries;
    out.valid = true;
    out.note(format!(
        "city_rush: {} objects, {} rooms, {RULES} rules; {cycles} cycles, {} readings in {} batches, {queries} queries",
        POPULATION,
        w.rooms.len(),
        e2e.readings,
        e2e.batch_ms.len()
    ));
    out.note(format!(
        "notifications: {:.0} delivered, {:.1} per reading",
        phases[0].received + phases[1].received,
        (phases[0].received + phases[1].received) / e2e.readings.max(1) as f64
    ));
    if let Some(d) = cycle_digest {
        out.note(format!("notification digest (first cycle): {d:016x}"));
    }

    if let (Some(shadow), Some(before)) = (shadow.as_ref(), traced_snap.as_ref()) {
        let after = w.registry.snapshot();
        let spans = rec.totals();
        let traced = &phases[1];
        let untraced = &phases[0];
        let inputs = LayerInputs {
            spans: &spans,
            sut: Delta {
                before,
                after: &after,
            },
            shadow,
            readings: traced.readings,
            call_ns: traced.ingest_ns / traced.calls.max(1.0),
            readings_per_call: traced.readings / traced.calls.max(1.0),
            core_ns_per_reading: traced.ingest_ns / traced.readings.max(1.0),
            untraced_ns_per_reading: untraced.ingest_ns / untraced.readings.max(1.0),
            gen_ns_per_reading: gen_ns / generated.max(1) as f64,
            late_p99_us: late.p99_us(),
            received: traced.received,
            supervised: false,
        };
        layers::fill(&mut out, &inputs);
        crate::write_trace(&rec, "city_rush", cfg.seed, &mut out);
    }
    drop(w);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let start = Instant::now();
        let built = build(cfg.seed, cfg.trace);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    e2e.finish(&mut out);
    out
}

/// One query of `kind` about random people; returns success, span
/// name and timing.
fn query(
    w: &World,
    kind: Query,
    now: SimTime,
    rng: &mut StdRng,
) -> (bool, &'static str, Instant, Instant) {
    let a = &w.people[rng.gen_range(0..w.people.len())];
    let b = &w.people[rng.gen_range(0..w.people.len())];
    let room = &w.rooms[rng.gen_range(0..w.rooms.len())];
    let located = |target| LocationQuery {
        object: a.clone(),
        target,
        now,
        deadline: None,
    };
    let start = Instant::now();
    let (ok, span) = match kind {
        Query::Fix => (w.svc.query(located(QueryTarget::Fix)).is_ok(), "core.query"),
        Query::Region => (
            w.svc
                .query(located(QueryTarget::Region(room.0.clone())))
                .is_ok(),
            "core.query",
        ),
        Query::Rect => (
            w.svc.query(located(QueryTarget::Rect(room.1))).is_ok(),
            "core.query",
        ),
        Query::Proximity => (
            w.svc.proximity(a, b, 30.0, now).is_ok(),
            "reasoning.relation",
        ),
        Query::CoLocation => (
            w.svc.co_location(a, b, 2, now).is_ok(),
            "reasoning.relation",
        ),
    };
    (ok, span, start, Instant::now())
}
