//! Shadow calls: layers the service calls internally (admission, the
//! reading table, fusion) are timed by feeding the same inputs to the
//! benchmark's own instances of them. The shadow also serves as the
//! floor oracle's independent view of each object's live readings.

use std::collections::HashSet;
use std::time::Instant;

use mw_fusion::{FusionEngine, FusionResult};
use mw_geometry::Rect;
use mw_model::SimTime;
use mw_sensors::health::{GateDecision, HealthConfig, SensorSupervisor};
use mw_sensors::{AdapterOutput, MobileObjectId, SensorId};
use mw_spatial_db::SpatialDatabase;

use crate::trace::Recorder;

/// Where shadow spans go: the recorder, the ingest span they stand in
/// for, and the reading id.
pub struct SpanSink<'a> {
    /// Recorder.
    pub rec: &'a mut Recorder,
    /// Parent span index.
    pub parent: u32,
    /// Reading id.
    pub id: u64,
}

fn timed<R>(sink: &mut Option<SpanSink<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match sink {
        Some(s) => {
            let start = Instant::now();
            let out = f();
            s.rec.record(name, start, Instant::now(), s.parent, s.id);
            out
        }
        None => f(),
    }
}

/// Supervisor, reading table and fusion engine mirroring the service's.
pub struct Shadow {
    supervisor: SensorSupervisor,
    db: SpatialDatabase,
    engine: FusionEngine,
    counts: Counts,
}

/// What the shadow did since the last [`Shadow::reset_counts`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Readings offered.
    pub readings: u64,
    /// Readings the supervisor turned away.
    pub rejected: u64,
    /// Rows revocations removed.
    pub revoked: u64,
    /// Fusions run.
    pub fuses: u64,
    /// Summed lattice sizes of those fusions.
    pub lattice_regions: u64,
}

impl Shadow {
    /// A shadow over `db`'s static world, fusing within `universe`, with
    /// the supervision defaults a deployed node uses.
    #[must_use]
    pub fn new(db: SpatialDatabase, universe: Rect) -> Self {
        Shadow {
            supervisor: SensorSupervisor::new(HealthConfig::new(universe)),
            db,
            engine: FusionEngine::new(universe),
            counts: Counts::default(),
        }
    }

    /// Counts since the last reset.
    #[must_use]
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Starts counting afresh (at the start of a traced phase).
    pub fn reset_counts(&mut self) {
        self.counts = Counts::default();
    }

    /// Applies one adapter output as the service does (revocations,
    /// then admitted readings; see [`Shadow::tick`]). Returns the
    /// readings the shadow supervisor turned away, by index, with its
    /// verdict.
    pub fn apply(
        &mut self,
        output: &AdapterOutput,
        now: SimTime,
        sink: Option<SpanSink<'_>>,
    ) -> Vec<(usize, GateDecision)> {
        self.apply_following(output, now, None, sink)
    }

    /// [`Shadow::apply`], but the reading table follows the service's
    /// admission when `service_rejected` (how many of the output's
    /// readings the service turned away) settles it: none or all.
    pub fn apply_following(
        &mut self,
        output: &AdapterOutput,
        now: SimTime,
        service_rejected: Option<usize>,
        mut sink: Option<SpanSink<'_>>,
    ) -> Vec<(usize, GateDecision)> {
        let forced = service_rejected.and_then(|k| match k {
            0 => Some(true),
            k if k == output.readings.len() => Some(false),
            _ => None,
        });
        let mut rejected = Vec::new();
        for rev in &output.revocations {
            let db = &mut self.db;
            self.counts.revoked += timed(&mut sink, "db.revoke", || {
                db.revoke_readings(&rev.sensor_id, &rev.object)
            }) as u64;
        }
        for (i, reading) in output.readings.iter().enumerate() {
            self.counts.readings += 1;
            let mut reading = reading.clone();
            let supervisor = &mut self.supervisor;
            let decision = timed(&mut sink, "sensors.admit", || {
                supervisor.admit(&mut reading, now)
            });
            if !decision.is_admitted() {
                self.counts.rejected += 1;
                rejected.push((i, decision));
            }
            if !forced.unwrap_or(decision.is_admitted()) {
                continue;
            }
            let db = &mut self.db;
            timed(&mut sink, "db.insert", || db.insert_reading(reading, now));
        }
        rejected
    }

    /// The supervisor's staleness watchdog, run once per ingest call as
    /// the service does.
    pub fn tick(&mut self, now: SimTime) {
        self.supervisor.tick(now);
    }

    /// Fuses `object`'s live readings afresh, leaving out `excluded`
    /// sensors.
    pub fn fuse(
        &mut self,
        object: &MobileObjectId,
        now: SimTime,
        excluded: Option<&HashSet<SensorId>>,
        mut sink: Option<SpanSink<'_>>,
    ) -> FusionResult {
        let live = self.db.live_readings_for(object, now);
        let engine = &self.engine;
        let result = timed(&mut sink, "fusion.fuse", || match excluded {
            Some(ex) if !ex.is_empty() => engine.fuse_excluding(&live, now, ex),
            _ => engine.fuse(&live, now),
        });
        self.counts.fuses += 1;
        self.counts.lattice_regions += result.lattice().len() as u64;
        result
    }

    /// Sensors behind `object`'s live readings at `now`.
    #[must_use]
    pub fn live_sensors(&self, object: &MobileObjectId, now: SimTime) -> Vec<SensorId> {
        self.db
            .live_readings_for(object, now)
            .into_iter()
            .map(|r| r.sensor_id)
            .collect()
    }

    /// Probability that `object` is in `region` by a fresh fusion of its
    /// live readings, leaving out `excluded` sensors (not counted).
    #[must_use]
    pub fn probability(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        excluded: Option<&HashSet<SensorId>>,
        region: &Rect,
    ) -> f64 {
        let live = self.db.live_readings_for(object, now);
        let empty = HashSet::new();
        self.engine
            .fuse_excluding(&live, now, excluded.unwrap_or(&empty))
            .region_probability_fast(region)
    }

    /// Mean lattice regions per shadow fusion.
    #[must_use]
    pub fn mean_lattice_regions(&self) -> f64 {
        crate::report::ratio(self.counts.lattice_regions as f64, self.counts.fuses as f64)
    }

    /// Rows the shadow's revocations removed, per reading.
    #[must_use]
    pub fn revoked_per_reading(&self) -> f64 {
        crate::report::ratio(self.counts.revoked as f64, self.counts.readings as f64)
    }
}
