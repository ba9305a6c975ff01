//! Multi-sensor location fusion — the core algorithm of the MiddleWhere
//! paper (§4.1–§4.4).
//!
//! The pipeline, exactly as the paper describes it:
//!
//! 1. Every sensor reading is converted to a **minimum bounding rectangle**
//!    in a common coordinate system (done by the adapters in `mw-sensors`).
//! 2. Readings about one object are checked for **conflicts**: disjoint
//!    groups of rectangles mean at least one sensor is wrong, and rules
//!    pick the survivor ([`conflict`]).
//! 3. The surviving rectangles and their pairwise intersections form a
//!    **containment lattice** ([`RegionLattice`], the paper's Figures 5–6).
//! 4. Bayes' theorem assigns each lattice region the probability that the
//!    person is actually inside it ([`bayes`], Equations 1–7).
//! 5. Posteriors are classified into **low / medium / high / very-high**
//!    bands so applications need not handle raw probabilities
//!    ([`ProbabilityBand`], §4.4).
//!
//! The entry point is [`FusionEngine`]:
//!
//! ```
//! use mw_fusion::FusionEngine;
//! use mw_geometry::{Point, Rect};
//! use mw_model::SimTime;
//! # use mw_sensors::{SensorReading, SensorSpec};
//! # use mw_model::{SimDuration, TemporalDegradation};
//! # fn reading(region: Rect) -> SensorReading {
//! #     SensorReading {
//! #         sensor_id: "Ubi-1".into(),
//! #         spec: SensorSpec::ubisense(1.0),
//! #         object: "alice".into(),
//! #         glob_prefix: "SC/3".parse().unwrap(),
//! #         region,
//! #         detected_at: SimTime::ZERO,
//! #         time_to_live: SimDuration::from_secs(60.0),
//! #         tdf: TemporalDegradation::None,
//! #         moving: false,
//! #     }
//! # }
//!
//! let universe = Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0));
//! let engine = FusionEngine::new(universe);
//! let readings = vec![
//!     reading(Rect::new(Point::new(10.0, 10.0), Point::new(20.0, 20.0))),
//!     reading(Rect::new(Point::new(12.0, 12.0), Point::new(30.0, 25.0))),
//! ];
//! let result = engine.fuse(&readings, SimTime::ZERO);
//! let best = result.best_estimate().expect("two live readings");
//! // The two rectangles reinforce each other in their intersection.
//! assert!(best.probability > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
mod classify;
pub mod conflict;
mod engine;
mod error;
mod lattice;
mod shared;
mod smallbuf;

pub use classify::{BandThresholds, ProbabilityBand};
pub use conflict::{ConflictOutcome, ConflictRule};
pub use engine::{Estimate, FusionEngine, FusionResult};
pub use error::FusionError;
pub use lattice::{NodeId, NodeKind, RegionLattice};
pub use shared::SharedFusion;
pub use smallbuf::SmallBuf;

// The Location Service (mw-core) is shared by every caller thread:
// `FusionResult` sits as `Arc<FusionResult>` in the shard cache that
// concurrent queries read, and the service holds the engine. Assert
// the auto-traits at compile time so an interior-mutability change here
// (a `Cell`, an `Rc`) fails this crate's build instead of surfacing as a
// cryptic bound error three crates up.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FusionResult>();
    assert_send_sync::<SharedFusion>();
    assert_send_sync::<FusionEngine>();
    assert_send_sync::<Estimate>();
};
