//! Per-layer metrics of a traced run, shared by every workload.

use std::collections::BTreeMap;

use crate::report::{ratio, Delta, Outcome};
use crate::shadow::Shadow;
use crate::trace::SpanTotals;

/// What the traced phase of a workload measured.
pub struct LayerInputs<'a> {
    /// Span totals of the traced phase.
    pub spans: &'a BTreeMap<&'static str, SpanTotals>,
    /// Registry delta of the system under test over the traced phase.
    pub sut: Delta<'a>,
    /// The shadow pipeline fed the traced phase's inputs.
    pub shadow: &'a Shadow,
    /// Readings ingested in the traced phase.
    pub readings: f64,
    /// Client-side time per ingest call in the traced phase, ns.
    pub call_ns: f64,
    /// Readings per ingest call.
    pub readings_per_call: f64,
    /// Service-side ingest time per reading, ns (the client-side call
    /// time where the service is called in process).
    pub core_ns_per_reading: f64,
    /// Untraced phase: ingest-call ns per reading.
    pub untraced_ns_per_reading: f64,
    /// Generator cost, ns per reading.
    pub gen_ns_per_reading: f64,
    /// Generator's own lateness p99, µs.
    pub late_p99_us: f64,
    /// Notifications the subscriber received in the traced phase.
    pub received: f64,
    /// Whether the service under test is supervised (its registry then
    /// counts admission).
    pub supervised: bool,
}

fn mean(spans: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    spans.get(name).map_or(0.0, SpanTotals::mean_ns)
}

fn total(spans: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    spans.get(name).map_or(0.0, |t| t.total_ns)
}

/// Fills every per-layer metric into `out` and names the layer with
/// the largest self time per reading.
pub fn fill(out: &mut Outcome, i: &LayerInputs<'_>) {
    let s = i.spans;
    let readings = i.readings;
    let ingest_ns = i.core_ns_per_reading;
    let call_ns_per_reading = ratio(i.call_ns, i.readings_per_call);
    // Shadow calls may cover a sample of the traced readings; scale them
    // per reading the shadow actually saw.
    let shadow_readings = i.shadow.counts().readings as f64;
    let per_shadow_reading = |name: &str| ratio(total(s, name), shadow_readings);
    let shadow_ns = per_shadow_reading("sensors.admit")
        + per_shadow_reading("db.insert")
        + per_shadow_reading("db.revoke")
        + per_shadow_reading("fusion.fuse");
    let core_self = ingest_ns - shadow_ns;
    let published = i.sut.counter("core.notifications.published");
    let sut_readings = i.sut.counter("core.ingest.readings");

    out.set("sim.gen_ns_per_reading", i.gen_ns_per_reading);
    out.set("sim.late_p99_us", i.late_p99_us);
    out.set("sensors.admit_ns", mean(s, "sensors.admit"));
    // An unsupervised service admits everything; the shadow supervisor
    // there only times what admission would cost.
    let rejected_frac = if i.supervised {
        let rejected =
            i.sut.counter("health.readings_rejected") + i.sut.counter("health.quarantine_dropped");
        ratio(rejected, sut_readings)
    } else {
        0.0
    };
    out.set("sensors.rejected_frac", rejected_frac);
    out.set("db.insert_ns", mean(s, "db.insert"));
    out.set("db.revoke_ns", mean(s, "db.revoke"));
    out.set("db.revoked_per_reading", i.shadow.revoked_per_reading());
    out.set("fusion.fuse_ns", mean(s, "fusion.fuse"));
    out.set("fusion.lattice_regions", i.shadow.mean_lattice_regions());
    out.set(
        "fusion.fuses_per_reading",
        ratio(i.sut.counter("fusion.fuse.count"), sut_readings),
    );
    let hits = i.sut.counter("fusion.cache.hits");
    out.set(
        "fusion.cache_hit_frac",
        ratio(hits, hits + i.sut.counter("fusion.cache.misses")),
    );
    out.set("core.ingest_ns_per_reading", ingest_ns);
    out.set("core.self_ns_per_reading", core_self);
    out.set(
        "rules.candidates_per_reading",
        ratio(i.sut.counter("rules.candidates.examined"), sut_readings),
    );
    let skipped = i.sut.counter("rules.eval.skipped");
    out.set(
        "rules.eval_skip_frac",
        ratio(skipped, skipped + i.sut.counter("rules.eval.dirty")),
    );
    out.set(
        "core.notifications_per_reading",
        ratio(published, sut_readings),
    );
    out.set("core.query_ns", mean(s, "core.query"));
    out.set(
        "core.shard_contention_per_query",
        ratio(
            i.sut.counter("core.shard.contention"),
            i.sut.counter("core.query.count"),
        ),
    );
    out.set("reasoning.relation_ns", mean(s, "reasoning.relation"));
    out.set("bus.deliver_us", mean(s, "bus.deliver") / 1e3);
    out.set("bus.frames_per_notification", ratio(i.received, published));
    out.set("bus.frames_lost", (published - i.received).max(0.0));
    out.set("cluster.route_ingest_us", i.call_ns / 1e3);
    out.set("cluster.route_query_us", mean(s, "core.query") / 1e3);
    out.set(
        "cluster.node_ingest_us",
        i.sut.hist_mean("core.ingest.latency_us"),
    );
    out.set(
        "cluster.deltas_per_ingest",
        ratio(
            i.sut.counter("cluster.node.deltas_published"),
            ratio(readings, i.readings_per_call),
        ),
    );
    let overhead = ratio(call_ns_per_reading, i.untraced_ns_per_reading) - 1.0;
    out.set("obs.trace_overhead_frac", overhead);

    out.note(format!(
        "tracing overhead: ingest call {:.0} ns/reading traced vs {:.0} untraced ({:+.1}%)",
        call_ns_per_reading,
        i.untraced_ns_per_reading,
        100.0 * overhead
    ));
    let mut selfs = [
        ("mw-sim (generator)", i.gen_ns_per_reading),
        (
            "mw-sensors (admit, shadow)",
            per_shadow_reading("sensors.admit"),
        ),
        (
            "mw-spatial-db (insert+revoke, shadow)",
            per_shadow_reading("db.insert") + per_shadow_reading("db.revoke"),
        ),
        (
            "mw-fusion (fuse, shadow)",
            per_shadow_reading("fusion.fuse"),
        ),
        ("mw-core (ingest self, estimate)", core_self),
        ("mw-bus (deliver)", ratio(total(s, "bus.deliver"), readings)),
    ];
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(format!(
        "self time per reading: {}",
        selfs
            .iter()
            .map(|(l, v)| format!("{l} {v:.0} ns"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!(
        "largest self time on the ingest path: {} ({:.0} ns/reading)",
        selfs[0].0, selfs[0].1
    ));
}
