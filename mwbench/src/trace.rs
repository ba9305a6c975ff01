//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! (and around the shadow calls that stand in for layers the service
//! calls internally). A span has a name, start, end, the index of the
//! span that caused it, and the id of the reading (or query) it belongs
//! to. A layer's self time is its spans' time minus the time of their
//! child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.ingest`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Reading or query id shared by the spans of one operation.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: f64,
    /// Summed self time (duration minus child durations), ns. Children
    /// timed outside their parent's interval (shadow calls) make this
    /// an estimate, and it can go negative.
    pub self_ns: f64,
}

impl SpanTotals {
    /// Mean duration, ns; 0 without spans.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// Span recorder; one per thread, merged at the end.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `origin` (share it across threads so
    /// merged spans line up).
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span; returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Appends another recorder's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns() as f64;
            t.self_ns += s.dur_ns() as f64 - child as f64;
        }
        out
    }

    /// Writes at most `cap` spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &std::path::Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(cap) {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let ms = Duration::from_millis;
        let parent = rec.record("core.ingest", t0, t0 + ms(10), ROOT, 1);
        rec.record("fusion.fuse", t0 + ms(1), t0 + ms(4), parent, 1);
        rec.record("db.insert", t0 + ms(5), t0 + ms(6), parent, 1);
        let totals = rec.totals();
        let ingest = totals["core.ingest"];
        assert_eq!(ingest.count, 1);
        assert!((ingest.total_ns - 10e6).abs() < 1.0);
        assert!((ingest.self_ns - 6e6).abs() < 1.0);
        assert!((totals["fusion.fuse"].self_ns - 3e6).abs() < 1.0);
    }

    #[test]
    fn merge_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Recorder::new(t0);
        a.record("x", t0, t0, ROOT, 0);
        let mut b = Recorder::new(t0);
        let p = b.record("core.query", t0, t0 + Duration::from_micros(5), ROOT, 7);
        b.record(
            "reasoning.relation",
            t0,
            t0 + Duration::from_micros(2),
            p,
            7,
        );
        a.merge(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert!((a.totals()["core.query"].self_ns - 3000.0).abs() < 1.0);
    }
}
