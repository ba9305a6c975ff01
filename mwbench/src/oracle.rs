//! Output oracles. None of them shares code with the engine under test:
//! expectations come from what the benchmark itself registered and
//! generated, and every mismatch is a failed operation.

use std::collections::{HashMap, HashSet};

/// One delivered notification, reduced to what the oracles compare.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Note {
    /// Subscription id.
    pub sub: u64,
    /// Object id.
    pub object: String,
}

/// FNV-1a over bytes, continuing from `h`.
#[must_use]
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-sensitive digest across operations, order-insensitive within
/// one operation (the order of notifications inside one ingest call is
/// not part of the contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_BASIS)
    }
}

impl Digest {
    /// Folds one operation's notifications into the digest.
    pub fn add<'a>(&mut self, notes: impl IntoIterator<Item = (u64, &'a str)>) {
        let mut sum = 0u64;
        let mut count = 0u64;
        for (sub, object) in notes {
            sum = sum.wrapping_add(fnv(fnv(FNV_BASIS, &sub.to_le_bytes()), object.as_bytes()));
            count += 1;
        }
        self.0 = fnv(fnv(self.0, &count.to_le_bytes()), &sum.to_le_bytes());
    }
}

/// city_rush: a batch must fire exactly the rules registered on the
/// destination rooms of its moves. Returns the batch's failed readings:
/// all of them on a mismatch, since a count cannot say which one erred.
#[must_use]
pub fn city_batch_failures(expected: u64, actual: u64, readings: u64) -> u64 {
    if expected == actual {
        0
    } else {
        readings
    }
}

/// Failures found by comparing two notification streams.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamFailures {
    /// Expected but never delivered.
    pub missing: u64,
    /// Delivered but not expected.
    pub extra: u64,
    /// Delivered more than once.
    pub duplicate: u64,
    /// Delivered after a notification of a later operation.
    pub out_of_order: u64,
}

impl StreamFailures {
    /// Total failed notifications.
    #[cfg(test)]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.duplicate + self.out_of_order
    }
}

/// floor_fusion: what one ingest call returned must reach the bus
/// subscriber exactly once each, and no subscription may fire twice for
/// one object in one call.
#[must_use]
pub fn delivery_failures(returned: &[Note], received: &[Note]) -> StreamFailures {
    let mut f = StreamFailures::default();
    let mut want: HashMap<&Note, i64> = HashMap::new();
    for n in returned {
        let c = want.entry(n).or_default();
        if *c > 0 {
            f.duplicate += 1;
        }
        *c += 1;
    }
    let mut seen: HashSet<&Note> = HashSet::new();
    for n in received {
        match want.get_mut(n) {
            Some(c) if *c > 0 => *c -= 1,
            _ if seen.contains(n) => f.duplicate += 1,
            _ => f.extra += 1,
        }
        seen.insert(n);
    }
    f.missing = want.values().map(|&c| c.max(0) as u64).sum();
    f
}

/// routed_fig9: every toggle-in must yield exactly the notifications of
/// the triggers watching what it entered (a "watch": a room, or one
/// object's room), once each, and in reading order; a toggle-out must
/// yield none.
#[derive(Debug, Default)]
pub struct ToggleOracle {
    /// Per reading: the watch it entered, or `None` for a toggle-out.
    entered: Vec<Option<usize>>,
    /// Triggers registered per watch.
    rules_per_watch: Vec<u64>,
    /// Subscription → watch, learned on first sight and then enforced.
    sub_watch: HashMap<u64, usize>,
    /// (reading, subscription) pairs already delivered.
    delivered: HashSet<(usize, u64)>,
    count: Vec<u64>,
    last: usize,
    failures: StreamFailures,
}

impl ToggleOracle {
    /// An oracle over the triggers registered per watch.
    #[must_use]
    pub fn new(rules_per_watch: Vec<u64>) -> Self {
        ToggleOracle {
            rules_per_watch,
            ..ToggleOracle::default()
        }
    }

    /// Declares the next reading: `Some(watch)` for a toggle-in.
    pub fn push_reading(&mut self, entered: Option<usize>) -> usize {
        self.entered.push(entered);
        self.count.push(0);
        self.entered.len() - 1
    }

    /// One notification of `sub`, attributed to `reading`.
    pub fn observe(&mut self, reading: usize, sub: u64) {
        if reading < self.last {
            self.failures.out_of_order += 1;
        }
        self.last = self.last.max(reading);
        let Some(Some(watch)) = self.entered.get(reading).copied() else {
            self.failures.extra += 1;
            return;
        };
        if !self.delivered.insert((reading, sub)) {
            self.failures.duplicate += 1;
            return;
        }
        if *self.sub_watch.entry(sub).or_insert(watch) != watch {
            self.failures.extra += 1;
            return;
        }
        self.count[reading] += 1;
        if self.count[reading] > self.rules_per_watch[watch] {
            self.failures.extra += 1;
        }
    }

    /// Closes the stream: counts what is still missing.
    #[must_use]
    pub fn finish(mut self) -> StreamFailures {
        for (reading, entered) in self.entered.iter().enumerate() {
            if let Some(watch) = entered {
                self.failures.missing +=
                    self.rules_per_watch[*watch].saturating_sub(self.count[reading]);
            }
        }
        self.failures
    }

    /// Notifications the declared readings should produce.
    #[must_use]
    pub fn expected(&self) -> u64 {
        self.entered
            .iter()
            .flatten()
            .map(|&watch| self.rules_per_watch[watch])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(sub: u64, object: &str) -> Note {
        Note {
            sub,
            object: object.to_string(),
        }
    }

    #[test]
    fn city_count_mismatch_fails_the_whole_batch() {
        assert_eq!(city_batch_failures(260, 260, 1000), 0);
        // Dropped one notification.
        assert_eq!(city_batch_failures(260, 259, 1000), 1000);
        // One extra (or duplicated) notification.
        assert_eq!(city_batch_failures(260, 261, 1000), 1000);
    }

    #[test]
    fn delivery_detects_drop_extra_and_duplicate() {
        let returned = vec![note(1, "a"), note(2, "a"), note(1, "b")];
        assert_eq!(delivery_failures(&returned, &returned).total(), 0);
        // Same multiset, different order: fine.
        let shuffled = vec![note(1, "b"), note(1, "a"), note(2, "a")];
        assert_eq!(delivery_failures(&returned, &shuffled).total(), 0);

        let dropped = &returned[..2];
        assert_eq!(delivery_failures(&returned, dropped).missing, 1);

        let mut extra = returned.clone();
        extra.push(note(9, "c"));
        assert_eq!(delivery_failures(&returned, &extra).extra, 1);

        let mut dup = returned.clone();
        dup.push(note(2, "a"));
        assert_eq!(delivery_failures(&returned, &dup).duplicate, 1);

        // The service itself firing one rule twice for one object.
        let twice = vec![note(1, "a"), note(1, "a")];
        assert_eq!(delivery_failures(&twice, &twice).duplicate, 1);
    }

    fn toggles() -> ToggleOracle {
        // Room 0 has two rules, room 1 has one.
        let mut o = ToggleOracle::new(vec![2, 1]);
        o.push_reading(Some(0)); // reading 0: subs 10, 11
        o.push_reading(None); // reading 1: toggle-out
        o.push_reading(Some(1)); // reading 2: sub 20
        o
    }

    #[test]
    fn toggle_stream_that_matches_passes() {
        let mut o = toggles();
        assert_eq!(o.expected(), 3);
        o.observe(0, 11);
        o.observe(0, 10);
        o.observe(2, 20);
        assert_eq!(o.finish().total(), 0);
    }

    #[test]
    fn toggle_oracle_catches_a_dropped_notification() {
        let mut o = toggles();
        o.observe(0, 10);
        o.observe(2, 20);
        assert_eq!(o.finish().missing, 1);
    }

    #[test]
    fn toggle_oracle_catches_extra_and_duplicate() {
        let mut o = toggles();
        o.observe(0, 10);
        o.observe(0, 10);
        o.observe(0, 11);
        o.observe(1, 10); // a toggle-out must not fire
        o.observe(2, 20);
        let f = o.finish();
        assert_eq!(f.duplicate, 1);
        assert_eq!(f.extra, 1);
        assert_eq!(f.missing, 0);
    }

    #[test]
    fn toggle_oracle_catches_reordering_and_wrong_room() {
        let mut o = toggles();
        o.observe(2, 20);
        o.observe(0, 10);
        o.observe(0, 20); // sub 20 watches room 1, not room 0
        let f = o.finish();
        assert_eq!(f.out_of_order, 2);
        assert_eq!(f.extra, 1);
        assert_eq!(f.missing, 1);
    }

    #[test]
    fn digest_is_order_insensitive_within_an_operation_only() {
        let mut a = Digest::default();
        a.add([(1, "x"), (2, "y")]);
        a.add([(3, "z")]);
        let mut b = Digest::default();
        b.add([(2, "y"), (1, "x")]);
        b.add([(3, "z")]);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add([(3, "z")]);
        c.add([(1, "x"), (2, "y")]);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.add([(1, "x")]);
        d.add([(3, "z")]);
        assert_ne!(a, d, "a dropped notification changes the digest");
    }
}
