//! Sliding-window aggregation: a ring of virtual-time epoch buckets.
//!
//! The cumulative [`Metrics`](crate::Metrics) registry answers "what has
//! happened since reset"; the window answers "what is happening *now*".
//! Samples are bucketed by **virtual time** (the simulated clock the
//! `SimNet` advances deterministically), so two runs of the same seeded
//! scenario produce byte-identical windows — the property the telemetry
//! determinism tests pin down.
//!
//! The window is a ring of `epochs` buckets, each covering
//! `epoch_micros` of virtual time. Advancing time lazily retires stale
//! buckets: a bucket is recycled the first time a sample lands in its
//! slot under a newer epoch number, and samples older than the retained
//! span are dropped on the floor.
//!
//! Each bucket keeps its rows in [`DenseMap`]s — a dense `Vec` of rows
//! plus a hash index — so a sample is an O(1) lookup and the
//! whole-window fold walks rows contiguously. Recycling a bucket clears
//! its maps in place and keeps their capacity, so once every slot has
//! seen its busiest epoch the steady state allocates nothing: a new
//! epoch refills the rows the previous occupant of the slot left behind.
//! (A row's `remote_callers` map still allocates when caller tracking is
//! on.) Readers sort into the `BTreeMap`-keyed
//! [`TelemetrySnapshot`](crate::TelemetrySnapshot), so the row order
//! inside a bucket never reaches any output.
//!
//! Windowing is **off by default**: the recorder only touches this module
//! when a [`WindowConfig`] has been installed *and* recording is enabled,
//! so the disabled fast path stays one thread-local byte-load and the
//! plain Ring/Full paths pay one `Option` check inside code that already
//! records events.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

use mrom_value::{NodeId, ObjectId};

use crate::metrics::Histogram;

/// Shape of the sliding window: `epochs` buckets of `epoch_micros`
/// virtual microseconds each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one epoch bucket in virtual microseconds (min 1).
    pub epoch_micros: u64,
    /// Number of epoch buckets retained (min 1).
    pub epochs: usize,
    /// Also attribute each remote invocation to its requesting site in
    /// per-object caller maps (the Advisor's placement input). Off by
    /// default: the maps cost one `BTreeMap` entry per (object, caller
    /// site) pair, and snapshots taken without them stay byte-identical
    /// to pre-advisor telemetry.
    pub track_callers: bool,
}

impl WindowConfig {
    /// The default window: 8 buckets of 1 virtual second.
    pub const DEFAULT: WindowConfig = WindowConfig {
        epoch_micros: 1_000_000,
        epochs: 8,
        track_callers: false,
    };

    /// A window with the given shape (both dimensions clamped to ≥ 1).
    #[must_use]
    pub fn new(epoch_micros: u64, epochs: usize) -> WindowConfig {
        WindowConfig {
            epoch_micros: epoch_micros.max(1),
            epochs: epochs.max(1),
            track_callers: false,
        }
    }

    /// Enables per-object remote-caller attribution (see
    /// [`WindowConfig::track_callers`]).
    #[must_use]
    pub fn with_callers(mut self) -> WindowConfig {
        self.track_callers = true;
        self
    }

    /// Virtual time span the full window covers, in microseconds.
    #[must_use]
    pub fn span_micros(&self) -> u64 {
        self.epoch_micros.saturating_mul(self.epochs as u64)
    }
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig::DEFAULT
    }
}

/// Windowed per-object tallies (one epoch bucket's worth).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectWindowStats {
    /// Applications with this object as receiver in this epoch.
    pub invocations: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
    /// Fuel consumed per application.
    pub fuel: Histogram,
    /// Wall-clock application latency (Full mode only — Ring mode reads
    /// no clocks, so this stays empty and the window stays deterministic).
    pub latency_ns: Histogram,
    /// Runtime checkout collisions against this object.
    pub busy_collisions: u64,
    /// Remote invocation requests per requesting site (only fed when the
    /// window was configured with [`WindowConfig::with_callers`]): which
    /// sites are pulling on this object, the dominant-caller signal the
    /// placement Advisor steers by. One entry per logical `remote_invoke`
    /// issued, counted at the sender, regardless of retries or outcome.
    pub remote_callers: BTreeMap<NodeId, u64>,
}

/// Windowed per-link delivery tallies (one epoch bucket's worth).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkWindowStats {
    /// Messages delivered over this link in this epoch.
    pub delivered: u64,
    /// Messages dropped (loss, partition, crashed receiver).
    pub dropped: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Virtual wire latency per delivered message, in microseconds.
    pub latency_us: Histogram,
}

/// A map kept as a dense `Vec` of `(key, value)` rows plus a hash index
/// from key to row — the layout of an [`EpochBucket`]'s maps.
///
/// Lookups and inserts are O(1); iteration walks the rows contiguously
/// in insertion order (callers that need a key order sort, as the
/// telemetry fold does). [`DenseMap::clear`] keeps the row and index
/// capacity, which is what lets a recycled epoch bucket refill without
/// allocating. Equality is map equality: the same keys with equal
/// values, whatever the insertion order.
#[derive(Clone)]
pub struct DenseMap<K, V> {
    rows: Vec<(K, V)>,
    index: HashMap<K, usize>,
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> DenseMap<K, V> {
        DenseMap {
            rows: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> DenseMap<K, V> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows the map can hold before it next allocates.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&row| &self.rows[row].1)
    }

    /// The entry for `key`, for in-place update or insertion.
    pub fn entry(&mut self, key: K) -> DenseEntry<'_, K, V> {
        DenseEntry { map: self, key }
    }

    /// The entries, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.rows.iter().map(|(k, v)| (k, v))
    }

    /// Drops every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
    }
}

impl<K, V> IntoIterator for DenseMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// The entries by value, in insertion order.
    fn into_iter(self) -> std::vec::IntoIter<(K, V)> {
        self.rows.into_iter()
    }
}

impl<K: Copy + Eq + Hash, V: PartialEq> PartialEq for DenseMap<K, V> {
    fn eq(&self, other: &DenseMap<K, V>) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Copy + Eq + Hash, V: Eq> Eq for DenseMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DenseMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.rows.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// A key's slot in a [`DenseMap`], from [`DenseMap::entry`].
pub struct DenseEntry<'a, K, V> {
    map: &'a mut DenseMap<K, V>,
    key: K,
}

impl<'a, K: Copy + Eq + Hash, V> DenseEntry<'a, K, V> {
    /// The value under the key, inserting `value` first if absent.
    pub fn or_insert(self, value: V) -> &'a mut V {
        self.or_insert_with(|| value)
    }

    /// The value under the key, inserting `V::default()` first if absent.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let DenseMap { rows, index } = self.map;
        let row = match index.entry(self.key) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                rows.push((self.key, make()));
                *slot.insert(rows.len() - 1)
            }
        };
        &mut rows[row].1
    }
}

/// One epoch's worth of samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochBucket {
    /// The epoch number this bucket currently holds (virtual time /
    /// `epoch_micros`).
    pub epoch: u64,
    /// Per-receiver invocation tallies.
    pub objects: DenseMap<ObjectId, ObjectWindowStats>,
    /// Site-to-site call matrix: `(src, dst)` → invocations requested.
    /// The diagonal counts invocations *executed at* that site (local
    /// and remotely-requested alike); off-diagonal entries count
    /// cross-site `invoke_req` sends.
    pub calls: DenseMap<(NodeId, NodeId), u64>,
    /// Per-link delivery tallies.
    pub links: DenseMap<(NodeId, NodeId), LinkWindowStats>,
}

impl EpochBucket {
    /// Empties the bucket in place for `epoch`, keeping the capacity its
    /// maps grew to.
    fn recycle(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.objects.clear();
        self.calls.clear();
        self.links.clear();
    }
}

/// The live window: a ring of epoch buckets plus the head epoch.
#[derive(Debug, Clone)]
pub struct WindowState {
    cfg: WindowConfig,
    buckets: Vec<EpochBucket>,
    head: u64,
}

impl WindowState {
    /// An empty window of the given shape.
    #[must_use]
    pub fn new(cfg: WindowConfig) -> WindowState {
        WindowState {
            cfg,
            buckets: vec![EpochBucket::default(); cfg.epochs],
            head: 0,
        }
    }

    /// The window's shape.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// The newest epoch any sample has landed in.
    #[must_use]
    pub fn head_epoch(&self) -> u64 {
        self.head
    }

    /// Drops every sample, keeping the shape.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.recycle(0);
        }
        self.head = 0;
    }

    /// The bucket a sample stamped `now_us` belongs to, or `None` when
    /// the sample is older than the retained span. Recycles the slot in
    /// place the first time a newer epoch claims it.
    pub fn bucket_at(&mut self, now_us: u64) -> Option<&mut EpochBucket> {
        let epoch = now_us / self.cfg.epoch_micros;
        if epoch + self.cfg.epochs as u64 <= self.head {
            return None;
        }
        self.head = self.head.max(epoch);
        let slot = usize::try_from(epoch % self.cfg.epochs as u64).unwrap_or(0);
        let bucket = &mut self.buckets[slot];
        if bucket.epoch != epoch {
            bucket.recycle(epoch);
        }
        Some(bucket)
    }

    /// The buckets still inside the retained span, oldest epoch first.
    /// Stale slots (overwritten-pending) and empty defaults are skipped
    /// unless they genuinely belong to the live span.
    #[must_use]
    pub fn live_buckets(&self) -> Vec<&EpochBucket> {
        let oldest = self.head.saturating_sub(self.cfg.epochs as u64 - 1);
        let mut live: Vec<&EpochBucket> = self
            .buckets
            .iter()
            .filter(|b| b.epoch >= oldest && b.epoch <= self.head)
            .collect();
        live.sort_by_key(|b| b.epoch);
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(w: &mut WindowState, now_us: u64, id: ObjectId) -> bool {
        match w.bucket_at(now_us) {
            Some(b) => {
                b.objects.entry(id).or_default().invocations += 1;
                true
            }
            None => false,
        }
    }

    #[test]
    fn samples_land_in_their_epoch() {
        let mut w = WindowState::new(WindowConfig::new(1000, 4));
        assert!(touch(&mut w, 0, ObjectId::SYSTEM));
        assert!(touch(&mut w, 999, ObjectId::SYSTEM));
        assert!(touch(&mut w, 1000, ObjectId::SYSTEM));
        let live = w.live_buckets();
        let counts: Vec<u64> = live
            .iter()
            .filter_map(|b| b.objects.get(&ObjectId::SYSTEM))
            .map(|o| o.invocations)
            .collect();
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn old_epochs_are_retired_and_slots_reused() {
        let mut w = WindowState::new(WindowConfig::new(1000, 2));
        assert!(touch(&mut w, 0, ObjectId::SYSTEM)); // epoch 0, slot 0
        assert!(touch(&mut w, 1000, ObjectId::SYSTEM)); // epoch 1, slot 1
        assert!(touch(&mut w, 2000, ObjectId::SYSTEM)); // epoch 2 reuses slot 0
                                                        // Epoch 0 has left the window; a late sample for it is dropped.
        assert!(!touch(&mut w, 500, ObjectId::SYSTEM));
        let live = w.live_buckets();
        let epochs: Vec<u64> = live.iter().map(|b| b.epoch).collect();
        assert_eq!(epochs, vec![1, 2]);
        assert_eq!(w.head_epoch(), 2);
    }

    #[test]
    fn jumping_far_ahead_empties_the_window() {
        let mut w = WindowState::new(WindowConfig::new(1000, 3));
        assert!(touch(&mut w, 0, ObjectId::SYSTEM));
        assert!(touch(&mut w, 100_000, ObjectId::SYSTEM)); // epoch 100
        let live = w.live_buckets();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].epoch, 100);
    }

    #[test]
    fn clear_keeps_the_shape() {
        let mut w = WindowState::new(WindowConfig::new(10, 2));
        assert!(touch(&mut w, 25, ObjectId::SYSTEM));
        w.clear();
        assert_eq!(w.head_epoch(), 0);
        assert!(w
            .live_buckets()
            .iter()
            .all(|b| b.objects.is_empty() && b.calls.is_empty() && b.links.is_empty()));
        assert_eq!(w.config(), WindowConfig::new(10, 2));
    }

    #[test]
    fn a_recycled_bucket_comes_back_empty_with_its_capacity() {
        let mut w = WindowState::new(WindowConfig::new(1000, 2));
        let b = w.bucket_at(0).unwrap();
        for seq in 1..=100 {
            let id = ObjectId::from_parts(NodeId(1), seq, 0);
            b.objects.entry(id).or_default().invocations += 1;
            *b.calls
                .entry((NodeId(1), NodeId(u64::from(seq))))
                .or_insert(0) += 1;
            b.links
                .entry((NodeId(u64::from(seq)), NodeId(1)))
                .or_default()
                .dropped += 1;
        }
        let caps = (b.objects.capacity(), b.calls.capacity(), b.links.capacity());
        assert!(caps.0 >= 100 && caps.1 >= 100 && caps.2 >= 100);
        // Epoch 2 claims slot 0 again: same storage, no rows, new epoch.
        let b = w.bucket_at(2000).unwrap();
        assert_eq!(b.epoch, 2);
        assert!(b.objects.is_empty() && b.calls.is_empty() && b.links.is_empty());
        assert!(b
            .objects
            .get(&ObjectId::from_parts(NodeId(1), 1, 0))
            .is_none());
        assert_eq!(
            (b.objects.capacity(), b.calls.capacity(), b.links.capacity()),
            caps
        );
    }

    #[test]
    fn dense_map_is_a_map() {
        let mut a: DenseMap<u32, u64> = DenseMap::default();
        *a.entry(3).or_insert(0) += 1;
        *a.entry(1).or_insert(0) += 2;
        *a.entry(3).or_insert(0) += 4;
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(&3), Some(&5));
        assert_eq!(a.get(&2), None);
        let mut b: DenseMap<u32, u64> = DenseMap::default();
        b.entry(1).or_insert(2);
        b.entry(3).or_insert(5);
        // Equality ignores insertion order.
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "{3: 5, 1: 2}");
        b.clear();
        assert_ne!(a, b);
        assert!(b.is_empty());
    }

    #[test]
    fn config_clamps_to_sane_minimums() {
        let cfg = WindowConfig::new(0, 0);
        assert_eq!(cfg.epoch_micros, 1);
        assert_eq!(cfg.epochs, 1);
        assert_eq!(WindowConfig::DEFAULT.span_micros(), 8_000_000);
    }
}
