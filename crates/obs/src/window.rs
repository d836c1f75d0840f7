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
//! buckets: a bucket is reused (cleared) the first time a sample lands in
//! its slot under a newer epoch number, and samples older than the
//! retained span are dropped on the floor. Nothing here allocates on the
//! steady state beyond the per-object/per-link BTreeMap entries.
//!
//! Windowing is **off by default**: the recorder only touches this module
//! when a [`WindowConfig`] has been installed *and* recording is enabled,
//! so the disabled fast path stays one thread-local byte-load and the
//! plain Ring/Full paths pay one `Option` check inside code that already
//! records events.

use std::collections::BTreeMap;

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

/// One epoch's worth of samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochBucket {
    /// The epoch number this bucket currently holds (virtual time /
    /// `epoch_micros`).
    pub epoch: u64,
    /// Per-receiver invocation tallies.
    pub objects: BTreeMap<ObjectId, ObjectWindowStats>,
    /// Site-to-site call matrix: `(src, dst)` → invocations requested.
    /// The diagonal counts invocations *executed at* that site (local
    /// and remotely-requested alike); off-diagonal entries count
    /// cross-site `invoke_req` sends.
    pub calls: BTreeMap<(NodeId, NodeId), u64>,
    /// Per-link delivery tallies.
    pub links: BTreeMap<(NodeId, NodeId), LinkWindowStats>,
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
            *b = EpochBucket::default();
        }
        self.head = 0;
    }

    /// The bucket a sample stamped `now_us` belongs to, or `None` when
    /// the sample is older than the retained span. Reuses (clearing) the
    /// slot the first time a newer epoch claims it.
    pub fn bucket_at(&mut self, now_us: u64) -> Option<&mut EpochBucket> {
        let epoch = now_us / self.cfg.epoch_micros;
        if epoch + self.cfg.epochs as u64 <= self.head {
            return None;
        }
        self.head = self.head.max(epoch);
        let slot = usize::try_from(epoch % self.cfg.epochs as u64).unwrap_or(0);
        let bucket = &mut self.buckets[slot];
        if bucket.epoch != epoch {
            *bucket = EpochBucket {
                epoch,
                ..EpochBucket::default()
            };
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
    fn config_clamps_to_sane_minimums() {
        let cfg = WindowConfig::new(0, 0);
        assert_eq!(cfg.epoch_micros, 1);
        assert_eq!(cfg.epochs, 1);
        assert_eq!(WindowConfig::DEFAULT.span_micros(), 8_000_000);
    }
}
