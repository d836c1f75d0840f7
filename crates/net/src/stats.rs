//! Traffic accounting.

use std::collections::BTreeMap;

use mrom_value::{NodeId, Value};

/// Counters maintained by the simulator; every experiment report reads
/// these rather than re-deriving traffic from logs.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct NetStats {
    /// Messages accepted by `send`.
    pub messages_sent: u64,
    /// Messages handed to their destination.
    pub messages_delivered: u64,
    /// Messages dropped by loss, partitions, or a crashed destination.
    pub messages_dropped: u64,
    /// Extra copies injected by per-link duplication faults. Each
    /// duplicate is delivered (or dropped) *in addition to* the original,
    /// so full accounting is `delivered + dropped = sent + duplicated`
    /// once nothing is in flight.
    pub messages_duplicated: u64,
    /// Payload bytes accepted by `send`.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Per directed link `(src, dst)`: (messages, bytes) delivered.
    pub per_link: BTreeMap<(NodeId, NodeId), (u64, u64)>,
    /// Per directed link `(src, dst)`: messages dropped by loss or
    /// partitions. Without this the aggregate [`NetStats::messages_dropped`]
    /// could not be attributed to a link, so per-link delivery ratios
    /// silently read as perfect.
    pub per_link_dropped: BTreeMap<(NodeId, NodeId), u64>,
}

impl NetStats {
    /// Fraction of sent messages that were delivered (1.0 when nothing was
    /// sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }

    /// The message and byte totals as a value tree (the per-link maps
    /// are left out): the `net` section of fleet reports and of
    /// `mrom-top --snapshot`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Value::map([
            ("sent", int(self.messages_sent)),
            ("delivered", int(self.messages_delivered)),
            ("dropped", int(self.messages_dropped)),
            ("duplicated", int(self.messages_duplicated)),
            ("bytes_sent", int(self.bytes_sent)),
            ("bytes_delivered", int(self.bytes_delivered)),
        ])
    }

    pub(crate) fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Fraction of messages on the directed link `(src, dst)` that were
    /// delivered, counting drops attributed to that link (1.0 when the
    /// link never carried traffic).
    pub fn delivery_ratio_for(&self, src: NodeId, dst: NodeId) -> f64 {
        let delivered = self.per_link.get(&(src, dst)).map_or(0, |(n, _)| *n);
        let dropped = self.per_link_dropped.get(&(src, dst)).copied().unwrap_or(0);
        let total = delivered + dropped;
        if total == 0 {
            1.0
        } else {
            delivered as f64 / total as f64
        }
    }

    /// Integer-deterministic variant of [`NetStats::delivery_ratio_for`]:
    /// delivered messages per thousand attempts on the directed link
    /// `(src, dst)`, or `None` when the link never carried traffic —
    /// callers that want "quiet means healthy" can default to 1000.
    /// Being all-integer, the figure is safe to compare and report in
    /// byte-deterministic artifacts.
    #[must_use]
    pub fn delivery_permille_for(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let delivered = self.per_link.get(&(src, dst)).map_or(0, |(n, _)| *n);
        let dropped = self.per_link_dropped.get(&(src, dst)).copied().unwrap_or(0);
        let total = delivered + dropped;
        (total > 0).then(|| delivered.saturating_mul(1000) / total)
    }

    /// Every directed link whose delivery ratio fell below
    /// `threshold_permille` among links that carried at least
    /// `min_attempts` messages, in deterministic order: the cumulative
    /// (since-reset) link-degradation signal. The windowed analogue
    /// lives on the telemetry snapshot; this one is what a site without
    /// windowing enabled can still steer by.
    #[must_use]
    pub fn degraded_links(
        &self,
        threshold_permille: u64,
        min_attempts: u64,
    ) -> Vec<((NodeId, NodeId), u64)> {
        let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> =
            self.per_link.keys().copied().collect();
        edges.extend(self.per_link_dropped.keys().copied());
        edges
            .into_iter()
            .filter_map(|edge| {
                let delivered = self.per_link.get(&edge).map_or(0, |(n, _)| *n);
                let dropped = self.per_link_dropped.get(&edge).copied().unwrap_or(0);
                let total = delivered + dropped;
                if total < min_attempts.max(1) {
                    return None;
                }
                let permille = delivered.saturating_mul(1000) / total;
                (permille < threshold_permille).then_some((edge, permille))
            })
            .collect()
    }

    pub(crate) fn record_drop(&mut self, src: NodeId, dst: NodeId) {
        self.messages_dropped += 1;
        *self.per_link_dropped.entry((src, dst)).or_insert(0) += 1;
    }

    pub(crate) fn record_duplicate(&mut self) {
        self.messages_duplicated += 1;
    }

    /// `true` when every send is accounted for: messages delivered plus
    /// messages dropped plus messages still in flight equals messages sent
    /// plus injected duplicates. The chaos harness asserts this after
    /// every run.
    pub fn accounts_for_every_send(&self, in_flight: usize) -> bool {
        self.messages_delivered + self.messages_dropped + in_flight as u64
            == self.messages_sent + self.messages_duplicated
    }

    pub(crate) fn record_delivery(&mut self, src: NodeId, dst: NodeId, bytes: usize) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
        let entry = self.per_link.entry((src, dst)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record_send(10);
        s.record_send(20);
        s.record_drop(NodeId(1), NodeId(3));
        s.record_delivery(NodeId(1), NodeId(2), 10);
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.bytes_sent, 30);
        assert_eq!(s.bytes_delivered, 10);
        assert_eq!(s.per_link[&(NodeId(1), NodeId(2))], (1, 10));
        assert_eq!(s.per_link_dropped[&(NodeId(1), NodeId(3))], 1);
        assert!((s.delivery_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_ratio_is_one() {
        // Zero sends must not divide by zero: both ratios answer an
        // explicit 1.0 for untouched networks and untouched links.
        assert_eq!(NetStats::default().delivery_ratio(), 1.0);
        assert_eq!(
            NetStats::default().delivery_ratio_for(NodeId(1), NodeId(2)),
            1.0
        );
        // A link that only ever saw traffic elsewhere is still 1.0.
        let mut s = NetStats::default();
        s.record_send(4);
        s.record_delivery(NodeId(3), NodeId(4), 4);
        assert_eq!(s.delivery_ratio_for(NodeId(1), NodeId(2)), 1.0);
    }

    #[test]
    fn duplicates_balance_the_accounting() {
        let mut s = NetStats::default();
        // One send, duplicated once: both copies delivered.
        s.record_send(8);
        s.record_duplicate();
        s.record_delivery(NodeId(1), NodeId(2), 8);
        s.record_delivery(NodeId(1), NodeId(2), 8);
        assert_eq!(s.messages_duplicated, 1);
        assert!(s.accounts_for_every_send(0));
        // A second send still in flight keeps the books balanced only
        // when counted.
        s.record_send(8);
        assert!(!s.accounts_for_every_send(0));
        assert!(s.accounts_for_every_send(1));
        // Duplicate dropped at a crashed destination: drop + delivery
        // still cover send + duplicate.
        s.record_drop(NodeId(1), NodeId(2));
        assert!(s.accounts_for_every_send(0));
    }

    #[test]
    fn per_link_ratio_attributes_drops_to_their_link() {
        let mut s = NetStats::default();
        // Link 1→2: three delivered, one dropped. Link 1→3: clean.
        for _ in 0..4 {
            s.record_send(8);
        }
        s.record_delivery(NodeId(1), NodeId(2), 8);
        s.record_delivery(NodeId(1), NodeId(2), 8);
        s.record_delivery(NodeId(1), NodeId(2), 8);
        s.record_drop(NodeId(1), NodeId(2));
        s.record_send(8);
        s.record_delivery(NodeId(1), NodeId(3), 8);
        assert!((s.delivery_ratio_for(NodeId(1), NodeId(2)) - 0.75).abs() < 1e-9);
        assert_eq!(s.delivery_ratio_for(NodeId(1), NodeId(3)), 1.0);
        // The lossy link's drops do not bleed into the untouched reverse
        // direction.
        assert_eq!(s.delivery_ratio_for(NodeId(2), NodeId(1)), 1.0);
    }
}
