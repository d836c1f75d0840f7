//! `TelemetrySnapshot`: the windowed profile the reflective
//! `getTelemetry` surface and `mrom-top --watch` consume.
//!
//! A snapshot folds the live epoch buckets of the sliding window
//! ([`WindowState`](crate::window::WindowState)) into three aggregates:
//!
//! * **hot objects** — per-receiver invocation count, error count, fuel
//!   p50/p95, wall latency p50/p95 (Full mode only), and the
//!   busy-collision count from the runtime;
//! * **call matrix** — `(src, dst)` site pairs: the diagonal counts
//!   invocations executed at a site, off-diagonal entries count
//!   cross-site `invoke_req` traffic;
//! * **link windows** — per-link delivered/dropped/bytes plus virtual
//!   wire-latency p50/p95.
//!
//! Everything is computed from integer counters bucketed by virtual
//! time, so a snapshot of a seeded simulation is a pure function of the
//! seed: [`TelemetrySnapshot::to_json`] is byte-identical across runs
//! (the determinism tests sweep this across chaos seeds). The JSON
//! schema is versioned via the top-level `schema` key — see
//! docs/OBSERVABILITY.md for the field-by-field contract.

use std::collections::BTreeMap;

use mrom_value::{NodeId, ObjectId, Value};

use crate::json::to_json;
use crate::metrics::Histogram;
use crate::recorder::ObsMode;
use crate::window::{DenseMap, EpochBucket, ObjectWindowStats, WindowConfig, WindowState};

/// The stable schema tag stamped on every snapshot.
pub const TELEMETRY_SCHEMA: &str = "mrom.telemetry.v1";

/// Windowed per-object profile aggregated across the live epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectProfile {
    /// Applications with this object as receiver inside the window.
    pub invocations: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
    /// Total fuel consumed inside the window.
    pub fuel_total: u64,
    /// Median fuel per application (log-bucket upper bound).
    pub fuel_p50: u64,
    /// 95th-percentile fuel per application (log-bucket upper bound).
    pub fuel_p95: u64,
    /// Median wall latency in nanoseconds (0 unless Full mode ran).
    pub latency_p50_ns: u64,
    /// 95th-percentile wall latency in nanoseconds.
    pub latency_p95_ns: u64,
    /// Runtime checkout collisions against this object.
    pub busy_collisions: u64,
    /// Remote invocation requests per requesting site (empty unless the
    /// window was configured with
    /// [`WindowConfig::with_callers`](crate::WindowConfig::with_callers)).
    pub remote_callers: BTreeMap<NodeId, u64>,
}

impl ObjectProfile {
    /// The site issuing the most remote invocations of this object,
    /// with its request count (ties broken toward the lower site id, so
    /// the answer is total and deterministic). `None` when no remote
    /// caller was recorded.
    #[must_use]
    pub fn dominant_remote_caller(&self) -> Option<(NodeId, u64)> {
        self.remote_callers
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(site, n)| (*site, *n))
    }

    /// Total remote invocation requests recorded against this object.
    #[must_use]
    pub fn remote_requests(&self) -> u64 {
        self.remote_callers.values().sum()
    }
    /// Busy-collision rate per thousand invocations (integer, so the
    /// snapshot stays byte-deterministic).
    #[must_use]
    pub fn busy_per_1k(&self) -> u64 {
        if self.invocations == 0 {
            return 0;
        }
        self.busy_collisions.saturating_mul(1000) / self.invocations
    }

    /// `object`'s row of the window fold: the accumulation
    /// [`TelemetrySnapshot::collect`] runs per object, applied to this one
    /// object's buckets only. All zeros when no window is installed or the
    /// object left no sample in it.
    #[must_use]
    pub fn collect(window: Option<&WindowState>, object: ObjectId) -> ObjectProfile {
        window
            .and_then(|w| ProfileFold::of(&w.live_buckets(), object))
            .unwrap_or_default()
            .finish()
    }

    /// The profile as a value tree: one row of the `mrom.telemetry.v1`
    /// `objects` list, and the payload of the reflective `getStats`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("invocations", int(self.invocations)),
            ("errors", int(self.errors)),
            ("fuel_total", int(self.fuel_total)),
            ("fuel_p50", int(self.fuel_p50)),
            ("fuel_p95", int(self.fuel_p95)),
            ("latency_p50_ns", int(self.latency_p50_ns)),
            ("latency_p95_ns", int(self.latency_p95_ns)),
            ("busy_collisions", int(self.busy_collisions)),
            ("busy_per_1k", int(self.busy_per_1k())),
        ];
        // Only rendered when caller tracking actually recorded something,
        // so snapshots from untracked windows keep their exact pre-advisor
        // byte layout.
        if !self.remote_callers.is_empty() {
            let callers: Vec<Value> = self
                .remote_callers
                .iter()
                .map(|(site, n)| Value::map([("site", node_int(*site)), ("count", int(*n))]))
                .collect();
            fields.push(("callers", Value::List(callers)));
        }
        Value::map(fields)
    }
}

/// One object's running fold over epoch buckets: counters add and the
/// per-bucket histograms merge, so quantiles are read once at the end.
/// The whole-window fold, the site slice and the single-object row all
/// use it.
#[derive(Default)]
struct ProfileFold {
    profile: ObjectProfile,
    fuel: Histogram,
    latency_ns: Histogram,
}

impl ProfileFold {
    /// `object`'s fold over `live` (oldest epoch first, the order the
    /// whole-window walk adds them in), or `None` when the object left
    /// no sample there.
    fn of(live: &[&EpochBucket], object: ObjectId) -> Option<ProfileFold> {
        let mut fold: Option<ProfileFold> = None;
        for s in live.iter().filter_map(|b| b.objects.get(&object)) {
            fold.get_or_insert_with(ProfileFold::default).add(s);
        }
        fold
    }

    fn add(&mut self, s: &ObjectWindowStats) {
        let p = &mut self.profile;
        p.invocations += s.invocations;
        p.errors += s.errors;
        p.fuel_total += s.fuel.sum();
        p.busy_collisions += s.busy_collisions;
        for (site, n) in &s.remote_callers {
            *p.remote_callers.entry(*site).or_insert(0) += n;
        }
        self.fuel.merge(&s.fuel);
        self.latency_ns.merge(&s.latency_ns);
    }

    fn finish(self) -> ObjectProfile {
        ObjectProfile {
            fuel_p50: self.fuel.quantile(0.50),
            fuel_p95: self.fuel.quantile(0.95),
            latency_p50_ns: self.latency_ns.quantile(0.50),
            latency_p95_ns: self.latency_ns.quantile(0.95),
            ..self.profile
        }
    }
}

/// Windowed per-link profile aggregated across the live epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Messages delivered over this link inside the window.
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Median virtual wire latency in microseconds.
    pub latency_p50_us: u64,
    /// 95th-percentile virtual wire latency in microseconds.
    pub latency_p95_us: u64,
}

impl LinkProfile {
    /// Delivery ratio per thousand attempts (integer-deterministic).
    #[must_use]
    pub fn delivered_per_1k(&self) -> u64 {
        let attempts = self.delivered + self.dropped;
        if attempts == 0 {
            return 0;
        }
        self.delivered.saturating_mul(1000) / attempts
    }

    fn to_value(&self) -> Value {
        Value::map([
            ("delivered", int(self.delivered)),
            ("dropped", int(self.dropped)),
            ("bytes", int(self.bytes)),
            ("latency_p50_us", int(self.latency_p50_us)),
            ("latency_p95_us", int(self.latency_p95_us)),
            ("delivered_per_1k", int(self.delivered_per_1k())),
        ])
    }
}

/// The aggregated window the reflective surface returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Observability mode at snapshot time (stable lowercase name).
    pub mode: &'static str,
    /// Virtual clock at snapshot time, in microseconds.
    pub now_us: u64,
    /// Window shape, or `None` when windowing was not configured.
    pub window: Option<WindowConfig>,
    /// Newest epoch any sample landed in (0 when unwindowed).
    pub head_epoch: u64,
    /// Per-receiver profiles, keyed by object identity.
    pub objects: BTreeMap<ObjectId, ObjectProfile>,
    /// Site-to-site call matrix.
    pub calls: BTreeMap<(NodeId, NodeId), u64>,
    /// Per-link windowed delivery profiles.
    pub links: BTreeMap<(NodeId, NodeId), LinkProfile>,
}

impl TelemetrySnapshot {
    /// Folds the live window buckets into one snapshot. An unwindowed
    /// recorder yields an empty (but schema-complete) snapshot.
    #[must_use]
    pub fn collect(mode: ObsMode, now_us: u64, window: Option<&WindowState>) -> TelemetrySnapshot {
        TelemetrySnapshot::fold(mode, now_us, window, None)
    }

    /// One site's slice of [`TelemetrySnapshot::collect`]: the profiles
    /// of the `hosted` objects that left a sample in the window, plus the
    /// call-matrix entries and links with `node` at either end. This is
    /// what `Runtime::telemetry` and `Federation::site_telemetry` serve.
    ///
    /// The slice is folded directly rather than cut from the whole
    /// snapshot: each hosted id is looked up in each live bucket, and the
    /// edge maps are scanned for `node`'s edges, so the cost is hosted
    /// objects × epochs plus one scan of the window's edges, whatever the
    /// number of objects elsewhere in the federation. A duplicate id in
    /// `hosted` yields one row.
    #[must_use]
    pub fn collect_site(
        mode: ObsMode,
        now_us: u64,
        window: Option<&WindowState>,
        node: NodeId,
        hosted: &[ObjectId],
    ) -> TelemetrySnapshot {
        TelemetrySnapshot::fold(mode, now_us, window, Some((node, hosted)))
    }

    /// The accumulation behind [`TelemetrySnapshot::collect`] (`site`
    /// is `None`) and [`TelemetrySnapshot::collect_site`] (`site` names
    /// the node and its hosted objects). Both run the same per-object
    /// [`ProfileFold`] over the buckets in the same order and the same
    /// edge sums, so a slice equals the whole snapshot filtered to it.
    fn fold(
        mode: ObsMode,
        now_us: u64,
        window: Option<&WindowState>,
        site: Option<(NodeId, &[ObjectId])>,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
            mode: mode.name(),
            now_us,
            window: window.map(WindowState::config),
            head_epoch: window.map_or(0, WindowState::head_epoch),
            ..TelemetrySnapshot::default()
        };
        let Some(window) = window else {
            return snap;
        };
        let live = window.live_buckets();
        let touches =
            |(src, dst): (NodeId, NodeId)| site.is_none_or(|(node, _)| src == node || dst == node);
        // Accumulate in hash-indexed dense maps, then sort once into the
        // snapshot's `BTreeMap`s: the buckets' row order is arbitrary, and
        // inserting out of order into a `BTreeMap` of wide values shifts
        // them around on every insert.
        let mut calls: DenseMap<(NodeId, NodeId), u64> = DenseMap::default();
        let mut links: DenseMap<(NodeId, NodeId), (LinkProfile, Histogram)> = DenseMap::default();
        for bucket in &live {
            for (edge, n) in bucket.calls.iter().filter(|(e, _)| touches(**e)) {
                *calls.entry(*edge).or_insert(0) += n;
            }
            for (edge, s) in bucket.links.iter().filter(|(e, _)| touches(**e)) {
                let (p, latency_us) = links.entry(*edge).or_default();
                p.delivered += s.delivered;
                p.dropped += s.dropped;
                p.bytes += s.bytes;
                latency_us.merge(&s.latency_us);
            }
        }
        snap.calls = calls.into_iter().collect();
        snap.links = links
            .into_iter()
            .map(|(edge, (p, latency_us))| {
                let p = LinkProfile {
                    latency_p50_us: latency_us.quantile(0.50),
                    latency_p95_us: latency_us.quantile(0.95),
                    ..p
                };
                (edge, p)
            })
            .collect();
        snap.objects = match site {
            None => {
                let mut folds: DenseMap<ObjectId, ProfileFold> = DenseMap::default();
                for bucket in &live {
                    for (id, s) in bucket.objects.iter() {
                        folds.entry(*id).or_default().add(s);
                    }
                }
                folds
                    .into_iter()
                    .map(|(id, fold)| (id, fold.finish()))
                    .collect()
            }
            Some((_, hosted)) => hosted
                .iter()
                .filter_map(|id| Some((*id, ProfileFold::of(&live, *id)?.finish())))
                .collect(),
        };
        snap
    }

    /// The `k` hottest objects by windowed invocation count (ties broken
    /// by object identity, so the order is total and stable).
    #[must_use]
    pub fn hot_objects(&self, k: usize) -> Vec<(ObjectId, &ObjectProfile)> {
        let mut all: Vec<(ObjectId, &ObjectProfile)> =
            self.objects.iter().map(|(id, p)| (*id, p)).collect();
        all.sort_by(|a, b| b.1.invocations.cmp(&a.1.invocations).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Invocations *executed at* `node` inside the window — the
    /// diagonal of the call matrix, the per-site load figure the
    /// Advisor's shedding policy compares against the fleet mean.
    #[must_use]
    pub fn site_load(&self, node: NodeId) -> u64 {
        self.calls.get(&(node, node)).copied().unwrap_or(0)
    }

    /// Links whose windowed delivery ratio fell below
    /// `threshold_permille`, among links that carried at least
    /// `min_attempts` messages (so a single early drop cannot brand a
    /// quiet link degraded). Returns `(link, delivered_per_1k)` pairs in
    /// deterministic `BTreeMap` order — the Advisor's
    /// ambassador-refresh signal.
    #[must_use]
    pub fn degraded_links(
        &self,
        threshold_permille: u64,
        min_attempts: u64,
    ) -> Vec<((NodeId, NodeId), u64)> {
        self.links
            .iter()
            .filter(|(_, p)| p.delivered + p.dropped >= min_attempts.max(1))
            .map(|(edge, p)| (*edge, p.delivered_per_1k()))
            .filter(|(_, ratio)| *ratio < threshold_permille)
            .collect()
    }

    /// Folds `other` into this snapshot — the fleet-level aggregation
    /// the `mrom-fleet` harness uses to combine per-site slices (from
    /// [`TelemetrySnapshot::collect_site`] or per-process recorders) into
    /// one fleet view.
    ///
    /// Counters (invocations, errors, fuel totals, collisions, call
    /// matrix, link delivery/bytes) add; percentile fields are
    /// point-estimates that cannot be re-derived from two summaries, so
    /// the fold keeps the worst (maximum) observed value; the clock and
    /// head epoch advance to the newer of the two. Folding is
    /// commutative and deterministic, so a fold over `BTreeMap`-ordered
    /// slices is byte-stable.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.now_us = self.now_us.max(other.now_us);
        self.head_epoch = self.head_epoch.max(other.head_epoch);
        if self.window.is_none() {
            self.window = other.window;
        }
        for (id, p) in &other.objects {
            let mine = self.objects.entry(*id).or_default();
            mine.invocations += p.invocations;
            mine.errors += p.errors;
            mine.fuel_total += p.fuel_total;
            mine.fuel_p50 = mine.fuel_p50.max(p.fuel_p50);
            mine.fuel_p95 = mine.fuel_p95.max(p.fuel_p95);
            mine.latency_p50_ns = mine.latency_p50_ns.max(p.latency_p50_ns);
            mine.latency_p95_ns = mine.latency_p95_ns.max(p.latency_p95_ns);
            mine.busy_collisions += p.busy_collisions;
            for (site, n) in &p.remote_callers {
                *mine.remote_callers.entry(*site).or_insert(0) += n;
            }
        }
        for (pair, n) in &other.calls {
            *self.calls.entry(*pair).or_default() += n;
        }
        for (pair, p) in &other.links {
            let mine = self.links.entry(*pair).or_default();
            mine.delivered += p.delivered;
            mine.dropped += p.dropped;
            mine.bytes += p.bytes;
            mine.latency_p50_us = mine.latency_p50_us.max(p.latency_p50_us);
            mine.latency_p95_us = mine.latency_p95_us.max(p.latency_p95_us);
        }
    }

    /// The snapshot as a value tree on the stable `mrom.telemetry.v1`
    /// schema — the payload of the reflective `getTelemetry` meta-method.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let window = match &self.window {
            Some(cfg) => Value::map([
                ("epoch_micros", int(cfg.epoch_micros)),
                ("epochs", int(cfg.epochs as u64)),
                ("head_epoch", int(self.head_epoch)),
            ]),
            None => Value::Null,
        };
        let objects: Vec<Value> = self
            .objects
            .iter()
            .map(|(id, p)| {
                Value::map([
                    ("object", Value::from(id.to_string())),
                    ("profile", p.to_value()),
                ])
            })
            .collect();
        let calls: Vec<Value> = self
            .calls
            .iter()
            .map(|((src, dst), n)| {
                Value::map([
                    ("src", node_int(*src)),
                    ("dst", node_int(*dst)),
                    ("count", int(*n)),
                ])
            })
            .collect();
        let links: Vec<Value> = self
            .links
            .iter()
            .map(|((src, dst), p)| {
                Value::map([
                    ("src", node_int(*src)),
                    ("dst", node_int(*dst)),
                    ("profile", p.to_value()),
                ])
            })
            .collect();
        Value::map([
            ("schema", Value::from(TELEMETRY_SCHEMA)),
            ("mode", Value::from(self.mode)),
            ("now_us", int(self.now_us)),
            ("window", window),
            ("objects", Value::List(objects)),
            ("calls", Value::List(calls)),
            ("links", Value::List(links)),
        ])
    }

    /// Compact JSON encoding of [`TelemetrySnapshot::to_value`] —
    /// deterministic byte-for-byte for deterministic inputs.
    #[must_use]
    pub fn to_json(&self) -> String {
        to_json(&self.to_value())
    }
}

fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

fn node_int(n: NodeId) -> Value {
    Value::Int(i64::try_from(n.0).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_window() -> WindowState {
        let mut w = WindowState::new(WindowConfig::new(1000, 4));
        let a = ObjectId::SYSTEM;
        {
            let b = w.bucket_at(100).unwrap();
            let s = b.objects.entry(a).or_default();
            s.invocations = 3;
            s.fuel.record(10);
            s.fuel.record(100);
            s.fuel.record(100);
            s.busy_collisions = 1;
            *b.calls.entry((NodeId(1), NodeId(2))).or_insert(0) += 2;
            let l = b.links.entry((NodeId(1), NodeId(2))).or_default();
            l.delivered = 2;
            l.bytes = 64;
            l.latency_us.record(500);
        }
        {
            let b = w.bucket_at(1100).unwrap();
            let s = b.objects.entry(a).or_default();
            s.invocations = 2;
            s.errors = 1;
            s.fuel.record(100);
        }
        w
    }

    #[test]
    fn collect_folds_buckets_and_computes_quantiles() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));
        let p = snap.objects.get(&ObjectId::SYSTEM).unwrap();
        assert_eq!(p.invocations, 5);
        assert_eq!(p.errors, 1);
        assert_eq!(p.fuel_total, 310);
        // Samples 10,100,100,100: p50 and p95 land in the 100 bucket
        // (upper bound 127).
        assert_eq!(p.fuel_p50, 127);
        assert_eq!(p.fuel_p95, 127);
        assert_eq!(p.busy_collisions, 1);
        assert_eq!(snap.calls.get(&(NodeId(1), NodeId(2))), Some(&2));
        let l = snap.links.get(&(NodeId(1), NodeId(2))).unwrap();
        assert_eq!(l.delivered, 2);
        assert_eq!(l.delivered_per_1k(), 1000);
        assert_eq!(l.latency_p50_us, 511);
    }

    #[test]
    fn one_object_row_equals_its_row_of_the_whole_fold() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));
        let row = ObjectProfile::collect(Some(&w), ObjectId::SYSTEM);
        assert_eq!(Some(&row), snap.objects.get(&ObjectId::SYSTEM));
        let absent = ObjectId::from_parts(NodeId(9), 1, 0);
        assert_eq!(
            ObjectProfile::collect(Some(&w), absent),
            ObjectProfile::default()
        );
        assert_eq!(
            ObjectProfile::collect(None, ObjectId::SYSTEM),
            ObjectProfile::default()
        );
    }

    #[test]
    fn hot_objects_orders_by_count_then_id() {
        let mut snap = TelemetrySnapshot::default();
        let a = ObjectId::SYSTEM;
        snap.objects.entry(a).or_default().invocations = 5;
        let hot = snap.hot_objects(10);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, a);
        assert!(snap.hot_objects(0).is_empty());
    }

    #[test]
    fn json_is_deterministic_and_schema_stamped() {
        let w = seeded_window();
        let one = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w)).to_json();
        let two = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w)).to_json();
        assert_eq!(one, two);
        assert!(one.contains("\"schema\":\"mrom.telemetry.v1\""));
        assert!(one.contains("\"window\":{"));
    }

    #[test]
    fn unwindowed_snapshot_is_empty_but_complete() {
        let snap = TelemetrySnapshot::collect(ObsMode::Full, 7, None);
        assert!(snap.objects.is_empty());
        let json = snap.to_json();
        assert!(json.contains("\"window\":null"));
        assert!(json.contains("\"now_us\":7"));
    }

    fn slice(w: &WindowState, node: NodeId, hosted: &[ObjectId]) -> TelemetrySnapshot {
        TelemetrySnapshot::collect_site(ObsMode::Ring, 1100, Some(w), node, hosted)
    }

    #[test]
    fn collect_site_filters_objects_and_edges() {
        let w = seeded_window();
        let site3 = slice(&w, NodeId(3), &[]);
        assert!(site3.objects.is_empty());
        assert!(site3.calls.is_empty());
        assert!(site3.links.is_empty());
        let site1 = slice(&w, NodeId(1), &[ObjectId::SYSTEM]);
        assert_eq!(site1.objects.len(), 1);
        assert_eq!(site1.calls.len(), 1);
        assert_eq!(site1.links.len(), 1);
    }

    /// Five sites over a 4-epoch ring written at epochs 0-3 and 5-6, so
    /// epoch 0 is a stale slot the live span (3..=6) must skip. Sites
    /// 1-4 run traffic around a ring; site 5 runs none. Returns the
    /// window with each site's hosted list, which names objects that
    /// left samples, one that never did, and (at site 4) one sampled
    /// only in the stale epoch.
    fn multi_site_window() -> (WindowState, Vec<(NodeId, Vec<ObjectId>)>) {
        let mut w = WindowState::new(WindowConfig::new(1000, 4).with_callers());
        let obj = |site: u64, k: u32| ObjectId::from_parts(NodeId(site), k, 0);
        for epoch in [0u64, 1, 2, 3, 5, 6] {
            let b = w.bucket_at(epoch * 1000 + 10).unwrap();
            if epoch == 0 {
                b.objects.entry(obj(4, 9)).or_default().invocations = 1;
            }
            for site in 1..=4u64 {
                let next = NodeId(site % 4 + 1);
                for k in 1..=3u32 {
                    if (site + u64::from(k) + epoch) % 3 == 0 {
                        continue;
                    }
                    let s = b.objects.entry(obj(site, k)).or_default();
                    s.invocations += site + epoch;
                    s.errors += u64::from(k == 2);
                    s.fuel.record(10 * epoch + u64::from(k));
                    s.latency_ns.record(1000 * site);
                    s.busy_collisions += u64::from(k == 3);
                    *s.remote_callers.entry(next).or_insert(0) += epoch;
                }
                *b.calls.entry((NodeId(site), NodeId(site))).or_insert(0) += epoch + 1;
                *b.calls.entry((NodeId(site), next)).or_insert(0) += site;
                let l = b.links.entry((NodeId(site), next)).or_default();
                l.delivered += epoch + site;
                l.dropped += epoch % 2;
                l.bytes += 100 * site;
                l.latency_us.record(50 * epoch + site);
            }
        }
        let hosted = (1..=5u64)
            .map(|site| {
                let mut ids: Vec<ObjectId> = (1..=3).map(|k| obj(site, k)).collect();
                ids.push(obj(site, 99));
                if site == 4 {
                    ids.push(obj(4, 9));
                }
                // A repeated id yields one row.
                ids.push(obj(site, 1));
                (NodeId(site), ids)
            })
            .collect();
        (w, hosted)
    }

    #[test]
    fn collect_site_equals_the_whole_fold_filtered_to_the_site() {
        let (w, hosted) = multi_site_window();
        let whole = TelemetrySnapshot::collect(ObsMode::Ring, 6010, Some(&w));
        assert!(!whole
            .objects
            .contains_key(&ObjectId::from_parts(NodeId(4), 9, 0)));
        for (node, ids) in &hosted {
            let node = *node;
            let mut expected = whole.clone();
            expected.objects.retain(|id, _| ids.contains(id));
            expected.calls.retain(|(s, d), _| *s == node || *d == node);
            expected.links.retain(|(s, d), _| *s == node || *d == node);
            let got = TelemetrySnapshot::collect_site(ObsMode::Ring, 6010, Some(&w), node, ids);
            assert_eq!(got, expected, "site {node:?}");
            assert_eq!(got.to_json(), expected.to_json(), "site {node:?}");
            if node == NodeId(5) {
                assert!(got.objects.is_empty() && got.calls.is_empty() && got.links.is_empty());
            } else {
                assert_eq!(got.objects.len(), 3, "site {node:?}");
                assert_eq!(got.calls.len(), 3, "site {node:?}");
                assert_eq!(got.links.len(), 2, "site {node:?}");
            }
        }
        assert_eq!(
            TelemetrySnapshot::collect_site(ObsMode::Ring, 7, None, NodeId(1), &hosted[0].1),
            TelemetrySnapshot::collect(ObsMode::Ring, 7, None)
        );
    }

    #[test]
    fn absorb_adds_counters_and_keeps_worst_percentiles() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));

        // A slice of a site the traffic never touched is empty, and
        // folding it in must round-trip the full picture unchanged.
        let mut folded = slice(&w, NodeId(1), &[ObjectId::SYSTEM]);
        folded.absorb(&slice(&w, NodeId(3), &[]));
        assert_eq!(folded.objects, snap.objects);
        assert_eq!(folded.calls, snap.calls);
        assert_eq!(folded.links, snap.links);
        assert_eq!(folded.now_us, snap.now_us);

        // Overlapping profiles: counters add, percentiles take the max.
        let mut twice = snap.clone();
        twice.absorb(&snap);
        let one = snap.objects.get(&ObjectId::SYSTEM).unwrap();
        let two = twice.objects.get(&ObjectId::SYSTEM).unwrap();
        assert_eq!(two.invocations, 2 * one.invocations);
        assert_eq!(two.fuel_total, 2 * one.fuel_total);
        assert_eq!(two.fuel_p95, one.fuel_p95);
        assert_eq!(
            twice.calls.get(&(NodeId(1), NodeId(2))),
            Some(&(2 * snap.calls[&(NodeId(1), NodeId(2))]))
        );
        let l1 = snap.links.get(&(NodeId(1), NodeId(2))).unwrap();
        let l2 = twice.links.get(&(NodeId(1), NodeId(2))).unwrap();
        assert_eq!(l2.bytes, 2 * l1.bytes);
        assert_eq!(l2.latency_p50_us, l1.latency_p50_us);
    }

    #[test]
    fn absorb_is_commutative_over_disjoint_slices() {
        let w = seeded_window();
        let a = slice(&w, NodeId(1), &[ObjectId::SYSTEM]);
        let b = slice(&w, NodeId(3), &[]);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        // Mode is a label, not an aggregate; compare the data fields.
        assert_eq!(ab.objects, ba.objects);
        assert_eq!(ab.calls, ba.calls);
        assert_eq!(ab.links, ba.links);
        assert_eq!(ab.to_json(), ba.to_json());
    }
}
