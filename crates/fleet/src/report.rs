//! End-of-run fleet report: every counter the harness tallied plus the
//! global invariants a run must uphold *regardless of seed, topology,
//! churn schedule, or worker-pool width*.
//!
//! The report is integers-only (plus stable name strings), so its JSON
//! rendering is byte-identical across runs of the same seed — the
//! property the determinism suite sweeps.

use mrom_net::NetStats;
use mrom_value::Value;

/// What the self-tuning Advisor did over one run. Present only when the
/// run's [`AdvisorConfig`](hadas::AdvisorConfig) was enabled, so
/// advisor-off reports stay byte-identical to pre-advisor builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvisorReport {
    /// Advisory passes executed (one per virtual-time epoch reached).
    pub epochs: u64,
    /// Advisor-driven migrations acknowledged by the destination.
    pub migrations_ok: u64,
    /// Advisor-driven migrations parked in-doubt (settled by the drain).
    pub migrations_failed: u64,
    /// Advisor-driven migrations refused outright.
    pub migrations_skipped: u64,
    /// Candidate moves suppressed by dwell time or migration budgets —
    /// the no-thrash witness.
    pub thrash_aborts: u64,
    /// Ambassadors deployed or refreshed across degraded links.
    pub ambassadors_refreshed: u64,
    /// Shed decisions executed (admission policy tightened).
    pub sheds: u64,
}

impl AdvisorReport {
    fn to_value(self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Value::map([
            ("epochs", int(self.epochs)),
            ("migrations_ok", int(self.migrations_ok)),
            ("migrations_failed", int(self.migrations_failed)),
            ("migrations_skipped", int(self.migrations_skipped)),
            ("thrash_aborts", int(self.thrash_aborts)),
            ("ambassadors_refreshed", int(self.ambassadors_refreshed)),
            ("sheds", int(self.sheds)),
        ])
    }
}

/// Virtual-time per-op latency percentiles over the run's first and
/// last quarters. Present only for caller-affinity workloads (the E19
/// battery), where the early/late contrast is the convergence figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// Workload ops whose virtual-time latency was measured.
    pub ops_measured: u64,
    /// Median latency over the first quarter of ops, in µs.
    pub early_p50_us: u64,
    /// 95th-percentile latency over the first quarter of ops, in µs.
    pub early_p95_us: u64,
    /// Median latency over the last quarter of ops, in µs.
    pub late_p50_us: u64,
    /// 95th-percentile latency over the last quarter of ops, in µs.
    pub late_p95_us: u64,
}

impl LatencyReport {
    fn to_value(self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Value::map([
            ("ops_measured", int(self.ops_measured)),
            ("early_p50_us", int(self.early_p50_us)),
            ("early_p95_us", int(self.early_p95_us)),
            ("late_p50_us", int(self.late_p50_us)),
            ("late_p95_us", int(self.late_p95_us)),
        ])
    }
}

/// The outcome of one [`crate::run_fleet`] run. Doubles as the
/// determinism witness: same config + seed must reproduce it field for
/// field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Topology name (stable, lowercase).
    pub topology: &'static str,
    /// The seed the run executed under.
    pub seed: u64,
    /// Number of sites.
    pub sites: u64,
    /// Total objects in the fleet.
    pub objects: u64,
    /// Workload operations issued.
    pub invocations: u64,
    /// Per-site worker pool width.
    pub workers: u64,
    /// Non-idempotent `bump` calls acknowledged.
    pub ops_ok: u64,
    /// `bump` calls that timed out after every retry (ambiguous: the
    /// increment may or may not have landed).
    pub ops_failed: u64,
    /// `bump` calls definitively refused (e.g. the target site was down
    /// and had evicted the object) — provably never applied.
    pub ops_rejected: u64,
    /// Read-only `peek` calls acknowledged.
    pub peeks_ok: u64,
    /// `peek` calls that timed out (ambiguous).
    pub peeks_failed: u64,
    /// `peek` calls definitively refused.
    pub peeks_rejected: u64,
    /// Migrations acknowledged by the destination.
    pub migrations_ok: u64,
    /// Migrations parked in-doubt (timeout; settled during the drain).
    pub migrations_failed: u64,
    /// Migrations refused outright (object currently unavailable).
    pub migrations_skipped: u64,
    /// Churn crash events injected.
    pub crashes: u64,
    /// Churn restart events injected.
    pub restarts: u64,
    /// Distinct objects the Zipf stream actually targeted.
    pub distinct_targets: u64,
    /// Sum of every cell's final counter.
    pub counter_total: i64,
    /// Objects with zero live copies after the final drain.
    pub lost_objects: u64,
    /// Objects with more than one live copy after the final drain.
    pub duplicated_objects: u64,
    /// Objects whose final counter fell outside their per-object
    /// exactly-once window `[ok, ok + failed]`.
    pub window_violations: u64,
    /// Migrations still in doubt after the drain.
    pub parked_in_doubt: u64,
    /// Messages still on the wire after the drain.
    pub in_flight: u64,
    /// Simulator counters at the end of the run.
    pub stats: NetStats,
    /// Windowed telemetry applications summed over every fleet cell.
    pub telemetry_invocations: u64,
    /// Whether absorbing every per-site telemetry slice reproduced the
    /// global per-object profiles exactly.
    pub telemetry_fold_matches: bool,
    /// Advisor activity, when the run's advisor was enabled (`None`
    /// keeps advisor-off reports byte-identical to pre-advisor builds).
    pub advisor: Option<AdvisorReport>,
    /// Early/late latency percentiles, for caller-affinity workloads.
    pub latency: Option<LatencyReport>,
}

impl FleetReport {
    /// Advisor-driven migrations attempted (acknowledged + in-doubt);
    /// 0 when the advisor was off.
    #[must_use]
    pub fn advisor_migrations(&self) -> u64 {
        self.advisor
            .map_or(0, |a| a.migrations_ok + a.migrations_failed)
    }

    /// Moves the advisor's hysteresis suppressed; 0 when it was off.
    #[must_use]
    pub fn advisor_thrash_aborts(&self) -> u64 {
        self.advisor.map_or(0, |a| a.thrash_aborts)
    }

    /// Checks every fleet invariant, returning a human-readable list of
    /// violations (empty = the run upheld all of them):
    ///
    /// 1. **single host** — every object lives at exactly one site;
    /// 2. **exactly-once windows** — each cell's counter sits inside its
    ///    `[acknowledged, acknowledged + ambiguous]` window;
    /// 3. **clean recovery** — nothing parked in doubt, nothing on the
    ///    wire after the drain;
    /// 4. **accounting** — every simulator send is delivered or dropped;
    /// 5. **telemetry accounting** — windowed per-object applications
    ///    equal the state-derived application count up to ambiguous
    ///    peeks, and the per-site slices fold back to the global view.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.lost_objects != 0 {
            out.push(format!(
                "{} object(s) lost (zero live copies)",
                self.lost_objects
            ));
        }
        if self.duplicated_objects != 0 {
            out.push(format!(
                "{} object(s) duplicated (multiple live copies)",
                self.duplicated_objects
            ));
        }
        if self.window_violations != 0 {
            out.push(format!(
                "{} cell(s) outside their exactly-once counter window",
                self.window_violations
            ));
        }
        if self.parked_in_doubt != 0 {
            out.push(format!(
                "{} migration(s) still in doubt after the drain",
                self.parked_in_doubt
            ));
        }
        if self.in_flight != 0 {
            out.push(format!(
                "{} message(s) still in flight after the drain",
                self.in_flight
            ));
        }
        #[allow(clippy::cast_possible_truncation)]
        if !self.stats.accounts_for_every_send(self.in_flight as usize) {
            out.push(format!(
                "stats do not balance: delivered {} + dropped {} + in-flight {} \
                 != sent {} + duplicated {}",
                self.stats.messages_delivered,
                self.stats.messages_dropped,
                self.in_flight,
                self.stats.messages_sent,
                self.stats.messages_duplicated,
            ));
        }
        // Every applied `bump` left exactly one increment (state survives
        // churn because the harness checkpoints at the crash instant), so
        // actual bump applications == counter_total. Peek applications are
        // known exactly for acknowledged calls and at-most-once for
        // ambiguous ones, which bounds the windowed telemetry count.
        #[allow(clippy::cast_sign_loss)]
        let applied_bumps = self.counter_total.max(0) as u64;
        let min = applied_bumps + self.peeks_ok;
        let max = applied_bumps + self.peeks_ok + self.peeks_failed;
        if self.telemetry_invocations < min || self.telemetry_invocations > max {
            out.push(format!(
                "telemetry counted {} applications, outside window [{min}, {max}]",
                self.telemetry_invocations
            ));
        }
        if !self.telemetry_fold_matches {
            out.push("per-site telemetry slices do not fold back to the global view".to_owned());
        }
        out
    }

    /// Panics with the full violation list if any invariant failed.
    pub fn assert_invariants(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "fleet invariants violated ({} seed {}):\n  {}",
            self.topology,
            self.seed,
            violations.join("\n  ")
        );
    }

    /// The report as an integers-only [`Value`] tree (schema
    /// `mrom.fleet.v1`) — render with [`mrom_obs::to_json`] for the
    /// byte-stable JSON the determinism suite compares.
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    pub fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(v as i64);
        let mut fields = vec![
            ("schema", Value::from("mrom.fleet.v1")),
            ("topology", Value::from(self.topology)),
            ("seed", int(self.seed)),
            (
                "shape",
                Value::map([
                    ("sites", int(self.sites)),
                    ("objects", int(self.objects)),
                    ("invocations", int(self.invocations)),
                    ("workers", int(self.workers)),
                ]),
            ),
            (
                "ops",
                Value::map([
                    ("bump_ok", int(self.ops_ok)),
                    ("bump_failed", int(self.ops_failed)),
                    ("bump_rejected", int(self.ops_rejected)),
                    ("peek_ok", int(self.peeks_ok)),
                    ("peek_failed", int(self.peeks_failed)),
                    ("peek_rejected", int(self.peeks_rejected)),
                    ("distinct_targets", int(self.distinct_targets)),
                ]),
            ),
            (
                "migrations",
                Value::map([
                    ("ok", int(self.migrations_ok)),
                    ("failed", int(self.migrations_failed)),
                    ("skipped", int(self.migrations_skipped)),
                ]),
            ),
            (
                "churn",
                Value::map([
                    ("crashes", int(self.crashes)),
                    ("restarts", int(self.restarts)),
                ]),
            ),
            (
                "state",
                Value::map([
                    ("counter_total", Value::Int(self.counter_total)),
                    ("lost_objects", int(self.lost_objects)),
                    ("duplicated_objects", int(self.duplicated_objects)),
                    ("window_violations", int(self.window_violations)),
                    ("parked_in_doubt", int(self.parked_in_doubt)),
                    ("in_flight", int(self.in_flight)),
                ]),
            ),
            ("net", self.stats.to_value()),
            (
                "telemetry",
                Value::map([
                    ("invocations", int(self.telemetry_invocations)),
                    ("fold_matches", Value::Bool(self.telemetry_fold_matches)),
                ]),
            ),
        ];
        // Rendered only when present, so advisor-off runs keep the exact
        // pre-advisor JSON byte layout (the golden regression compares
        // against artifacts captured before the Advisor existed).
        if let Some(advisor) = self.advisor {
            fields.push(("advisor", advisor.to_value()));
        }
        if let Some(latency) = self.latency {
            fields.push(("latency", latency.to_value()));
        }
        Value::map(fields)
    }

    /// [`FleetReport::to_value`] rendered as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        mrom_obs::to_json(&self.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> FleetReport {
        FleetReport {
            topology: "star",
            seed: 1,
            sites: 2,
            objects: 4,
            invocations: 10,
            workers: 1,
            ops_ok: 6,
            ops_failed: 1,
            ops_rejected: 0,
            peeks_ok: 3,
            peeks_failed: 0,
            peeks_rejected: 0,
            migrations_ok: 1,
            migrations_failed: 0,
            migrations_skipped: 0,
            crashes: 0,
            restarts: 0,
            distinct_targets: 3,
            counter_total: 7,
            lost_objects: 0,
            duplicated_objects: 0,
            window_violations: 0,
            parked_in_doubt: 0,
            in_flight: 0,
            stats: NetStats {
                messages_sent: 20,
                messages_delivered: 20,
                ..NetStats::default()
            },
            telemetry_invocations: 10,
            telemetry_fold_matches: true,
            advisor: None,
            latency: None,
        }
    }

    #[test]
    fn clean_report_has_no_violations() {
        assert!(clean_report().violations().is_empty());
        clean_report().assert_invariants();
    }

    #[test]
    fn each_invariant_trips_its_own_violation() {
        let mut lost = clean_report();
        lost.lost_objects = 2;
        assert!(lost.violations().iter().any(|v| v.contains("lost")));

        let mut dup = clean_report();
        dup.duplicated_objects = 1;
        assert!(dup.violations().iter().any(|v| v.contains("duplicated")));

        let mut window = clean_report();
        window.window_violations = 3;
        assert!(window.violations().iter().any(|v| v.contains("window")));

        let mut telemetry = clean_report();
        telemetry.telemetry_invocations = 99;
        assert!(telemetry
            .violations()
            .iter()
            .any(|v| v.contains("telemetry counted")));

        let mut fold = clean_report();
        fold.telemetry_fold_matches = false;
        assert!(fold.violations().iter().any(|v| v.contains("fold")));

        let mut unbalanced = clean_report();
        unbalanced.stats.messages_delivered = 19;
        assert!(unbalanced
            .violations()
            .iter()
            .any(|v| v.contains("stats do not balance")));
    }

    #[test]
    fn ambiguous_peeks_widen_the_telemetry_window() {
        let mut r = clean_report();
        r.peeks_failed = 2;
        r.telemetry_invocations = 12; // 7 bumps + 3 acked peeks + 2 ambiguous
        assert!(r.violations().is_empty());
        r.telemetry_invocations = 13; // one more than any execution could explain
        assert!(!r.violations().is_empty());
    }

    #[test]
    fn advisor_and_latency_sections_render_only_when_present() {
        let off = clean_report().to_json();
        assert!(!off.contains("\"advisor\""));
        assert!(!off.contains("\"latency\""));
        let mut on = clean_report();
        on.advisor = Some(AdvisorReport {
            epochs: 3,
            migrations_ok: 2,
            thrash_aborts: 1,
            ..AdvisorReport::default()
        });
        on.latency = Some(LatencyReport {
            ops_measured: 100,
            early_p95_us: 160_000,
            late_p95_us: 4_000,
            ..LatencyReport::default()
        });
        let json = on.to_json();
        assert!(json.contains("\"advisor\":{"));
        assert!(json.contains("\"thrash_aborts\":1"));
        assert!(json.contains("\"latency\":{"));
        assert_eq!(on.advisor_migrations(), 2);
        assert_eq!(on.advisor_thrash_aborts(), 1);
        assert_eq!(clean_report().advisor_migrations(), 0);
    }

    #[test]
    fn json_rendering_is_stable() {
        let a = clean_report().to_json();
        let b = clean_report().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\":\"mrom.fleet.v1\""));
        assert!(a.contains("\"counter_total\":7"));
    }
}
