//! Running a workload: the end-to-end run (untraced, timed for
//! `--seconds`) and the traced run (per-layer figures), and the metrics
//! each reports.

use std::time::{Duration, Instant};

use hadas::Federation;
use mrom_obs::{Metrics, ObsMode};

use crate::fleet::{Fleet, FLEET_1K, FLEET_64};
use crate::migrate::Migrate;
use crate::probe::{self, Probes};
use crate::record::{median, percentile, Call, Kind, Recorder, Reservoir, Traffic};
use crate::tower::Tower;
use crate::world::{self, Capture, Res};

/// What the run loop needs from a workload. `step` issues the next op of
/// the workload's seeded stream; the program sees only those calls.
pub trait Workload {
    fn step(&mut self, rec: &mut Recorder) -> Res<()>;
    /// Client ops issued so far.
    fn ops(&self) -> usize;
    /// Ops of every kind attempted (client ops, migrations, polls).
    fn attempted(&self) -> u64;
    /// Attempted ops that failed or were refused.
    fn failed(&self) -> u64;
    fn fed(&self) -> &Federation;
    fn fed_mut(&mut self) -> &mut Federation;
    /// Turns fleet telemetry polls on or off (no-op elsewhere).
    fn set_polls(&mut self, _on: bool) {}
    /// Drains the federation and runs the correctness gate; returns the
    /// violations.
    fn check(&mut self, rec: &mut Recorder) -> Res<Vec<String>>;
    /// Inputs for the layer probes, taken from a hot object.
    fn capture(&mut self) -> Res<Capture>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Fleet1k,
    Migrate64,
    LocalTower,
}

impl Which {
    pub const ALL: [Which; 3] = [Which::Fleet1k, Which::Migrate64, Which::LocalTower];

    pub fn name(self) -> &'static str {
        match self {
            Which::Fleet1k => "fleet-1k",
            Which::Migrate64 => "migrate-64",
            Which::LocalTower => "local-tower",
        }
    }

    pub fn parse(name: &str) -> Option<Which> {
        Which::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs with windowed telemetry (Ring mode).
    fn ring(self) -> bool {
        self == Which::Fleet1k
    }

    /// Set-ups per run; `setup_s` is their median. Half run before the
    /// measured loop (the last one is measured), half after it, so the
    /// median spans the run's host phases.
    fn setups(self) -> usize {
        match self {
            Which::Fleet1k => 3,
            Which::Migrate64 | Which::LocalTower => 15,
        }
    }

    /// Client ops before the first measurement window: the telemetry
    /// window and the runtimes' caches fill first.
    fn warmup(self) -> usize {
        match self {
            Which::Fleet1k => 5_000,
            Which::Migrate64 => 1_000,
            Which::LocalTower => 20_000,
        }
    }

    /// Client ops of the deterministic prefix every run completes.
    /// `failed_ratio` and `virtual_us_per_op` are taken over it, so they
    /// repeat exactly for a seed; fleet churn falls inside it.
    fn prefix(self) -> usize {
        match self {
            Which::Fleet1k => 20_000,
            Which::Migrate64 => 10_000,
            Which::LocalTower => 100_000,
        }
    }

    /// Client ops per arm of a traced run.
    fn arm_ops(self) -> usize {
        match self {
            Which::Fleet1k => 10_000,
            Which::Migrate64 => 5_000,
            Which::LocalTower => 50_000,
        }
    }

    fn build(self, seed: u64, rec: &mut Recorder) -> Res<Box<dyn Workload>> {
        Ok(match self {
            Which::Fleet1k => Box::new(Fleet::setup(FLEET_1K, seed, self.prefix(), rec)?),
            Which::Migrate64 => Box::new(Migrate::setup(seed, rec)?),
            Which::LocalTower => Box::new(Tower::setup(seed, rec)?),
        })
    }
}

/// One named figure with its unit. `note` says where a figure came from
/// when that is not the workload itself (human-readable output only).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, note: String::new() }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The figures of the result line.
    pub metrics: Vec<Metric>,
    /// Further figures for the human-readable report.
    pub report: Vec<Metric>,
    /// Free-form report lines (per-op budgets, trace file).
    pub lines: Vec<String>,
}

const NS_PER_US: f64 = 1e3;

fn us(ns: u64) -> f64 {
    ns as f64 / NS_PER_US
}

/// Builds the workload `count` times, appending each set-up time (in
/// seconds) to `times`; returns the last build.
fn build_timed(
    which: Which,
    seed: u64,
    rec: &mut Recorder,
    count: usize,
    times: &mut Vec<f64>,
) -> Res<Box<dyn Workload>> {
    let mut built = None;
    for _ in 0..count {
        drop(built.take());
        world::set_obs(which.ring());
        let start = Instant::now();
        built = Some(which.build(seed, rec)?);
        times.push(start.elapsed().as_secs_f64());
    }
    built.ok_or_else(|| "no set-up ran".into())
}

/// Latency figures of one op kind for the report: p50 plus the tail
/// percentiles that have at least ten samples beyond them.
fn kind_report(out: &mut Vec<Metric>, kind: Kind, samples: &Reservoir) {
    let mut s = samples.values().to_vec();
    let n = samples.seen();
    let tails: &[f64] = if kind == Kind::Introspect { &[50.0, 95.0] } else { &[50.0, 99.0] };
    for &p in tails {
        let name = format!("{}_p{p:.0}_us", kind.stem());
        let mut m = metric(name, f64::NAN, "us");
        match percentile(&mut s, p) {
            Some(v) => {
                m.value = us(v);
                m.note = format!("n={n}");
            }
            None => m.note = format!("n/a (n={n})"),
        }
        out.push(m);
    }
}

/// The end-to-end run: set up, issue ops until both the deterministic
/// prefix is done and `seconds` have passed, drain, check. Throughput and
/// latencies are measured after the warm-up ops.
pub fn end_to_end(which: Which, seed: u64, seconds: u64) -> Res<Outcome> {
    let mut rec = Recorder::new(false);
    let mut setup_times = Vec::new();
    let before = which.setups().div_ceil(2);
    let mut w = build_timed(which, seed, &mut rec, before, &mut setup_times)?;
    let virtual_start = w.fed().now().as_micros();
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut prefix = None;
    let mut measured_from = None;
    loop {
        w.step(&mut rec)?;
        if w.ops() == which.prefix() {
            let virtual_us = w.fed().now().as_micros() - virtual_start;
            prefix = Some((virtual_us, w.attempted(), w.failed(), peak_rss_mib()?));
        }
        if measured_from.is_none() && w.ops() >= which.warmup() {
            rec.clear_samples();
            measured_from = Some((Instant::now(), w.ops()));
        }
        if w.ops() >= which.prefix() && start.elapsed() >= deadline {
            break;
        }
    }
    let (from, warm_ops) = measured_from.ok_or("warm-up not reached")?;
    let wall = from.elapsed().as_secs_f64();
    let ops = w.ops() - warm_ops;
    let mut out = Outcome {
        violations: w.check(&mut rec)?,
        attempted: w.attempted(),
        failed: w.failed(),
        ..Outcome::default()
    };
    let (virtual_us, prefix_attempted, prefix_failed, rss) = prefix.ok_or("prefix not reached")?;
    drop(w);
    build_timed(which, seed, &mut rec, which.setups() - before, &mut setup_times)?;
    setup_times.sort_by(f64::total_cmp);

    let mut op_samples = rec.op_samples().values().to_vec();
    let op_p50 = percentile(&mut op_samples, 50.0).ok_or("too few ops for op_p50_us")?;
    out.metrics = vec![
        metric("setup_s", setup_times[setup_times.len() / 2], "s"),
        metric("ops_per_s", ops as f64 / wall, "1/s"),
        metric("op_p50_us", us(op_p50), "us"),
        metric("peak_rss_mib", rss, "MiB"),
    ];
    let mut p99 = metric("op_p99_us", f64::NAN, "us");
    p99.note = format!("n={}", rec.op_samples().seen());
    if let Some(v) = percentile(&mut op_samples, 99.0) {
        p99.value = us(v);
    }
    out.report.push(p99);
    out.report.push(metric(
        "failed_ratio",
        prefix_failed as f64 / prefix_attempted.max(1) as f64,
        "ratio",
    ));
    out.report.push(metric("virtual_us_per_op", virtual_us as f64 / which.prefix() as f64, "us"));
    for kind in Kind::ALL {
        kind_report(&mut out.report, kind, rec.samples(kind));
    }
    out.lines.push(format!(
        "{ops} client ops measured in {wall:.2} s after {warm_ops} warm-up ops; \
         deterministic prefix {} ops",
        which.prefix()
    ));
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one arm of a traced run measured.
struct Arm {
    samples: Vec<Reservoir>,
    traffic: Vec<Traffic>,
    per_op_ns: f64,
    nodes: usize,
}

impl Arm {
    fn samples(&self, kind: Kind) -> &Reservoir {
        &self.samples[kind as usize]
    }

    fn count(&self, kind: Kind) -> u64 {
        self.samples(kind).seen()
    }

    fn median(&self, kind: Kind) -> Option<u64> {
        median(&mut self.samples(kind).values().to_vec())
    }

    fn traffic(&self, kind: Kind) -> Traffic {
        self.traffic[kind as usize]
    }
}

fn arm(w: &mut dyn Workload, rec: &mut Recorder, ops: usize) -> Res<Arm> {
    rec.clear_samples();
    let start = Instant::now();
    for _ in 0..ops {
        w.step(rec)?;
        let stats = w.fed().net_stats();
        rec.counters(stats.messages_sent, stats.bytes_sent);
    }
    let per_op_ns = start.elapsed().as_nanos() as f64 / ops as f64;
    Ok(Arm {
        samples: Kind::ALL.iter().map(|&k| rec.samples(k).clone()).collect(),
        traffic: Kind::ALL.iter().map(|&k| rec.traffic(k)).collect(),
        per_op_ns,
        nodes: w.fed().site_nodes().len(),
    })
}

/// The fleet mix at one size, run for `SCALE_OPS` client ops.
struct ScaleArm {
    rec: Recorder,
    arm: Arm,
    fleet: Fleet,
}

const SCALE_OPS: usize = 3_000;

fn scale_arm(shape: crate::fleet::FleetShape, seed: u64, out: &mut Outcome) -> Res<ScaleArm> {
    let mut rec = Recorder::new(false);
    world::set_obs(true);
    let mut fleet = Fleet::setup(shape, seed, SCALE_OPS, &mut rec)?;
    let arm = arm(&mut fleet, &mut rec, SCALE_OPS)?;
    out.violations.extend(
        fleet
            .check(&mut rec)?
            .into_iter()
            .map(|v| format!("scale arm at {} sites: {v}", shape.sites)),
    );
    Ok(ScaleArm { rec, arm, fleet })
}

/// The traced run: one set-up with its calls timed, then on the same
/// federation an untraced arm, a traced arm (spans, counters, obs Ring),
/// an obs-tax arm, and a second untraced arm; then the correctness gate,
/// the layer probes, and the fleet mix at 64 and 1000 sites.
#[allow(clippy::too_many_lines)]
pub fn traced(which: Which, seed: u64, trace_path: &std::path::Path) -> Res<Outcome> {
    let mut rec = Recorder::new(true);
    let mut w = build_timed(which, seed, &mut rec, 1, &mut Vec::new())?;
    rec.set_tracing(false);
    let n = which.arm_ops();

    let base1 = arm(&mut *w, &mut rec, n)?;

    if !which.ring() {
        world::set_obs(true);
    }
    let stats0 = w.fed().net_stats().clone();
    let before = mrom_obs::metrics_snapshot();
    let events0 = mrom_obs::events_recorded();
    rec.set_tracing(true);
    let traced_arm = arm(&mut *w, &mut rec, n)?;
    rec.set_tracing(false);
    let after = mrom_obs::metrics_snapshot();
    let events = mrom_obs::events_recorded() - events0;
    let stats1 = w.fed().net_stats();
    let msgs = stats1.messages_sent - stats0.messages_sent;
    let bytes = stats1.bytes_sent - stats0.bytes_sent;
    let drops = stats1.messages_dropped - stats0.messages_dropped;
    let mut telemetry_ns = Vec::new();
    let mut telemetry_objects = 0;
    for _ in 0..5 {
        let start = Instant::now();
        let snap = w.fed().telemetry();
        telemetry_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        telemetry_objects = snap.objects.len();
    }

    // The obs-tax arm flips observability: off (and no polls) where the
    // workload runs with it, on where it runs without.
    if which.ring() {
        mrom_obs::set_mode(ObsMode::Disabled);
        w.set_polls(false);
    }
    let tax_arm = arm(&mut *w, &mut rec, n)?;
    if which.ring() {
        mrom_obs::set_mode(ObsMode::Ring);
        w.set_polls(true);
    } else {
        world::set_obs(false);
    }
    let base2 = arm(&mut *w, &mut rec, n)?;
    let base_ns = (base1.per_op_ns + base2.per_op_ns) / 2.0;
    let ring_tax_pct = if which.ring() {
        (base_ns / tax_arm.per_op_ns - 1.0) * 100.0
    } else {
        (tax_arm.per_op_ns / base_ns - 1.0) * 100.0
    };
    let trace_overhead_pct = (traced_arm.per_op_ns / base_ns - 1.0) * 100.0;

    let mut out = Outcome {
        violations: w.check(&mut rec)?,
        attempted: w.attempted(),
        failed: w.failed(),
        ..Outcome::default()
    };
    let capture = w.capture()?;
    let probes = probe::run(w.fed_mut(), &capture, seed)?;
    let trace = rec.chrome_trace();
    let records = mrom_obs::validate_chrome_trace(&trace)?;
    std::fs::write(trace_path, &trace)?;
    out.lines.push(format!(
        "trace: {records} records ({} spans) written to {}",
        rec.span_count(),
        trace_path.display()
    ));
    drop(w);

    let mut small = scale_arm(FLEET_64, seed, &mut out)?;
    let big = scale_arm(FLEET_1K, seed, &mut out)?;
    world::set_obs(false);

    let delta = |f: fn(&Metrics) -> u64| f(&after) - f(&before);
    let per_op = |x: u64| x as f64 / n as f64;
    let runs = delta(|m| m.script.runs);
    let hits = delta(|m| m.invoke.cache_hits);
    let misses = delta(|m| m.invoke.cache_misses);
    let ic_hits = delta(|m| m.script.ic_hits);
    let ic_misses = delta(|m| m.script.ic_misses);
    let adopt = median(&mut rec.call_samples(Call::Adopt).to_vec()).ok_or("no adopt sample")?;
    let telemetry = median(&mut telemetry_ns).ok_or("no telemetry sample")?;
    let layer = &mut out.metrics;
    layer.extend(
        [
            ("hadas.msgs_per_op", per_op(msgs), "msg/op"),
            ("hadas.bytes_per_op", per_op(bytes), "B/op"),
            ("hadas.retries", delta(|m| m.federation.retries) as f64, "count"),
            ("hadas.dedup_hits", delta(|m| m.federation.dedup_hits) as f64, "count"),
        ]
        .map(|(name, v, unit)| metric(name, v, unit)),
    );
    // Layers this workload never reaches are read from the 64-site fleet
    // arm instead, and marked so in the report.
    for (name, call) in [
        ("hadas.add_site_us", Call::AddSite),
        ("hadas.link_us", Call::Link),
        ("hadas.checkpoint_site_us", Call::Checkpoint),
        ("hadas.restart_site_us", Call::Restart),
        ("hadas.drain_us", Call::Drain),
    ] {
        if let Some(ns) = median(&mut rec.call_samples(call).to_vec()) {
            layer.push(metric(name, us(ns), "us"));
        } else {
            let ns = median(&mut small.rec.call_samples(call).to_vec())
                .ok_or_else(|| format!("no {name} sample in the fleet arm"))?;
            layer.push(from_fleet_arm(metric(name, us(ns), "us")));
        }
    }
    layer.extend(
        [
            ("net.send_step_ns.64", probes.send_step_64_ns, "ns"),
            ("net.send_step_ns.1000", probes.send_step_1000_ns, "ns"),
            ("net.drops", drops as f64, "count"),
        ]
        .map(|(name, v, unit)| metric(name, v, unit)),
    );
    let virtual_per_remote = |a: &Arm| {
        a.traffic(Kind::InvokeRemote).virtual_us as f64 / a.count(Kind::InvokeRemote) as f64
    };
    if traced_arm.count(Kind::InvokeRemote) > 0 {
        let v = virtual_per_remote(&traced_arm);
        layer.push(metric("net.virtual_us_per_remote", v, "us"));
    } else {
        let v = virtual_per_remote(&small.arm);
        layer.push(from_fleet_arm(metric("net.virtual_us_per_remote", v, "us")));
    }
    layer.extend(
        [
            ("value.encode_ns", probes.encode_ns, "ns"),
            ("value.decode_ns", probes.decode_ns, "ns"),
            ("value.image_encode_ns", probes.image_encode_ns, "ns"),
            ("value.image_decode_ns", probes.image_decode_ns, "ns"),
            ("value.move_codec_ns", probes.move_codec_ns, "ns"),
            ("value.image_bytes", probes.image_bytes as f64, "B"),
            ("core.dispatch_hit_ratio", ratio(hits, hits + misses), "ratio"),
            ("core.tower_descents_per_op", per_op(delta(|m| m.invoke.tower_descents)), "count/op"),
            ("core.image_us", probes.image_ns / NS_PER_US, "us"),
            ("core.from_image_us", probes.from_image_ns / NS_PER_US, "us"),
            ("core.admission_checked", delta(|m| m.admission.checked) as f64, "count"),
            ("core.admission_rejected", delta(|m| m.admission.rejected) as f64, "count"),
            ("core.adopt_us", us(adopt), "us"),
            ("core.invoke_local_us", probes.invoke_local_ns / NS_PER_US, "us"),
            ("script.runs_per_op", per_op(runs), "count/op"),
            ("script.fuel_per_run", ratio(delta(|m| m.script.fuel.sum()), runs), "fuel/run"),
            ("script.ic_hit_ratio", ratio(ic_hits, ic_hits + ic_misses), "ratio"),
            ("script.compile_us", probes.compile_ns / NS_PER_US, "us"),
            ("persist.saves_per_op", per_op(delta(|m| m.persist.saves)), "count/op"),
            ("persist.bytes_written_per_op", per_op(delta(|m| m.persist.bytes_written)), "B/op"),
            ("persist.put_us", probes.put_ns / NS_PER_US, "us"),
            ("obs.telemetry_us", us(telemetry), "us"),
            ("obs.telemetry_objects", telemetry_objects as f64, "count"),
            ("obs.events_recorded", events as f64, "count"),
            ("obs.ring_tax_pct", ring_tax_pct, "%"),
            ("obs.trace_overhead_pct", trace_overhead_pct, "%"),
        ]
        .map(|(name, v, unit)| metric(name, v, unit)),
    );

    // Per-op budgets, from the 64-site fleet arm where the workload has
    // no such op (its probes then run on that arm's captured inputs).
    let mut fallback_probes = None;
    for (name, kind) in [
        ("bench.residual_pct.remote_invoke", Kind::InvokeRemote),
        ("bench.residual_pct.dispatch", Kind::Migrate),
    ] {
        if let Some(b) = budget(kind, &base1, &probes) {
            out.lines.extend(b.lines);
            out.metrics.push(metric(name, b.residual_pct, "%"));
            continue;
        }
        if fallback_probes.is_none() {
            let cap = small.fleet.capture()?;
            fallback_probes = Some(probe::run(small.fleet.fed_mut(), &cap, seed)?);
        }
        let p = fallback_probes.as_ref().ok_or("fleet-arm probes missing")?;
        let b = budget(kind, &small.arm, p).ok_or("the fleet arm has no such op")?;
        out.lines.extend(b.lines.into_iter().map(|l| format!("{l} [64-site fleet arm]")));
        out.metrics.push(from_fleet_arm(metric(name, b.residual_pct, "%")));
    }
    for (name, kind) in [
        ("bench.scale_ratio.remote_invoke", Kind::InvokeRemote),
        ("bench.scale_ratio.introspect", Kind::Introspect),
    ] {
        let (Some(lo), Some(hi)) = (small.arm.median(kind), big.arm.median(kind)) else {
            return Err(format!("scale arms lack {} samples", kind.stem()).into());
        };
        out.metrics.push(metric(name, hi as f64 / lo as f64, "ratio"));
    }

    for kind in Kind::ALL {
        kind_report(&mut out.report, kind, traced_arm.samples(kind));
    }
    Ok(out)
}

fn from_fleet_arm(mut m: Metric) -> Metric {
    m.note = "from the 64-site fleet arm".to_owned();
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Budget {
    lines: Vec<String>,
    residual_pct: f64,
}

/// The per-op budget of `remote_invoke` or `dispatch_object`: each probed
/// layer's unit cost × its count per op, against the measured median;
/// what is left is the unattributed residual (protocol engine, reply
/// cache, runtime bookkeeping, cache misses the warm probes never see).
fn budget(kind: Kind, arm: &Arm, p: &Probes) -> Option<Budget> {
    let count = arm.count(kind);
    let measured = arm.median(kind)? as f64;
    let msgs = arm.traffic(kind).msgs as f64 / count as f64;
    let send_step = if arm.nodes >= 1000 { p.send_step_1000_ns } else { p.send_step_64_ns };
    let parts: Vec<(&str, f64, f64)> = match kind {
        Kind::InvokeRemote => vec![
            ("value: InvokeReq/Resp encode+decode", p.encode_ns + p.decode_ns, msgs / 2.0),
            ("net: SimNet send+step", send_step, msgs),
            ("core: invoke at the host", p.invoke_local_ns, 1.0),
        ],
        Kind::Migrate => vec![
            ("core: image_value", p.image_ns, 1.0),
            ("value: image encode", p.image_encode_ns, 1.0),
            ("value: MoveObject/MoveAck encode+decode", p.move_codec_ns, msgs / 2.0),
            ("net: SimNet send+step", send_step, msgs),
            ("value: image decode", p.image_decode_ns, 1.0),
            ("core: from_image (admission)", p.from_image_ns, 1.0),
            ("persist: write-ahead put", p.put_ns, 2.0),
        ],
        _ => return None,
    };
    let mut lines = vec![format!(
        "budget {}: measured p50 {:.2} us over {count} ops",
        kind.span(),
        measured / NS_PER_US
    )];
    let mut covered = 0.0;
    for (layer, unit, times) in parts {
        let ns = unit * times;
        covered += ns;
        lines.push(format!(
            "  {layer:<42} {:>9.2} us  ({:.0} ns x {times:.2})",
            ns / NS_PER_US,
            unit
        ));
    }
    let residual = measured - covered;
    let residual_pct = residual / measured * 100.0;
    lines.push(format!(
        "  {:<42} {:>9.2} us  ({residual_pct:.1}%)",
        "unattributed residual",
        residual / NS_PER_US
    ));
    Some(Budget { lines, residual_pct })
}
