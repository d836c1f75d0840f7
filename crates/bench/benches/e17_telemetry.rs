//! E17 — windowed telemetry cost on the level-0 fast path.
//!
//! The same repeated dispatch as E2/E11's cache-hit regime, crossed over
//! observability mode × windowed profiling:
//!
//! * **disabled / window off** — the zero-cost claim unchanged: one
//!   thread-local byte read per instrumentation point.
//! * **disabled / window on** — a configured window must stay invisible
//!   while recording is off (the window feed sits *inside* the
//!   already-gated paths).
//! * **ring / window off** — PR 3's flight-recorder cost, the pre-PR
//!   baseline for the windowed rows.
//! * **ring / window on** — the tentpole's price: per-invocation
//!   epoch-bucket update (fuel histogram, counters) on top of ring.
//! * **full / window on** — adds `Instant` latency sampling into the
//!   window's latency histogram.
//!
//! **Runtime rows** price the path a fleet site pays per operation:
//! `Runtime::invoke` round-robin over 1,024 script counters with
//! `WindowConfig::DEFAULT`, advancing `Runtime::set_now` by 5 virtual ms
//! per invoke so an epoch bucket turns over every 200 invokes — the rate
//! fleet-1k's virtual clock turns them. `runtime_ring_win_turnover`
//! records in Ring mode (checkout, interned ring events, window rows in
//! recycled buckets); `runtime_disabled_win_turnover` is the same loop
//! with recording off.
//!
//! Service rows measure the read side: folding the live window into a
//! `TelemetrySnapshot`, rendering the flight recorder as a Chrome trace,
//! and, over a 256-site window with populated call matrix and links, one
//! site's self-view (`site_snapshot_collect`, the `site_telemetry` poll)
//! beside the whole-federation fold of the same window
//! (`fleet_snapshot_collect`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mrom_bench::{bench_ids, counter_among, script_counter};
use mrom_core::{invoke, NoWorld, Runtime};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_telemetry");
    let args = [Value::Int(20), Value::Int(22)];

    for (label, mode, windowed) in [
        ("disabled_nowin", ObsMode::Disabled, false),
        ("disabled_win", ObsMode::Disabled, true),
        ("ring_nowin", ObsMode::Ring, false),
        ("ring_win", ObsMode::Ring, true),
        ("full_win", ObsMode::Full, true),
    ] {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(windowed.then_some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(mode);
        group.bench_function(format!("invoke_{label}"), |b| {
            b.iter(|| {
                black_box(invoke(&mut obj, &mut world, caller, black_box("m_add"), &args).unwrap())
            });
        });
        mrom_obs::set_mode(ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }

    // The runtime path at fleet scale: many objects, and a virtual clock
    // that turns an epoch bucket every `INVOKES_PER_EPOCH` invokes.
    {
        const OBJECTS: usize = 1024;
        const INVOKES_PER_EPOCH: u64 = 200;
        let step_ms = WindowConfig::DEFAULT.epoch_micros / 1000 / INVOKES_PER_EPOCH;
        let rt = Runtime::new(NodeId(0xe17));
        let mut ids = bench_ids();
        let targets: Vec<ObjectId> = (0..OBJECTS)
            .map(|_| rt.adopt(script_counter(&mut ids)).expect("adopts"))
            .collect();
        for (label, mode) in [("ring", ObsMode::Ring), ("disabled", ObsMode::Disabled)] {
            mrom_obs::reset();
            mrom_obs::set_window(Some(WindowConfig::DEFAULT));
            mrom_obs::set_mode(mode);
            let (mut next, mut now_ms) = (0usize, rt.now());
            group.bench_function(format!("runtime_{label}_win_turnover"), |b| {
                b.iter(|| {
                    now_ms += step_ms;
                    rt.set_now(now_ms);
                    next = (next + 1) % OBJECTS;
                    black_box(
                        rt.invoke_as_system(targets[next], black_box("bump"), &[])
                            .unwrap(),
                    )
                });
            });
            mrom_obs::set_mode(ObsMode::Disabled);
            mrom_obs::set_window(None);
            mrom_obs::reset();
        }
    }

    // Read side: snapshot folding over a populated window, and the
    // Chrome exporter over a full flight-recorder ring.
    {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(Some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(ObsMode::Ring);
        for _ in 0..1024 {
            invoke(&mut obj, &mut world, caller, "m_add", &args).unwrap();
        }
        group.bench_function("snapshot_collect", |b| {
            b.iter(|| black_box(mrom_obs::telemetry_snapshot()));
        });
        let events = mrom_obs::ring_snapshot();
        group.bench_function("chrome_export", |b| {
            b.iter(|| black_box(mrom_obs::chrome_trace(black_box(&events))));
        });
        mrom_obs::set_mode(ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }

    // Read side at federation scale: 256 sites on a ring, each hosting
    // four objects, calling itself and its successor, and delivering
    // both ways over its two links, in every epoch of the window.
    {
        const SITES: u64 = 256;
        let object = |site: u64, k: u32| ObjectId::from_parts(NodeId(site), k, 0);
        mrom_obs::reset();
        mrom_obs::set_window(Some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(ObsMode::Ring);
        for epoch in 0..WindowConfig::DEFAULT.epochs as u64 {
            mrom_obs::set_virtual_now_us(epoch * WindowConfig::DEFAULT.epoch_micros);
            mrom_obs::with_recorder(|r| {
                for site in 1..=SITES {
                    let (here, next) = (NodeId(site), NodeId(site % SITES + 1));
                    for k in 0..4 {
                        r.window_invoke(object(site, k), true, 100 + u64::from(k), None);
                    }
                    r.window_call(here, here);
                    r.window_call(here, next);
                    r.window_link_delivery(here, next, 256, 500 + site);
                    r.window_link_delivery(next, here, 128, 700 + site);
                }
            });
        }
        let hosted: Vec<ObjectId> = (0..4).map(|k| object(1, k)).collect();
        group.bench_function("site_snapshot_collect", |b| {
            b.iter(|| {
                black_box(mrom_obs::site_telemetry_snapshot(
                    black_box(NodeId(1)),
                    black_box(&hosted),
                ))
            });
        });
        group.bench_function("fleet_snapshot_collect", |b| {
            b.iter(|| black_box(mrom_obs::telemetry_snapshot()));
        });
        mrom_obs::set_mode(ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
