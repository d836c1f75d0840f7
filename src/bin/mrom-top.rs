//! `mrom-top` — the observability console for the MROM reproduction.
//!
//! The runtime is a library, not a daemon, so there is no live process to
//! attach to: `mrom-top` instead drives a representative workload — a
//! two-site federation round trip with a metered (tower-wrapped) object,
//! a whole-object migration, and a persistence checkpoint — with the
//! [`mrom::obs`] recorder on, then renders what the recorder saw.
//!
//! ```text
//! mrom-top --snapshot            run the workload, print the metrics table
//!                                plus the federation's network totals
//! mrom-top --snapshot --json     same, as pretty JSON (schema mrom.metrics.v2)
//! mrom-top --watch [--frames N] [--top K]
//!                                windowed telemetry frames: top-K hot
//!                                objects, call matrix, link windows
//! mrom-top trace dump            run the workload, dump the flight recorder
//! mrom-top trace export --chrome [--check]
//!                                flight recorder as chrome://tracing JSON
//!                                (--check validates and prints a summary)
//! ```
//!
//! The windowed telemetry is also reachable *from inside the model*:
//! every object answers `getTelemetry` with the whole fold and
//! `getStats` with its own row of it (see `docs/OBSERVABILITY.md`).
//!
//! Exit code 0 on success, 1 on workload failure (including a poisoned
//! or otherwise unreadable runtime, surfaced as a caught panic) or an
//! unwritable standard output, 2 on usage errors.

use std::io::Write;
use std::process::ExitCode;

use hadas::{AmbassadorSpec, Federation};
use mrom::core::{ClassSpec, DataItem, Method, MethodBody};
use mrom::net::{LinkConfig, NetStats, NetworkConfig};
use mrom::obs::{ObsMode, TelemetrySnapshot, WindowConfig};
use mrom::value::{NodeId, ObjectId, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = match strs.as_slice() {
        ["--snapshot"] => cmd_snapshot(false),
        ["--snapshot", "--json"] | ["--json", "--snapshot"] => cmd_snapshot(true),
        ["--watch", rest @ ..] => match parse_watch(rest) {
            Some((frames, top)) => cmd_watch(frames, top),
            None => return usage(),
        },
        ["trace", "dump"] => cmd_trace_dump(),
        ["trace", "export", "--chrome"] => cmd_trace_export(false),
        ["trace", "export", "--chrome", "--check"] => cmd_trace_export(true),
        _ => return usage(),
    };
    let written = run.and_then(|output| {
        writeln!(std::io::stdout(), "{output}").map_err(|e| format!("cannot write output: {e}"))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mrom-top: {msg}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mrom-top <--snapshot [--json] | --watch [--frames N] [--top K] \
         | trace dump | trace export --chrome [--check]>"
    );
    ExitCode::from(2)
}

/// Parses `--watch` tail flags: `--frames N` (default 3) and `--top K`
/// (default 5). Returns `None` on malformed input.
fn parse_watch(rest: &[&str]) -> Option<(usize, usize)> {
    let (mut frames, mut top) = (3usize, 5usize);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?.parse::<usize>().ok()?;
        match *flag {
            "--frames" if value >= 1 => frames = value,
            "--top" if value >= 1 => top = value,
            _ => return None,
        }
    }
    Some((frames, top))
}

/// Runs `work` with panics converted into errors, so a poisoned shared
/// runtime (a worker that died holding a shard) or any other unreadable
/// state exits non-zero with a message instead of a raw panic trace.
fn catch_workload<T>(
    work: impl FnOnce() -> Result<T, String> + std::panic::UnwindSafe,
) -> Result<T, String> {
    match std::panic::catch_unwind(work) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("opaque panic");
            Err(format!("runtime unreadable (workload panicked): {msg}"))
        }
    }
}

/// Runs the demo workload under `Full` recording and renders the metrics
/// snapshot on the stable `mrom.metrics.v2` schema, with the demo
/// federation's network totals added as a top-level `net` section — as a
/// table, or with `--json` as pretty JSON (split out for testing).
fn cmd_snapshot(json: bool) -> Result<String, String> {
    mrom::obs::reset();
    mrom::obs::set_mode(ObsMode::Full);
    let workload = catch_workload(run_workload);
    let mut snapshot = mrom::obs::snapshot_value();
    mrom::obs::set_mode(ObsMode::Disabled);
    let net = workload?;
    if let Some(m) = snapshot.as_map_mut() {
        m.insert("net".to_owned(), net.to_value());
    }
    Ok(if json {
        mrom::obs::to_json_pretty(&snapshot)
    } else {
        render_table(&snapshot)
    })
}

/// Runs the demo workload under `Full` recording and dumps the flight
/// recorder (split out for testing).
fn cmd_trace_dump() -> Result<String, String> {
    mrom::obs::reset();
    mrom::obs::set_mode(ObsMode::Full);
    let workload = catch_workload(run_workload);
    let events = mrom::obs::ring_snapshot();
    let overwritten = mrom::obs::ring_overwritten();
    mrom::obs::set_mode(ObsMode::Disabled);
    workload?;
    let mut out = format!(
        "flight recorder: {} event(s), {} overwritten\n",
        events.len(),
        overwritten
    );
    for ev in &events {
        out.push_str(&format!("{ev}\n"));
    }
    Ok(out.trim_end().to_owned())
}

/// Runs the demo workload and exports the flight recorder in Chrome
/// `trace_event` format (load the output via `chrome://tracing` or
/// Perfetto). The export is always validated; `--check` prints the
/// validation summary instead of the JSON (split out for testing).
fn cmd_trace_export(check: bool) -> Result<String, String> {
    mrom::obs::reset();
    mrom::obs::set_mode(ObsMode::Full);
    let workload = catch_workload(run_workload);
    let events = mrom::obs::ring_snapshot();
    mrom::obs::set_mode(ObsMode::Disabled);
    workload?;
    let json = mrom::obs::chrome_trace(&events);
    let records = mrom::obs::validate_chrome_trace(&json)
        .map_err(|e| format!("invalid chrome trace: {e}"))?;
    if check {
        Ok(format!(
            "chrome trace ok: {records} record(s) from {} event(s)",
            events.len()
        ))
    } else {
        Ok(json)
    }
}

/// Drives a three-site federation in frames under windowed `Ring`
/// recording, rendering the sliding-window telemetry (top-K hot
/// objects, call matrix, link windows) after every frame — the closest
/// thing to a live `top` a library runtime can offer (split out for
/// testing).
fn cmd_watch(frames: usize, top: usize) -> Result<String, String> {
    mrom::obs::reset();
    mrom::obs::set_window(Some(WindowConfig::DEFAULT));
    mrom::obs::set_mode(ObsMode::Ring);
    let result = catch_workload(move || run_watch(frames, top));
    mrom::obs::set_mode(ObsMode::Disabled);
    mrom::obs::set_window(None);
    mrom::obs::reset();
    result
}

fn run_watch(frames: usize, top: usize) -> Result<String, String> {
    let fail = |e: hadas::HadasError| e.to_string();
    let cfg = NetworkConfig::new(42).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
    for n in [a, b, c] {
        fed.add_site(n).map_err(fail)?;
    }
    fed.link(a, b).map_err(fail)?;
    fed.link(a, c).map_err(fail)?;
    fed.link(b, c).map_err(fail)?;

    let adopt_svc = |fed: &mut Federation, at: NodeId| -> Result<ObjectId, String> {
        let rt = fed.runtime_mut(at).map_err(fail)?;
        let svc = ClassSpec::new("svc")
            .fixed_method(
                "ping",
                Method::public(MethodBody::script("return 7;").map_err(|e| e.to_string())?),
            )
            .instantiate_as(rt.ids_mut().next_id(), None);
        let id = svc.id();
        rt.adopt(svc).map_err(|e| e.to_string())?;
        Ok(id)
    };
    let svc_b = adopt_svc(&mut fed, b)?;
    let svc_c = adopt_svc(&mut fed, c)?;
    let local = adopt_svc(&mut fed, a)?;

    let mut out = String::new();
    let caller = ObjectId::SYSTEM;
    for frame in 1..=frames {
        // Each frame does a skewed batch: site B stays the hot spot.
        for _ in 0..3 {
            fed.remote_invoke(a, b, caller, svc_b, "ping", &[])
                .map_err(fail)?;
        }
        fed.remote_invoke(a, c, caller, svc_c, "ping", &[])
            .map_err(fail)?;
        fed.runtime_mut(a)
            .map_err(fail)?
            .invoke_as_system(local, "ping", &[])
            .map_err(|e| e.to_string())?;
        render_frame(
            &mut out,
            frame,
            frames,
            top,
            &mrom::obs::telemetry_snapshot(),
        );
    }
    Ok(out.trim_end().to_owned())
}

/// Renders one `--watch` frame from a telemetry snapshot.
fn render_frame(
    out: &mut String,
    frame: usize,
    frames: usize,
    top: usize,
    snap: &TelemetrySnapshot,
) {
    out.push_str(&format!(
        "frame {frame}/{frames}  virtual {} us  window {}\n",
        snap.now_us,
        snap.window.map_or_else(
            || "off".to_owned(),
            |w| format!("{}x{}us", w.epochs, w.epoch_micros)
        ),
    ));
    out.push_str(&format!(
        "hot objects (top {} of {}):\n",
        top.min(snap.objects.len()),
        snap.objects.len()
    ));
    for (id, p) in snap.hot_objects(top) {
        out.push_str(&format!(
            "  {id}  inv {}  err {}  fuel p50/p95 {}/{}  busy/1k {}\n",
            p.invocations,
            p.errors,
            p.fuel_p50,
            p.fuel_p95,
            p.busy_per_1k()
        ));
    }
    out.push_str("call matrix (src -> dst: count):\n");
    for ((src, dst), n) in &snap.calls {
        out.push_str(&format!("  {src} -> {dst}: {n}\n"));
    }
    out.push_str("links (delivered/dropped, bytes, latency p50/p95 us):\n");
    for ((src, dst), p) in &snap.links {
        out.push_str(&format!(
            "  {src} -> {dst}: {}/{}  {}B  {}/{}\n",
            p.delivered, p.dropped, p.bytes, p.latency_p50_us, p.latency_p95_us
        ));
    }
    out.push('\n');
}

/// A workload touching every instrumented layer: level-0 dispatch, a
/// meta-invoke tower, migration, federation traffic, and an ambassador
/// relay. Returns the federation's network totals.
fn run_workload() -> Result<NetStats, String> {
    let fail = |e: hadas::HadasError| e.to_string();
    let cfg = NetworkConfig::new(42).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let home = NodeId(1);
    let away = NodeId(2);
    fed.add_site(home).map_err(fail)?;
    fed.add_site(away).map_err(fail)?;
    fed.link(home, away).map_err(fail)?;

    // A database APO at `away` exporting one method; the other relays.
    let apo_class = ClassSpec::new("demo-db")
        .fixed_data("rows", DataItem::public(Value::Int(3)))
        .fixed_method(
            "count",
            Method::public(
                MethodBody::script("return self.get(\"rows\");").map_err(|e| e.to_string())?,
            ),
        )
        .fixed_method(
            "sum",
            Method::public(
                MethodBody::script("param a; param b; return a + b;").map_err(|e| e.to_string())?,
            ),
        );
    let apo = apo_class.instantiate_as(
        fed.runtime_mut(away).map_err(fail)?.ids_mut().next_id(),
        None,
    );
    let spec = AmbassadorSpec::relay_only()
        .with_methods(["count"])
        .with_data(["rows"]);
    fed.integrate_apo(away, "db", apo, spec).map_err(fail)?;
    let amb = fed.import_apo(home, away, "db").map_err(fail)?;
    let caller = fed.runtime_mut(home).map_err(fail)?.ids_mut().next_id();
    // Local (migrated) call, then a relayed call over the wire.
    fed.call_through_ambassador(home, caller, amb, "count", &[])
        .map_err(fail)?;
    fed.call_through_ambassador(home, caller, amb, "sum", &[Value::Int(20), Value::Int(22)])
        .map_err(fail)?;

    // A metered agent: tower-wrapped dispatch, then a whole-object hop.
    let agent_class = ClassSpec::new("agent")
        .fixed_data("trips", DataItem::public(Value::Int(0)))
        .fixed_method(
            "work",
            Method::public(MethodBody::script("return 7 * 6;").map_err(|e| e.to_string())?),
        );
    let rt = fed.runtime_mut(home).map_err(fail)?;
    let agent = agent_class.instantiate_as(rt.ids_mut().next_id(), None);
    let agent_id = agent.id();
    rt.adopt(agent).map_err(|e| e.to_string())?;
    rt.object_mut(agent_id)
        .ok_or("agent vanished")?
        .add_method(
            agent_id,
            "meter",
            Method::public(
                MethodBody::script("param m; param a; return self.invoke(m, a);")
                    .map_err(|e| e.to_string())?,
            ),
        )
        .map_err(|e| e.to_string())?;
    rt.object_mut(agent_id)
        .ok_or("agent vanished")?
        .install_meta_invoke(agent_id, "meter")
        .map_err(|e| e.to_string())?;
    rt.invoke_as_system(agent_id, "work", &[])
        .map_err(|e| e.to_string())?;
    fed.dispatch_object(home, away, agent_id).map_err(fail)?;

    // Persistence: the travelled agent checkpoints itself at `away`.
    let mut depot = mrom::persist::Depot::new(mrom::persist::MemStore::new());
    let rt = fed.runtime(away).map_err(fail)?;
    let obj = rt.object(agent_id).ok_or("agent did not arrive")?;
    depot.save(&obj).map_err(|e| e.to_string())?;
    depot.restore(agent_id).map_err(|e| e.to_string())?;
    Ok(fed.net_stats().clone())
}

/// Renders a metrics snapshot value tree as an indented table, eliding
/// histogram bucket arrays (split out for testing).
fn render_table(snapshot: &Value) -> String {
    let mut out = String::from("mrom-top metrics snapshot\n");
    render_into(&mut out, snapshot, 0);
    out.trim_end().to_owned()
}

fn render_into(out: &mut String, v: &Value, depth: usize) {
    let pad = "  ".repeat(depth);
    match v {
        Value::Map(entries) => {
            for (key, val) in entries {
                match val {
                    Value::Map(_) => {
                        out.push_str(&format!("{pad}{key}:\n"));
                        render_into(out, val, depth + 1);
                    }
                    Value::List(items) if key == "buckets" => {
                        let populated =
                            items.iter().filter(|b| !matches!(b, Value::Int(0))).count();
                        out.push_str(&format!("{pad}{key}: {populated} populated\n"));
                    }
                    other => out.push_str(&format!("{pad}{key}: {other}\n")),
                }
            }
        }
        other => out.push_str(&format!("{pad}{other}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_runs_the_workload_and_reports_counters() {
        let out = cmd_snapshot(false).unwrap();
        assert!(out.contains("invoke:"), "{out}");
        assert!(out.contains("federation:"), "{out}");
        assert!(out.contains("invocations:"), "{out}");
        // The network section comes from the federation's own NetStats.
        assert!(out.contains("net:"), "{out}");
        assert!(!out.contains("delivered: 0\n"), "{out}");
        // The workload performed real work, so counters are nonzero.
        assert!(!out.contains("invocations: 0\n"), "{out}");
    }

    #[test]
    fn snapshot_json_is_machine_readable_and_schema_stamped() {
        let out = cmd_snapshot(true).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"schema\""), "{out}");
        assert!(out.contains("mrom.metrics.v2"), "{out}");
        assert!(out.contains("\"metrics\""), "{out}");
        assert!(out.contains("\"federation\""), "{out}");
        assert!(out.contains("\"bytes_delivered\""), "{out}");
        assert!(!out.contains("\"objects\""), "{out}");
    }

    #[test]
    fn trace_dump_shows_federation_and_tower_events() {
        let out = cmd_trace_dump().unwrap();
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains("fed_send"), "{out}");
        assert!(out.contains("invoke_start"), "{out}");
        assert!(out.contains("tower_descend"), "{out}");
        assert!(out.contains("object_dispatched"), "{out}");
    }

    #[test]
    fn render_table_elides_buckets() {
        let v = Value::map([(
            "invoke",
            Value::map([(
                "latency_ns",
                Value::map([(
                    "buckets",
                    Value::list([Value::Int(0), Value::Int(3), Value::Int(0)]),
                )]),
            )]),
        )]);
        let out = render_table(&v);
        assert!(out.contains("buckets: 1 populated"), "{out}");
    }

    #[test]
    fn watch_renders_hot_objects_and_call_matrix() {
        let out = cmd_watch(2, 3).unwrap();
        assert!(out.contains("frame 1/2"), "{out}");
        assert!(out.contains("frame 2/2"), "{out}");
        assert!(out.contains("hot objects (top 3 of"), "{out}");
        assert!(out.contains("call matrix"), "{out}");
        assert!(out.contains("n1 -> n2:"), "{out}");
        assert!(out.contains("links"), "{out}");
        // The window keeps accumulating: frame 2 sees more invocations
        // of the hot object than frame 1.
        assert!(out.contains("inv 3"), "{out}");
        assert!(out.contains("inv 6"), "{out}");
    }

    #[test]
    fn watch_flag_parsing_rejects_garbage() {
        assert_eq!(parse_watch(&[]), Some((3, 5)));
        assert_eq!(parse_watch(&["--frames", "7"]), Some((7, 5)));
        assert_eq!(parse_watch(&["--top", "2", "--frames", "1"]), Some((1, 2)));
        assert_eq!(parse_watch(&["--frames"]), None);
        assert_eq!(parse_watch(&["--frames", "0"]), None);
        assert_eq!(parse_watch(&["--bogus", "3"]), None);
    }

    #[test]
    fn chrome_export_is_valid_and_checkable() {
        let json = cmd_trace_export(false).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"invoke "), "{json}");
        let summary = cmd_trace_export(true).unwrap();
        assert!(summary.starts_with("chrome trace ok:"), "{summary}");
    }

    #[test]
    fn workload_panics_become_errors() {
        let out: Result<(), String> = catch_workload(|| panic!("shard poisoned"));
        let msg = out.unwrap_err();
        assert!(msg.contains("runtime unreadable"), "{msg}");
        assert!(msg.contains("shard poisoned"), "{msg}");
    }
}
