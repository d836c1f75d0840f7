//! `mrom-fleet` — CLI over the thousand-site scenario suite.
//!
//! ```text
//! mrom-fleet --smoke                  CI gate: smoke-sized fleet runs on every
//!                                     topology + a marketplace round, all
//!                                     invariants asserted (seconds, not minutes)
//! mrom-fleet run [--topology T] [--sites N] [--objects N] [--invocations N]
//!                [--churn N] [--migrate-every N] [--workers N] [--seed N] [--json]
//!                                     one parameterized fleet run
//! mrom-fleet flagship [--seed N] [--json]
//!                                     the acceptance run: 1000 sites, 100k objects
//! mrom-fleet marketplace [--seed N] [--json]
//!                                     the capability-card marketplace round
//! mrom-fleet converge [--topology T] [--seed N] [--json]
//!                                     E19: advisor-off vs advisor-on arms of the
//!                                     caller-affinity scenario; fails unless the
//!                                     advisor-on arm's late p95 converged >=2x
//! mrom-fleet bench [--out PATH]       capacity bench (star + hierarchical,
//!                                     workers 1 and 4) -> BENCH_FLEET.json
//! ```
//!
//! `run` also accepts `--advisor` (standard self-tuning config),
//! `--affinity PERMILLE` (caller-affine workload), and `--flip-every N`
//! (ping-pong home flipping).
//!
//! Exit code 0 on success, 1 when a run violates a fleet invariant,
//! fails outright, or cannot write its standard output, 2 on usage
//! errors.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use mrom_fleet::{
    cell_image_bytes, run_convergence, run_fleet, run_marketplace, AdvisorConfig, FleetConfig,
    FleetRun,
};
use mrom_net::Topology;
use mrom_value::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = match strs.as_slice() {
        ["--smoke"] | ["smoke"] => cmd_smoke(),
        ["run", rest @ ..] => match parse_run(rest, FleetConfig::smoke()) {
            Some((cfg, seed, json)) => cmd_run(&cfg, seed, json),
            None => return usage(),
        },
        ["flagship", rest @ ..] => match parse_seed_json(rest) {
            Some((seed, json)) => cmd_run(&FleetConfig::flagship(), seed, json),
            None => return usage(),
        },
        ["marketplace", rest @ ..] => match parse_seed_json(rest) {
            Some((seed, json)) => cmd_marketplace(seed, json),
            None => return usage(),
        },
        ["converge", rest @ ..] => match parse_converge(rest) {
            Some((topology, seed, json)) => cmd_converge(topology, seed, json),
            None => return usage(),
        },
        ["bench", rest @ ..] => match parse_bench(rest) {
            Some(out) => cmd_bench(&out),
            None => return usage(),
        },
        _ => return usage(),
    };
    let written = run.and_then(|output| {
        writeln!(std::io::stdout(), "{output}").map_err(|e| format!("cannot write output: {e}"))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mrom-fleet: {msg}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mrom-fleet <--smoke | run [flags] | flagship [--seed N] [--json] \
         | marketplace [--seed N] [--json] | converge [--topology T] [--seed N] [--json] \
         | bench [--out PATH]>\n\
         run flags: --topology star|mesh[:K]|hier[:K]  --sites N  --objects N\n\
         \x20          --invocations N  --churn N  --migrate-every N  --workers N\n\
         \x20          --affinity PERMILLE  --flip-every N  --advisor  --seed N  --json"
    );
    ExitCode::from(2)
}

/// Parses `run` flags on top of a base config. Returns `(cfg, seed, json)`.
fn parse_run(rest: &[&str], mut cfg: FleetConfig) -> Option<(FleetConfig, u64, bool)> {
    let mut seed = 42u64;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if *flag == "--json" {
            json = true;
            continue;
        }
        if *flag == "--advisor" {
            cfg.advisor = AdvisorConfig::standard();
            continue;
        }
        let value = it.next()?;
        match *flag {
            "--topology" => cfg.topology = Topology::parse(value)?,
            "--sites" => cfg.sites = value.parse().ok()?,
            "--objects" => cfg.objects_per_site = value.parse().ok()?,
            "--invocations" => cfg.invocations = value.parse().ok()?,
            "--churn" => cfg.churn_events = value.parse().ok()?,
            "--migrate-every" => cfg.migration_every = value.parse().ok()?,
            "--workers" => cfg.workers = value.parse().ok()?,
            "--affinity" => cfg.caller_affinity_permille = value.parse().ok()?,
            "--flip-every" => cfg.affinity_flip_every = value.parse().ok()?,
            "--seed" => seed = value.parse().ok()?,
            _ => return None,
        }
    }
    (cfg.sites > 0 && cfg.objects_per_site > 0 && cfg.workers > 0).then_some((cfg, seed, json))
}

fn parse_seed_json(rest: &[&str]) -> Option<(u64, bool)> {
    let mut seed = 42u64;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--json" => json = true,
            "--seed" => seed = it.next()?.parse().ok()?,
            _ => return None,
        }
    }
    Some((seed, json))
}

fn parse_converge(rest: &[&str]) -> Option<(Option<Topology>, u64, bool)> {
    let mut topology = None;
    let mut seed = 42u64;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--json" => json = true,
            "--seed" => seed = it.next()?.parse().ok()?,
            "--topology" => topology = Some(Topology::parse(it.next()?)?),
            _ => return None,
        }
    }
    Some((topology, seed, json))
}

fn parse_bench(rest: &[&str]) -> Option<String> {
    match rest {
        [] => Some("BENCH_FLEET.json".to_owned()),
        ["--out", path] => Some((*path).to_owned()),
        _ => None,
    }
}

/// The CI gate: smoke-sized runs on every topology shape plus a
/// marketplace round, every invariant asserted.
fn cmd_smoke() -> Result<String, String> {
    let mut out = String::new();
    for topology in [
        Topology::Star,
        Topology::Mesh { degree: 2 },
        Topology::Hierarchical { cluster_size: 4 },
    ] {
        let cfg = FleetConfig {
            topology,
            ..FleetConfig::smoke()
        };
        let started = Instant::now();
        let run = run_fleet(&cfg, 42).map_err(|e| format!("{} smoke: {e}", topology.name()))?;
        let violations = run.report.violations();
        if !violations.is_empty() {
            return Err(format!(
                "{} smoke violated invariants:\n  {}",
                topology.name(),
                violations.join("\n  ")
            ));
        }
        out.push_str(&format!(
            "fleet smoke {:<6} ok: {} sites, {} objects, {} ops \
             ({} bump ok, {} migrations, {} crashes) in {:?}\n",
            topology.name(),
            run.report.sites,
            run.report.objects,
            run.report.invocations,
            run.report.ops_ok,
            run.report.migrations_ok,
            run.report.crashes,
            started.elapsed(),
        ));
    }
    let market = run_marketplace(42).map_err(|e| format!("marketplace smoke: {e}"))?;
    if market.imports_negotiated == 0 || market.strict_refusals == 0 {
        return Err("marketplace smoke: expected imports and strict refusals".to_owned());
    }
    out.push_str(&format!(
        "marketplace smoke ok: {} cards, {} imports, {} strict refusals, ledger {}",
        market.cards_published,
        market.imports_negotiated,
        market.strict_refusals,
        market.ledger_total
    ));
    Ok(out)
}

fn cmd_run(cfg: &FleetConfig, seed: u64, json: bool) -> Result<String, String> {
    let started = Instant::now();
    let run = run_fleet(cfg, seed).map_err(|e| format!("fleet run: {e}"))?;
    let elapsed = started.elapsed();
    let violations = run.report.violations();
    if !violations.is_empty() {
        return Err(format!(
            "fleet invariants violated ({} seed {seed}):\n  {}",
            run.report.topology,
            violations.join("\n  ")
        ));
    }
    if json {
        return Ok(mrom_obs::to_json_pretty(&run.report.to_value()));
    }
    Ok(render_run(&run, elapsed))
}

fn render_run(run: &FleetRun, elapsed: std::time::Duration) -> String {
    let r = &run.report;
    format!(
        "fleet {} seed {}: {} sites, {} objects, workers {} — all invariants ok in {:?}\n\
         ops      bump {}/{}/{} peek {}/{}/{} (ok/ambiguous/rejected), {} distinct targets\n\
         moves    {} ok, {} in-doubt (settled), {} skipped; churn {} crashes / {} restarts\n\
         state    counter total {}, telemetry {} applications, fold {}\n\
         net      {} sent, {} delivered, {} dropped, {} bytes",
        r.topology,
        r.seed,
        r.sites,
        r.objects,
        r.workers,
        elapsed,
        r.ops_ok,
        r.ops_failed,
        r.ops_rejected,
        r.peeks_ok,
        r.peeks_failed,
        r.peeks_rejected,
        r.distinct_targets,
        r.migrations_ok,
        r.migrations_failed,
        r.migrations_skipped,
        r.crashes,
        r.restarts,
        r.counter_total,
        r.telemetry_invocations,
        if r.telemetry_fold_matches {
            "ok"
        } else {
            "MISMATCH"
        },
        r.stats.messages_sent,
        r.stats.messages_delivered,
        r.stats.messages_dropped,
        r.stats.bytes_sent,
    )
}

/// E19: both convergence arms under one seed; exit 1 unless the
/// advisor-on arm converged (late p95 ≥2× below early p95 and below the
/// advisor-off arm) with every fleet invariant intact.
fn cmd_converge(topology: Option<Topology>, seed: u64, json: bool) -> Result<String, String> {
    let started = Instant::now();
    let mut cfg = FleetConfig::converge_on();
    if let Some(topology) = topology {
        cfg.topology = topology;
    }
    let report = run_convergence(&cfg, seed).map_err(|e| format!("converge: {e}"))?;
    let elapsed = started.elapsed();
    if !report.converged() {
        return Err(format!(
            "convergence failed (seed {seed}): advisor-on early/late p95 {}µs/{}µs, \
             advisor-off late p95 {}µs, {} migrations, violations off/on {}/{}",
            report.on.early_p95_us,
            report.on.late_p95_us,
            report.off.late_p95_us,
            report.advisor_migrations,
            report.off_violations,
            report.on_violations,
        ));
    }
    if json {
        return Ok(mrom_obs::to_json_pretty(&report.to_value()));
    }
    Ok(format!(
        "converge {} seed {}: p95 {}µs -> {}µs ({}.{:03}x) in {:?}\n\
         advisor  {} epochs, {} migrations, {} thrash aborts; \
         advisor-off late p95 {}µs; all invariants ok",
        report.topology,
        report.seed,
        report.on.early_p95_us,
        report.on.late_p95_us,
        report.speedup_permille() / 1000,
        report.speedup_permille() % 1000,
        elapsed,
        report.advisor_epochs,
        report.advisor_migrations,
        report.advisor_thrash_aborts,
        report.off.late_p95_us,
    ))
}

fn cmd_marketplace(seed: u64, json: bool) -> Result<String, String> {
    let report = run_marketplace(seed).map_err(|e| format!("marketplace: {e}"))?;
    if json {
        return Ok(mrom_obs::to_json_pretty(&report.to_value()));
    }
    Ok(format!(
        "marketplace seed {}: {} consumers, {} cards ({} methods each)\n\
         {} imports negotiated, {} strict refusals, {} local / {} relayed serves, ledger {}",
        report.seed,
        report.consumers,
        report.cards_published,
        report.methods_on_card,
        report.imports_negotiated,
        report.strict_refusals,
        report.local_serves,
        report.relayed_serves,
        report.ledger_total
    ))
}

/// One capacity-bench cell: best-of-3 wall-clock over a fixed config.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]
fn bench_cell(topology: Topology, workers: usize) -> Result<(String, Value), String> {
    let cfg = FleetConfig {
        topology,
        sites: 64,
        objects_per_site: 50,
        invocations: 4000,
        churn_events: 0,
        migration_every: 8,
        zipf_permille: 1100,
        workers,
        ..FleetConfig::smoke()
    };
    let mut best: Option<(std::time::Duration, FleetRun)> = None;
    for pass in 0..3 {
        let started = Instant::now();
        let run = run_fleet(&cfg, 42 + pass).map_err(|e| format!("bench: {e}"))?;
        let elapsed = started.elapsed();
        run.report
            .violations()
            .is_empty()
            .then_some(())
            .ok_or_else(|| "bench run violated invariants".to_owned())?;
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, run));
        }
    }
    let (elapsed, run) = best.expect("three passes ran");
    let secs = elapsed.as_secs_f64().max(1e-9);
    let inv_per_sec = (cfg.invocations as f64 / secs) as i64;
    let migrations = run.report.migrations_ok + run.report.migrations_failed;
    let key = format!("{}/workers{}", topology.name(), workers);
    let cell = Value::map([
        ("sites", Value::Int(cfg.sites as i64)),
        ("objects", Value::Int(cfg.total_objects() as i64)),
        ("invocations", Value::Int(cfg.invocations as i64)),
        ("workers", Value::Int(workers as i64)),
        ("elapsed_ms", Value::Int(elapsed.as_millis() as i64)),
        ("invocations_per_sec", Value::Int(inv_per_sec)),
        (
            "invocations_per_sec_per_site",
            Value::Int(inv_per_sec / cfg.sites as i64),
        ),
        ("migrations", Value::Int(migrations as i64)),
        (
            "migrations_per_sec",
            Value::Int((migrations as f64 / secs) as i64),
        ),
        (
            "net_bytes_per_invocation",
            Value::Int((run.report.stats.bytes_sent / cfg.invocations as u64) as i64),
        ),
    ]);
    Ok((key, cell))
}

#[allow(clippy::cast_possible_wrap)]
fn cmd_bench(out_path: &str) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut benches = Vec::new();
    for topology in [Topology::Star, Topology::Hierarchical { cluster_size: 8 }] {
        for workers in [1usize, 4] {
            benches.push(bench_cell(topology, workers)?);
        }
    }
    let date = std::env::var("MROM_BENCH_DATE").unwrap_or_else(|_| "unspecified".to_owned());
    let doc = Value::map([
        (
            "description",
            Value::from(
                "mrom-fleet capacity bench: seeded Zipf workload (s=1.1) with \
                 migration traffic over 64-site star and hierarchical topologies, \
                 per-site worker pools at 1 and 4 threads",
            ),
        ),
        (
            "method",
            Value::from(
                "best-of-3 wall-clock passes per cell (seeds 42..44), 4000 workload \
                 ops over 3200 objects, one migration every 8 ops, churn off; every \
                 pass must uphold all fleet invariants; rates derived from the \
                 fastest pass",
            ),
        ),
        ("date", Value::from(date)),
        (
            "host_note",
            Value::from(format!(
                "nproc={nproc} container; with a single hardware thread the \
                 workers=4 rows measure pool overhead, not speedup (single-element \
                 inbox batches run inline, so the engine stays deterministic)"
            )),
        ),
        ("bytes_per_object", Value::Int(cell_image_bytes() as i64)),
        ("benches", Value::map(benches)),
    ]);
    let rendered = mrom_obs::to_json_pretty(&doc);
    std::fs::write(out_path, format!("{rendered}\n"))
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    Ok(format!("wrote {out_path}"))
}
