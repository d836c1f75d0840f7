//! The repository benchmark.
//!
//! ```text
//! mrom-perfbench --workload <fleet-1k|migrate-64|local-tower|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload through the public `hadas` / `mrom-core` API,
//! checks the program's outputs, prints a human-readable report, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes a Chrome trace next to the executable). Exit code
//! 0 on success, 1 when a correctness check failed (the result line is
//! still printed), 2 on a usage or run error. A closed stdout is an
//! error exit, never a panic.

#![forbid(unsafe_code)]

mod fleet;
mod gen;
mod migrate;
mod probe;
mod record;
mod run;
mod tower;
mod world;

use std::io::{self, Write};
use std::process::ExitCode;

use run::{Metric, Outcome, Which};
use world::Res;

struct Args {
    workloads: Vec<Which>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: mrom-perfbench --workload <fleet-1k|migrate-64|local-tower|all> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Which::ALL.to_vec()),
            "--workload" => {
                workloads =
                    Some(vec![Which::parse(&value).ok_or(format!("unknown workload {value:?}"))?]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_one(which: Which, args: &Args) -> Res<Outcome> {
    if args.trace {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let path = dir.join(format!("perfbench-trace-{}-{}.json", which.name(), args.seed));
        run::traced(which, args.seed, &path)
    } else {
        run::end_to_end(which, args.seed, args.seconds)
    }
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> Res<String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name).into());
        }
        parts.push(format!(
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(parts.join(", "))
}

fn print_metric(out: &mut impl Write, m: &Metric) -> io::Result<()> {
    let value = if m.value.is_finite() { format!("{:.4}", m.value) } else { "-".to_owned() };
    writeln!(out, "  {:<36} {:>16} {:<9} {}", m.name, value, m.unit, m.note)
}

fn report(out: &mut impl Write, which: Which, o: &Outcome) -> io::Result<()> {
    writeln!(out, "== {} ==", which.name())?;
    for m in o.metrics.iter().chain(&o.report) {
        print_metric(out, m)?;
    }
    for line in &o.lines {
        writeln!(out, "  {line}")?;
    }
    writeln!(
        out,
        "  attempted {} failed {}; correctness: {}",
        o.attempted,
        o.failed,
        if o.violations.is_empty() { "ok" } else { "VIOLATED" }
    )?;
    for v in o.violations.iter().take(20) {
        writeln!(out, "  violation: {v}")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(io::stderr(), "{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            let _ = writeln!(io::stderr(), "mrom-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every requested workload, prints the report and the result line;
/// returns whether every correctness check held.
fn run_all(args: &Args) -> Res<bool> {
    let mut stdout = io::stdout().lock();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    let single = args.workloads.len() == 1;
    for &which in &args.workloads {
        let o = run_one(which, args)?;
        report(&mut stdout, which, &o)?;
        stdout.flush()?;
        correct &= o.violations.is_empty();
        attempted += o.attempted;
        failed += o.failed;
        let prefix = if single { String::new() } else { format!("{}/", which.name()) };
        metrics.push(json_metrics(&o.metrics, &prefix)?);
    }
    writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )?;
    stdout.flush()?;
    Ok(correct)
}
