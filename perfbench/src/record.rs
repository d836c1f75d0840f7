//! What a run records: wall-clock latency samples per op kind, timings of
//! individual set-up and maintenance calls, and (traced runs only) spans
//! and counter samples kept in memory and written out as a Chrome trace
//! at the end.

use std::time::Instant;

use hadas::Federation;

use crate::gen::Rng;

/// The operations the paper prices, as the benchmark issues them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Runtime::invoke` on an object without a meta-invoke tower.
    InvokeLocal,
    /// `Federation::remote_invoke`, pumped until the reply arrives.
    InvokeRemote,
    /// `Federation::dispatch_object`, pumped until the move is acknowledged.
    Migrate,
    /// `Runtime::invoke` on an object carrying a 2-level meta-invoke tower.
    InvokeTower,
    /// `set_method` on an extensible method plus the invoke that observes it.
    Mutate,
    /// `Federation::site_telemetry`, the reflective self-view of one site.
    Introspect,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::InvokeLocal,
        Kind::InvokeRemote,
        Kind::Migrate,
        Kind::InvokeTower,
        Kind::Mutate,
        Kind::Introspect,
    ];

    /// Metric stem (`invoke_local` → `invoke_local_p50_us`).
    pub fn stem(self) -> &'static str {
        match self {
            Kind::InvokeLocal => "invoke_local",
            Kind::InvokeRemote => "invoke_remote",
            Kind::Migrate => "migrate",
            Kind::InvokeTower => "invoke_tower",
            Kind::Mutate => "mutate",
            Kind::Introspect => "introspect",
        }
    }

    /// Span name of the library call behind the op.
    pub fn span(self) -> &'static str {
        match self {
            Kind::InvokeLocal => "core.invoke",
            Kind::InvokeRemote => "hadas.remote_invoke",
            Kind::Migrate => "hadas.dispatch_object",
            Kind::InvokeTower => "core.invoke_tower",
            Kind::Mutate => "core.set_method",
            Kind::Introspect => "hadas.site_telemetry",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Set-up and maintenance calls, timed one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    AddSite,
    Link,
    Adopt,
    Checkpoint,
    Crash,
    Restart,
    Drain,
}

impl Call {
    const COUNT: usize = 7;

    pub fn span(self) -> &'static str {
        match self {
            Call::AddSite => "hadas.add_site",
            Call::Link => "hadas.link",
            Call::Adopt => "core.adopt",
            Call::Checkpoint => "hadas.checkpoint_site",
            Call::Crash => "hadas.crash_site",
            Call::Restart => "hadas.restart_site",
            Call::Drain => "hadas.drain",
        }
    }
}

/// One recorded span: a call the benchmark made into a layer. `op` is the
/// op that caused it (0 outside any op); `parent` is the op's own span id,
/// or 0 for an op span itself.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    op: u64,
    parent: u64,
}

/// A counter sample taken at an op boundary (Chrome `C` event).
#[derive(Debug, Clone)]
struct CounterSample {
    at_ns: u64,
    msgs: u64,
    bytes: u64,
}

/// Messages sent and virtual time spent inside the calls of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub msgs: u64,
    pub virtual_us: u64,
}

/// Latency samples kept per series: enough for a p99 with thousands of
/// samples beyond it, little enough that a long run's memory stays flat.
const RESERVOIR: usize = 100_000;

/// A uniform sample of at most [`RESERVOIR`] values of a series
/// (Algorithm R over a fixed-seed stream), so memory does not grow with
/// the speed of the build and no mid-run reallocation disturbs timing.
#[derive(Debug, Clone)]
pub struct Reservoir {
    values: Vec<u64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    fn new() -> Reservoir {
        Reservoir { values: Vec::with_capacity(RESERVOIR), seen: 0, rng: Rng::new(0, 0) }
    }

    fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.values.len() < RESERVOIR {
            self.values.push(value);
        } else {
            let slot = self.rng.below(usize::try_from(self.seen).unwrap_or(usize::MAX));
            if let Some(v) = self.values.get_mut(slot) {
                *v = value;
            }
        }
    }

    fn clear(&mut self) {
        self.values.clear();
        self.seen = 0;
    }

    /// The sampled values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// How many values the series had.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// An op in progress: its id and start instant.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    id: u64,
    start: Instant,
}

/// The per-run recorder. Latency samples, call timings and per-kind
/// traffic are always kept (reading a clock or a counter is not
/// tracing); spans and counter samples only when tracing.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    next_op: u64,
    samples: Vec<Reservoir>,
    op_samples: Reservoir,
    calls: Vec<Vec<u64>>,
    traffic: Vec<Traffic>,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            next_op: 0,
            samples: vec![Reservoir::new(); Kind::ALL.len()],
            op_samples: Reservoir::new(),
            calls: vec![Vec::new(); Call::COUNT],
            traffic: vec![Traffic::default(); Kind::ALL.len()],
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Turns span recording on or off (the untraced and traced arms of a
    /// traced run share one recorder).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts an op.
    pub fn begin(&mut self) -> Op {
        self.next_op += 1;
        Op { id: self.next_op, start: Instant::now() }
    }

    /// Times one library call inside `op` as a sample of `kind`.
    pub fn timed<T>(&mut self, op: Op, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.samples[kind.index()].push(elapsed_ns(start, end));
        if self.tracing {
            self.push_span(kind.span(), start, end, op.id, op.id);
        }
        out
    }

    /// [`Recorder::timed`] for a federation call, also booking the
    /// messages and virtual time it took against `kind`.
    pub fn on_fed<T>(
        &mut self,
        op: Op,
        kind: Kind,
        fed: &mut Federation,
        f: impl FnOnce(&mut Federation) -> T,
    ) -> T {
        let before = Traffic::of(fed);
        let out = self.timed(op, kind, || f(fed));
        let after = Traffic::of(fed);
        let t = &mut self.traffic[kind.index()];
        t.msgs += after.msgs - before.msgs;
        t.virtual_us += after.virtual_us - before.virtual_us;
        out
    }

    /// Ends an op. A client op adds its whole latency to the op samples
    /// behind `op_p50_us`; background ops (migrations and polls in
    /// fleet-1k, churn) only get a span.
    pub fn end(&mut self, op: Op, name: &'static str, client: bool) {
        let end = Instant::now();
        if client {
            self.op_samples.push(elapsed_ns(op.start, end));
        }
        if self.tracing {
            self.push_span(name, op.start, end, op.id, 0);
        }
    }

    /// Times a set-up or maintenance call. Adopts are not spanned: a
    /// fleet set-up makes 10⁵ of them.
    pub fn call<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls[call as usize].push(elapsed_ns(start, end));
        if self.tracing && call != Call::Adopt {
            self.push_span(call.span(), start, end, 0, 0);
        }
        out
    }

    /// Samples the network counters at an op boundary (traced runs only).
    pub fn counters(&mut self, msgs: u64, bytes: u64) {
        if self.tracing {
            let at_ns = self.ns(Instant::now());
            self.counters.push(CounterSample { at_ns, msgs, bytes });
        }
    }

    fn push_span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        op: u64,
        parent: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, op, parent });
    }

    /// Latency samples of one kind, in nanoseconds.
    pub fn samples(&self, kind: Kind) -> &Reservoir {
        &self.samples[kind.index()]
    }

    /// Whole-op latency samples of client ops, in nanoseconds.
    pub fn op_samples(&self) -> &Reservoir {
        &self.op_samples
    }

    /// Traffic booked against one kind.
    pub fn traffic(&self, kind: Kind) -> Traffic {
        self.traffic[kind.index()]
    }

    /// Timings of one set-up or maintenance call, in nanoseconds.
    pub fn call_samples(&self, call: Call) -> &[u64] {
        &self.calls[call as usize]
    }

    /// Drops the op samples and traffic but keeps call timings, spans
    /// and the clock, so one recorder can measure several arms in turn.
    pub fn clear_samples(&mut self) {
        self.samples.iter_mut().for_each(Reservoir::clear);
        self.op_samples.clear();
        self.traffic.fill(Traffic::default());
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Renders spans (`X` events carrying `op` and `parent` ids) and
    /// counter samples (`C` events) as a Chrome `trace_event` array.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str(
            "[{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"client\"}}",
        );
        for s in &self.spans {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
                s.parent
            ));
        }
        for c in &self.counters {
            out.push_str(&format!(
                ",\n{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"net\",\"ts\":{:.3},\"args\":{{\"msgs_sent\":{},\"bytes_sent\":{}}}}}",
                c.at_ns as f64 / 1e3,
                c.msgs,
                c.bytes
            ));
        }
        out.push_str("]\n");
        out
    }
}

impl Traffic {
    fn of(fed: &Federation) -> Traffic {
        let stats = fed.net_stats();
        Traffic { msgs: stats.messages_sent, virtual_us: fed.now().as_micros() }
    }
}

fn elapsed_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A percentile by nearest rank over `samples` (sorted in place), or
/// `None` unless at least ten samples lie beyond it.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    samples.sort_unstable();
    Some(samples[rank - 1])
}

/// Median of `samples`, sorting them in place (`None` when empty).
pub fn median(samples: &mut [u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(samples[samples.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let mut few: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&mut few, 99.0), None);
        let mut enough: Vec<u64> = (0..1000).rev().collect();
        assert_eq!(percentile(&mut enough, 99.0), Some(989));
        assert_eq!(percentile(&mut enough, 50.0), Some(499));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new();
        for v in 0..(3 * RESERVOIR as u64) {
            r.push(v);
        }
        assert_eq!(r.values().len(), RESERVOIR);
        assert_eq!(r.seen(), 3 * RESERVOIR as u64);
        let mut values = r.values().to_vec();
        let mid = median(&mut values).expect("non-empty");
        let expected = 3 * RESERVOIR as u64 / 2;
        assert!(mid.abs_diff(expected) < expected / 50, "median {mid} vs {expected}");
    }

    #[test]
    fn trace_export_passes_the_obs_validator() {
        let mut rec = Recorder::new(true);
        let op = rec.begin();
        rec.timed(op, Kind::InvokeLocal, || 1 + 1);
        rec.end(op, "op.invoke", true);
        rec.call(Call::Drain, || ());
        rec.counters(3, 120);
        let json = rec.chrome_trace();
        assert_eq!(mrom_obs::validate_chrome_trace(&json), Ok(5));
    }
}
