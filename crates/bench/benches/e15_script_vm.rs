//! E15 — register bytecode VM vs tree-walking interpreter (PR 6).
//!
//! Script bodies are the mobile representation of MROM behaviour, so their
//! execution speed bounds every script-bodied invocation. PR 6 compiles
//! admitted bodies to register bytecode at admission time; E15 measures
//! the same programs under both engines: loop-heavy numeric work (where
//! tree-walking overhead dominates), a straight-line body (dispatch cost
//! floor), and full `invoke` round-trips whose `self.get`/`self.set`
//! traffic exercises the inline data caches. Production `invoke` runs
//! only the VM, so the round-trip has no interpreter arm. Compilation
//! itself is also priced, since admission pays it once per admitted body.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mrom_bench::bench_ids;
use mrom_core::{invoke, DataItem, Method, MethodBody, MromObject, NoWorld, ObjectBuilder};
use mrom_script::{Evaluator, NullHost, Program, Vm};
use mrom_value::Value;

/// Loop-heavy numeric body: `n` iterations of arithmetic on locals —
/// the shape the register VM targets (≥100 iterations per the E15 gate).
const LOOP_SRC: &str = "param n; let acc = 0; let i = 0; \
                        while (i < n) { \
                            acc = acc + i * 2 - acc / 3; \
                            if (acc > 1000) { acc = acc - 997; } \
                            i = i + 1; \
                        } \
                        return acc;";

/// Straight-line body: binds the per-call floor (frame setup + a few ops).
const STRAIGHT_SRC: &str = "param a; param b; return (a + b) * (a - b) + a % 7;";

/// Invocation body whose hot loop is `self` data traffic — the inline-
/// cache target shape.
const IC_SRC: &str = "param n; let i = 0; \
                      while (i < n) { \
                          self.set(\"count\", self.get(\"count\") + 1); \
                          i = i + 1; \
                      } \
                      return self.get(\"count\");";

const FUEL: u64 = 10_000_000;

fn counter_object() -> MromObject {
    let mut ids = bench_ids();
    ObjectBuilder::new(ids.next_id())
        .class("e15-counter")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "tally",
            Method::public(MethodBody::script(IC_SRC).expect("parse")),
        )
        .build()
}

fn bench_script_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_script_vm");

    let loop_p = Program::parse(LOOP_SRC).expect("parse");
    let straight_p = Program::parse(STRAIGHT_SRC).expect("parse");
    let loop_args = [Value::Int(200)];
    let straight_args = [Value::Int(17), Value::Int(5)];

    // Engine-level A/B on the identical Program values.
    for (label, p, args) in [
        ("loop200", &loop_p, &loop_args[..]),
        ("straight", &straight_p, &straight_args[..]),
    ] {
        group.bench_function(BenchmarkId::new("interp", label), |b| {
            b.iter(|| {
                let mut host = NullHost;
                let mut ev = Evaluator::with_fuel(&mut host, FUEL);
                black_box(ev.run(black_box(p), black_box(args)).expect("runs"))
            });
        });
        let compiled = p.compiled();
        group.bench_function(BenchmarkId::new("vm", label), |b| {
            b.iter(|| {
                let mut host = NullHost;
                let mut vm = Vm::with_fuel(&mut host, FUEL);
                black_box(vm.run(black_box(&compiled), black_box(args)).expect("runs"))
            });
        });
    }

    // What admission pays: parse is shared, compile is the PR-6 delta.
    group.bench_function("admission/parse_only", |b| {
        b.iter(|| black_box(Program::parse(black_box(LOOP_SRC)).expect("parse")));
    });
    group.bench_function("admission/parse_and_compile", |b| {
        b.iter(|| {
            let p = Program::parse(black_box(LOOP_SRC)).expect("parse");
            black_box(p.compiled())
        });
    });

    // Full invoke round-trip: Lookup → Match → Apply with the body's
    // `self.get`/`self.set` loop hitting the inline data caches. Fresh
    // object per iteration so `count` growth never changes the arithmetic.
    group.bench_function(BenchmarkId::new("invoke_ic_loop100", "vm"), |b| {
        let mut ids = bench_ids();
        let caller = ids.next_id();
        b.iter(|| {
            let mut obj = counter_object();
            let out = invoke(
                &mut obj,
                &mut NoWorld,
                caller,
                "tally",
                black_box(&[Value::Int(100)]),
            )
            .expect("runs");
            black_box(out)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_script_vm);
criterion_main!(benches);
