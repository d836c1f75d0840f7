//! E14 — parallel invocation throughput on the sharded runtime.
//!
//! Each sample executes a fixed batch of `TOTAL_OPS` script invocations,
//! split across 1/2/4/8 worker threads over one
//! [`mrom_core::Runtime`]:
//!
//! * **disjoint** — every worker hammers its own object (the scaling
//!   case the sharded checkout protocol is built for), with the `bump`
//!   method living in the fixed or the extensible section;
//! * **contended** — every worker hammers the *same* object, retrying
//!   through [`mrom_core::MromError::ObjectBusy`] until its share of the
//!   batch lands (the pathological column: object-granularity locking
//!   serialises it by design, so this prices the retry loop, not magic).
//!
//! Because the batch size is constant, ns/iter across worker counts
//! converts directly into the speedup figure the experiment reports:
//! `speedup(k) = median(1 worker) / median(k workers)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::thread;

use mrom_core::{DataItem, Method, MethodBody, MromError, MromObject, ObjectBuilder, Runtime};
use mrom_value::{NodeId, ObjectId, Value};

/// Invocations per sample, constant across worker counts.
const TOTAL_OPS: usize = 2048;
/// The worker-count sweep.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The script counter, with `bump` in the fixed or extensible section.
fn counter(id: ObjectId, extensible: bool) -> MromObject {
    let bump = Method::public(
        MethodBody::script(
            "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
        )
        .expect("bump parses"),
    );
    let b = ObjectBuilder::new(id)
        .class("e14-counter")
        .fixed_data("count", DataItem::public(Value::Int(0)));
    if extensible {
        b.ext_method("bump", bump).build()
    } else {
        b.fixed_method("bump", bump).build()
    }
}

/// A runtime hosting `n` counters.
fn fixture(n: usize, extensible: bool) -> (Runtime, Vec<ObjectId>) {
    let shared = Runtime::new(NodeId(0xe14));
    let ids = (0..n)
        .map(|_| {
            shared
                .adopt(counter(shared.ids().next_id(), extensible))
                .expect("adopts")
        })
        .collect();
    (shared, ids)
}

/// One batch: `workers` threads, each bumping its own object.
fn run_disjoint(shared: &Runtime, ids: &[ObjectId], workers: usize) {
    let per_worker = TOTAL_OPS / workers;
    thread::scope(|s| {
        for id in ids.iter().take(workers) {
            s.spawn(move || {
                for _ in 0..per_worker {
                    black_box(
                        shared
                            .invoke(ObjectId::SYSTEM, *id, "bump", &[])
                            .expect("disjoint objects never contend"),
                    );
                }
            });
        }
    });
}

/// One batch: `workers` threads all bumping one object, retrying through
/// `ObjectBusy` until each lands its share.
fn run_contended(shared: &Runtime, id: ObjectId, workers: usize) {
    let per_worker = TOTAL_OPS / workers;
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || {
                let mut landed = 0;
                while landed < per_worker {
                    match shared.invoke(ObjectId::SYSTEM, id, "bump", &[]) {
                        Ok(v) => {
                            black_box(v);
                            landed += 1;
                        }
                        Err(MromError::ObjectBusy(_)) => thread::yield_now(),
                        Err(e) => panic!("contended bump failed: {e:?}"),
                    }
                }
            });
        }
    });
}

fn bench_parallel_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_parallel_throughput");
    group.sample_size(20);

    for extensible in [false, true] {
        let label = if extensible {
            "disjoint_extensible"
        } else {
            "disjoint_fixed"
        };
        for workers in WORKERS {
            let (shared, ids) = fixture(workers, extensible);
            group.bench_with_input(BenchmarkId::new(label, workers), &workers, |b, &workers| {
                b.iter(|| run_disjoint(&shared, &ids, workers));
            });
        }
    }

    for workers in WORKERS {
        let (shared, ids) = fixture(1, false);
        group.bench_with_input(
            BenchmarkId::new("contended_fixed", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_contended(&shared, ids[0], workers));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_parallel_throughput);
criterion_main!(benches);
