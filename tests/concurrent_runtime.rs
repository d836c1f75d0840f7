//! Hammer tests for the concurrent sharded site runtime
//! ([`mrom::core::Runtime`]): genuine OS-thread parallelism over
//! one object table.
//!
//! Three properties, straight from the checkout protocol's contract:
//!
//! 1. **Disjoint objects**: N threads invoking over disjoint objects
//!    produce final state identical, object for object, to the same
//!    workload run sequentially — parallelism is unobservable when no
//!    object is shared.
//! 2. **Same-object contention**: concurrent invokes of one object only
//!    ever yield `Ok` or [`MromError::ObjectBusy`]; every success is
//!    durably visible (the final counter equals the success count).
//! 3. **Dispatch-cache coherence**: a storm of `addMethod` against
//!    concurrent invocations never observes a stale dispatch-cache hit —
//!    once an add is acknowledged, every thread sees the method (or a
//!    clean `ObjectBusy`), never "no such method" and never a wrong
//!    body's result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

/// Reads a width knob from the environment (CI's release hammer step
/// widens the run; the debug tier-1 default stays fast on small hosts).
fn knob(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

use mrom::core::{DataItem, Method, MethodBody, MromError, MromObject, ObjectBuilder, Runtime};
use mrom::value::{NodeId, ObjectId, Value};

const THREADS: usize = 8;

/// Invocations per thread in the disjoint hammer — `MROM_HAMMER_OPS`
/// raises it to the full 10k width in CI's release hammer step.
fn ops_per_thread() -> usize {
    knob("MROM_HAMMER_OPS", 500)
}

/// The canonical script counter (script bodies so the whole object —
/// state *and* behaviour — serializes for byte-level comparison).
fn counter(id: ObjectId) -> MromObject {
    ObjectBuilder::new(id)
        .class("hammer-counter")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script(
                    "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
                )
                .expect("bump parses"),
            ),
        )
        .build()
}

#[test]
fn disjoint_objects_parallel_equals_sequential_object_for_object() {
    // Parallel world: THREADS objects, one hammering thread each.
    let ops_per_thread = ops_per_thread();
    let shared = Runtime::new(NodeId(9));
    let ids: Vec<ObjectId> = (0..THREADS)
        .map(|_| {
            shared
                .adopt(counter(shared.ids().next_id()))
                .expect("adopts")
        })
        .collect();
    thread::scope(|s| {
        for id in &ids {
            s.spawn(|| {
                for _ in 0..ops_per_thread {
                    shared
                        .invoke(ObjectId::SYSTEM, *id, "bump", &[])
                        .expect("disjoint objects never contend");
                }
            });
        }
    });

    // Sequential world: same node → the id generator mints the same id
    // stream, so objects pair up by identity.
    let mut rt = Runtime::new(NodeId(9));
    let seq_ids: Vec<ObjectId> = (0..THREADS)
        .map(|_| {
            let id = rt.ids_mut().next_id();
            rt.adopt(counter(id)).expect("adopts")
        })
        .collect();
    assert_eq!(ids, seq_ids, "same seed, same id stream");
    for id in &seq_ids {
        for _ in 0..ops_per_thread {
            rt.invoke(ObjectId::SYSTEM, *id, "bump", &[]).unwrap();
        }
    }

    for id in &ids {
        let parallel = shared
            .object(*id)
            .expect("object survives the hammer")
            .image_value()
            .expect("serializes");
        let sequential = rt.object(*id).unwrap().image_value().unwrap();
        assert_eq!(
            parallel, sequential,
            "object {id} diverged from the sequential run"
        );
    }
}

#[test]
fn same_object_contention_yields_only_ok_or_object_busy() {
    let shared = Runtime::new(NodeId(10));
    let id = shared.adopt(counter(shared.ids().next_id())).unwrap();
    let attempts_per_thread = knob("MROM_HAMMER_ATTEMPTS", 400);

    let oks = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..attempts_per_thread {
                    match shared.invoke(ObjectId::SYSTEM, id, "bump", &[]) {
                        Ok(_) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(MromError::ObjectBusy(busy)) => assert_eq!(busy, id),
                        Err(other) => panic!("contention produced {other:?}"),
                    }
                }
            });
        }
    });

    let oks = oks.load(Ordering::Relaxed);
    assert!(oks >= 1, "at least one invocation must win each race");
    let count = shared
        .object(id)
        .unwrap()
        .read_data(ObjectId::SYSTEM, "count")
        .unwrap();
    assert_eq!(
        count,
        Value::Int(i64::try_from(oks).unwrap()),
        "every acknowledged bump is durably visible, exactly once"
    );
}

#[test]
fn add_method_invoke_storm_never_sees_stale_dispatch_cache() {
    let shared = Runtime::new(NodeId(11));
    let obj = ObjectBuilder::new(shared.ids().next_id())
        .class("hammer-extensible")
        .build();
    let id = shared.adopt(obj).unwrap();
    let methods = knob("MROM_HAMMER_METHODS", 48);
    // Highest method index whose addMethod has been *acknowledged*
    // (0 = none yet). Published only after the add returns Ok.
    let published = AtomicUsize::new(0);

    thread::scope(|s| {
        // Writer: grow the extensible method section one method at a
        // time, retrying when a reader holds the object checked out.
        // `addMethod` is meta-ACL-guarded, so the object itself (its own
        // origin) is the caller.
        s.spawn(|| {
            for k in 0..methods {
                let args = [
                    Value::from(format!("m_{k}")),
                    Value::map([
                        ("body", Value::from(format!("return {k};"))),
                        ("invoke_acl", Value::from("public")),
                    ]),
                ];
                loop {
                    match shared.invoke(id, id, "addMethod", &args) {
                        Ok(_) => break,
                        // Sleep, don't spin: on a single-CPU host a
                        // yield loop starves the thread holding the
                        // checkout and the storm never makes progress.
                        Err(MromError::ObjectBusy(_)) => {
                            thread::sleep(Duration::from_micros(20));
                        }
                        Err(other) => panic!("addMethod failed: {other:?}"),
                    }
                }
                published.store(k + 1, Ordering::SeqCst);
            }
        });
        // Readers: probe every newly acknowledged method exactly once,
        // retrying only through `ObjectBusy`. A stale dispatch-cache
        // view would surface as NoSuchMethod (the add vanished) or a
        // wrong integer (an old body's result) — both fail loudly.
        for _ in 0..THREADS - 1 {
            s.spawn(|| {
                let mut observed = 0usize;
                while observed < methods {
                    let p = published.load(Ordering::SeqCst);
                    if p <= observed {
                        thread::sleep(Duration::from_micros(20));
                        continue;
                    }
                    observed = p;
                    let k = p - 1;
                    loop {
                        match shared.invoke(ObjectId::SYSTEM, id, &format!("m_{k}"), &[]) {
                            Ok(v) => {
                                assert_eq!(
                                    v,
                                    Value::Int(i64::try_from(k).unwrap()),
                                    "stale body served for m_{k}"
                                );
                                break;
                            }
                            Err(MromError::ObjectBusy(_)) => {
                                thread::sleep(Duration::from_micros(20));
                            }
                            Err(other) => {
                                panic!("stale dispatch view for m_{k} (published={p}): {other:?}")
                            }
                        }
                    }
                }
            });
        }
    });

    // Quiesced: every method is visible and correct.
    for k in 0..methods {
        assert_eq!(
            shared
                .invoke(ObjectId::SYSTEM, id, &format!("m_{k}"), &[])
                .unwrap(),
            Value::Int(i64::try_from(k).unwrap())
        );
    }
}
