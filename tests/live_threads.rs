//! Real-concurrency integration: mobile objects migrating between node
//! runtimes that live on separate OS threads, over the crossbeam-backed
//! live transport. This validates what the deterministic simulator cannot:
//! that migration images, runtimes, and protocol plumbing are `Send` and
//! survive genuine parallelism.

use std::thread;
use std::time::Duration;

use mrom::core::{AdmissionPolicy, ClassSpec, DataItem, Method, MethodBody, MromObject, Runtime};
use mrom::net::{live_cluster, LiveDelivery, LiveNode};
use mrom::value::{NodeId, Value};

/// One generous deadline for any single cross-thread hop. The receive
/// itself is event-driven (a blocking channel wait, no polling); the
/// deadline exists only so a genuinely wedged transport fails the test
/// instead of hanging it, and is sized for heavily loaded CI machines
/// rather than the expected microseconds.
const HOP_DEADLINE: Duration = Duration::from_secs(120);

/// Event-driven receive: parks the thread until the message arrives and
/// fails loudly (with context) if the transport wedges.
fn recv_or_die(h: &LiveNode, what: &str) -> LiveDelivery {
    h.recv_timeout(HOP_DEADLINE).unwrap_or_else(|| {
        panic!(
            "{what}: nothing arrived at {} within {HOP_DEADLINE:?}",
            h.node()
        )
    })
}

fn worker_class() -> ClassSpec {
    ClassSpec::new("worker")
        .fixed_data("log", DataItem::public(Value::list([])))
        .fixed_method(
            "work",
            Method::public(
                MethodBody::script(
                    r#"
                    param node;
                    let log = self.get("log");
                    self.set("log", push(log, node));
                    return len(self.get("log"));
                    "#,
                )
                .unwrap(),
            ),
        )
}

/// An object ping-pongs between two threads N times, doing work at each
/// stop; the visit log must be perfectly alternating and complete.
#[test]
fn object_ping_pongs_between_threads() {
    const ROUNDS: usize = 16;
    let mut handles = live_cluster(&[NodeId(1), NodeId(2)]).unwrap();
    let h2 = handles.pop().unwrap();
    let h1 = handles.pop().unwrap();

    let hop = |rt: &mut Runtime, obj_id, here: NodeId| {
        rt.invoke_as_system(obj_id, "work", &[Value::Int(here.0 as i64)])
            .unwrap();
        let obj = rt.evict(obj_id).unwrap();
        obj.migration_image(obj_id).unwrap()
    };

    let t1 = thread::spawn(move || {
        let mut rt = Runtime::new(NodeId(1));
        let obj = worker_class().instantiate_as(rt.ids_mut().next_id(), None);
        let obj_id = obj.id();
        rt.adopt(obj).unwrap();
        // First leg.
        let image = hop(&mut rt, obj_id, NodeId(1));
        h1.send(NodeId(2), image).unwrap();
        // Keep volleying.
        for round in 0..ROUNDS - 1 {
            let d = recv_or_die(&h1, &format!("return leg {round}"));
            let obj = MromObject::from_image_with_policy(&d.payload, AdmissionPolicy::Off).unwrap();
            rt.adopt(obj).unwrap();
            let image = hop(&mut rt, obj_id, NodeId(1));
            h1.send(NodeId(2), image).unwrap();
        }
        // Final receive: the object retires at node 1.
        let d = recv_or_die(&h1, "final leg");
        let obj = MromObject::from_image_with_policy(&d.payload, AdmissionPolicy::Off).unwrap();
        rt.adopt(obj).unwrap();
        let log = rt.object(obj_id).unwrap().read_data(obj_id, "log").unwrap();
        (obj_id, log)
    });

    let t2 = thread::spawn(move || {
        let mut rt = Runtime::new(NodeId(2));
        for round in 0..ROUNDS {
            let d = recv_or_die(&h2, &format!("inbound leg {round}"));
            let obj = MromObject::from_image_with_policy(&d.payload, AdmissionPolicy::Off).unwrap();
            let obj_id = obj.id();
            rt.adopt(obj).unwrap();
            let image = hop(&mut rt, obj_id, NodeId(2));
            h2.send(NodeId(1), image).unwrap();
        }
    });

    t2.join().unwrap();
    let (_, log) = t1.join().unwrap();
    let visits = log.as_list().unwrap();
    assert_eq!(visits.len(), 2 * ROUNDS);
    for (i, v) in visits.iter().enumerate() {
        let expected = if i % 2 == 0 { 1 } else { 2 };
        assert_eq!(v, &Value::Int(expected), "visit {i}");
    }
}

/// Many agents migrate concurrently from one producer thread to many
/// consumer threads; every agent arrives exactly once and works.
#[test]
fn fan_out_migration_under_parallel_load() {
    const CONSUMERS: u64 = 4;
    const AGENTS_PER_CONSUMER: usize = 25;
    let nodes: Vec<NodeId> = (0..=CONSUMERS).map(NodeId).collect();
    let mut handles = live_cluster(&nodes).unwrap();
    let producer = handles.remove(0);

    let consumers: Vec<_> = handles
        .into_iter()
        .map(|h| {
            thread::spawn(move || {
                let rt = Runtime::new(h.node());
                let mut done = 0usize;
                while done < AGENTS_PER_CONSUMER {
                    let d = recv_or_die(&h, &format!("agent {done}"));
                    let obj = MromObject::from_image_with_policy(&d.payload, AdmissionPolicy::Off)
                        .unwrap();
                    let id = obj.id();
                    rt.adopt(obj).unwrap();
                    let n = rt
                        .invoke_as_system(id, "work", &[Value::Int(h.node().0 as i64)])
                        .unwrap();
                    assert_eq!(n, Value::Int(1));
                    done += 1;
                }
                done
            })
        })
        .collect();

    let mut rt = Runtime::new(NodeId(0));
    for _round in 0..AGENTS_PER_CONSUMER {
        for target in 1..=CONSUMERS {
            let obj = worker_class().instantiate_as(rt.ids_mut().next_id(), None);
            let id = obj.id();
            rt.adopt(obj).unwrap();
            let obj = rt.evict(id).unwrap();
            let image = obj.migration_image(id).unwrap();
            producer.send(NodeId(target), image).unwrap();
        }
    }

    let total: usize = consumers.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(total, CONSUMERS as usize * AGENTS_PER_CONSUMER);
    // Safe to read only after every consumer joined: the live transport
    // records the delivery at send time, and all sends happen-before the
    // joins above.
    let stats = producer.stats_snapshot();
    assert_eq!(
        stats.messages_delivered,
        CONSUMERS * AGENTS_PER_CONSUMER as u64
    );
    assert_eq!(stats.messages_dropped, 0);
}
