//! Cross-node trace continuity: a federation round trip is ONE
//! causally-linked trace. The sender-side operation span anchors the
//! trace, the wire protocol carries `(trace, parent_span)`, and the
//! receiving site's work joins the same trace instead of minting a
//! fresh one.

use hadas::{Federation, ProtocolMsg};
use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
use mrom_net::{LinkConfig, NetworkConfig};
use mrom_obs::{EventKind, ObsMode};
use mrom_value::{NodeId, ObjectId, Value};

fn two_sites() -> (Federation, NodeId, NodeId) {
    let cfg = NetworkConfig::new(7).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let (home, away) = (NodeId(1), NodeId(2));
    fed.add_site(home).unwrap();
    fed.add_site(away).unwrap();
    fed.link(home, away).unwrap();
    (fed, home, away)
}

#[test]
fn object_hop_is_one_causally_linked_trace() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let (mut fed, home, away) = two_sites();
    let rt = fed.runtime_mut(home).unwrap();
    let agent = ClassSpec::new("agent")
        .fixed_data("x", DataItem::public(Value::Int(1)))
        .instantiate_as(rt.ids_mut().next_id(), None);
    let id = agent.id();
    rt.adopt(agent).unwrap();
    fed.dispatch_object(home, away, id).unwrap();
    mrom_obs::set_mode(ObsMode::Disabled);

    let events = mrom_obs::ring_snapshot();
    let op = events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::FedOpStart {
                    op: "dispatch_object",
                    ..
                }
            )
        })
        .expect("dispatch opens an operation span");
    let trace = op.event.trace;
    assert_ne!(trace, 0, "the hop runs under a real trace");

    // Both halves of the hop — the dispatch at `home` and the adoption
    // at `away` — carry the same trace id.
    let dispatched = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ObjectDispatched { .. }))
        .expect("sender half recorded");
    let adopted = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ObjectAdopted { .. }))
        .expect("receiver half recorded");
    assert_eq!(dispatched.event.trace, trace);
    assert_eq!(adopted.event.trace, trace);
    match adopted.kind {
        EventKind::ObjectAdopted { object, at } => {
            assert_eq!(object, id);
            assert_eq!(at, away);
        }
        _ => unreachable!(),
    }
}

#[test]
fn remote_invocation_joins_the_senders_trace() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let (mut fed, home, away) = two_sites();
    let rt = fed.runtime_mut(away).unwrap();
    let svc = ClassSpec::new("svc")
        .fixed_method(
            "ping",
            Method::public(MethodBody::script("return 7;").unwrap()),
        )
        .instantiate_as(rt.ids_mut().next_id(), None);
    let target = svc.id();
    rt.adopt(svc).unwrap();
    let caller = fed.runtime_mut(home).unwrap().ids_mut().next_id();
    let out = fed
        .remote_invoke(home, away, caller, target, "ping", &[])
        .unwrap();
    mrom_obs::set_mode(ObsMode::Disabled);
    assert_eq!(out, Value::Int(7));

    let events = mrom_obs::ring_snapshot();
    let op = events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::FedOpStart {
                    op: "remote_invoke",
                    ..
                }
            )
        })
        .expect("remote_invoke opens an operation span");
    // The invocation executed at `away` is a child span of the sender's
    // operation span, in the same trace.
    let start = events
        .iter()
        .find(|e| matches!(&e.kind, EventKind::InvokeStart { method, .. } if &**method == "ping"))
        .expect("remote execution recorded");
    assert_ne!(op.event.trace, 0);
    assert_eq!(start.event.trace, op.event.trace);
    assert_eq!(start.event.parent, op.event.span);
}

/// The wire continuation itself, across genuinely separate recorders:
/// the receiving side here is a different thread, so nothing links the
/// two halves except the `(trace, parent_span)` fields of the message.
#[test]
fn trace_context_survives_the_wire_to_a_fresh_recorder() {
    let caller = ObjectId::SYSTEM;
    let target = ObjectId::SYSTEM;
    // Sender thread: an operation span is open when the message encodes.
    let (sent_trace, sent_span, bytes) = std::thread::spawn(move || {
        mrom_obs::set_mode(ObsMode::Ring);
        let h = mrom_obs::fed_op_start(NodeId(1), "remote_invoke");
        let (trace, parent_span) = mrom_obs::current_trace_context();
        let msg = ProtocolMsg::InvokeReq {
            req_id: 9,
            caller,
            target,
            method: "m".to_owned(),
            args: vec![],
            trace,
            parent_span,
        };
        let bytes = msg.encode();
        mrom_obs::fed_op_end(h, "remote_invoke", true);
        (trace, parent_span, bytes)
    })
    .join()
    .unwrap();
    assert_ne!(sent_trace, 0);
    assert_ne!(sent_span, 0);

    // Receiver thread: a fresh thread-local recorder with no history.
    let events = std::thread::spawn(move || {
        mrom_obs::set_mode(ObsMode::Ring);
        let Ok(ProtocolMsg::InvokeReq {
            trace, parent_span, ..
        }) = ProtocolMsg::decode(&bytes)
        else {
            panic!("message decodes");
        };
        let _scope = mrom_obs::continue_trace(trace, parent_span);
        let h = mrom_obs::invoke_start(target, "m", caller, 0);
        mrom_obs::invoke_end(h, target, "m", "ok", 0);
        mrom_obs::ring_snapshot()
    })
    .join()
    .unwrap();
    let start = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::InvokeStart { .. }))
        .expect("remote half recorded");
    assert_eq!(start.event.trace, sent_trace, "remote half joins the trace");
    assert_eq!(
        start.event.parent, sent_span,
        "remote root span hangs off the sender's operation span"
    );
}
