//! Admission control at the HADAS trust boundaries.
//!
//! The federation is where foreign bytes first become live objects, so it
//! is where `AdmissionPolicy::Strict` must bite: a migrating object whose
//! methods reference state that did not travel with it is refused at the
//! *receiving* site (and survives intact at the sender), and an exported
//! ambassador whose copied methods were sliced away from their data is
//! refused before it ever ships. Code that arrives by other doors — a
//! pushed update, or a script growing its own object through the
//! `addMethod` meta-method — answers to the same site policy.

use mrom::core::{Acl, AdmissionPolicy, DataItem, Method, MethodBody, MromError, ObjectBuilder};
use mrom::hadas::scenarios::{deploy_employee_db, star_federation};
use mrom::hadas::{
    instantiate_ambassador_with_policy, AmbassadorSpec, Federation, HadasError, UpdateOp,
};
use mrom::net::LinkConfig;
use mrom::value::{IdGenerator, NodeId, ObjectId, Value};

/// An agent whose only method reads a data item it does not carry — the
/// canonical "crafted migration image" the analyzer must catch.
fn adopt_defective_agent(fed: &mut Federation, at: NodeId) -> ObjectId {
    let rt = fed.runtime_mut(at).unwrap();
    let agent = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("sloppy-agent")
        .meta_acl(Acl::Public)
        .ext_method(
            "leak",
            Method::public(MethodBody::script("return self.get(\"left_behind\");").unwrap()),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();
    id
}

#[test]
fn strict_receive_path_refuses_a_crafted_migrant() {
    let (mut fed, nodes) = star_federation(41, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let id = adopt_defective_agent(&mut fed, spoke);

    // The receiving side runs the analyzer; the refusal travels back as a
    // protocol error and the object is restored at the origin, not lost.
    assert_eq!(
        fed.set_admission_policy(AdmissionPolicy::Strict),
        AdmissionPolicy::Off
    );
    match fed.dispatch_object(spoke, hub, id) {
        Err(HadasError::Remote(reason)) => {
            assert!(reason.contains("refused admission"), "reason: {reason}");
            assert!(reason.contains("dangling-data-item"), "reason: {reason}");
        }
        other => panic!("expected remote admission refusal, got {other:?}"),
    }
    assert!(fed.runtime(spoke).unwrap().object(id).is_some());
    assert!(fed.runtime(hub).unwrap().object(id).is_none());

    // Dropping back to Off admits the very same image.
    fed.set_admission_policy(AdmissionPolicy::Off);
    fed.dispatch_object(spoke, hub, id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(id).is_some());
}

#[test]
fn off_is_the_default_and_admits_the_same_migrant() {
    let (mut fed, nodes) = star_federation(42, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    assert_eq!(fed.admission_policy(), AdmissionPolicy::Off);
    let id = adopt_defective_agent(&mut fed, spoke);
    fed.dispatch_object(spoke, hub, id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(id).is_some());
}

#[test]
fn warn_admits_but_strict_spares_clean_migrants() {
    let (mut fed, nodes) = star_federation(43, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);

    // Defective agent passes under Warn (analysis runs, nothing blocks).
    let bad = adopt_defective_agent(&mut fed, spoke);
    fed.set_admission_policy(AdmissionPolicy::Warn);
    fed.dispatch_object(spoke, hub, bad).unwrap();

    // A self-contained agent passes even under Strict.
    let rt = fed.runtime_mut(spoke).unwrap();
    let clean = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("tidy-agent")
        .meta_acl(Acl::Public)
        .ext_data("hops", DataItem::public(Value::Int(0)))
        .ext_method(
            "bump",
            Method::public(
                MethodBody::script("return self.set(\"hops\", self.get(\"hops\") + 1);").unwrap(),
            ),
        )
        .build();
    let clean_id = clean.id();
    rt.adopt(clean).unwrap();
    fed.set_admission_policy(AdmissionPolicy::Strict);
    fed.dispatch_object(spoke, hub, clean_id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(clean_id).is_some());
}

/// An APO whose `count` method depends on the `employees` data item.
fn build_apo(fed: &mut Federation, at: NodeId) -> mrom::core::MromObject {
    let rt = fed.runtime_mut(at).unwrap();
    ObjectBuilder::new(rt.ids_mut().next_id())
        .class("directory")
        .fixed_data(
            "employees",
            DataItem::public(Value::list([Value::from("ada")])),
        )
        .fixed_method(
            "count",
            Method::public(MethodBody::script("return len(self.get(\"employees\"));").unwrap()),
        )
        .build()
}

#[test]
fn strict_export_refuses_an_ambassador_sliced_from_its_data() {
    let (mut fed, nodes) = star_federation(44, 2, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let apo = build_apo(&mut fed, hub);
    let mut ids = IdGenerator::new(NodeId(77));

    // `count` is copied but `employees` stays behind: incoherent slice.
    let bad_spec = AmbassadorSpec::relay_only().with_methods(["count"]);
    match instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &bad_spec,
        &mut ids,
        AdmissionPolicy::Strict,
    ) {
        Err(HadasError::AdmissionRefused { at, .. }) => assert_eq!(at, hub),
        other => panic!("expected admission refusal, got {other:?}"),
    }
    // Off ships it anyway (today's behavior), and a coherent slice that
    // brings its data along satisfies even Strict.
    instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &bad_spec,
        &mut ids,
        AdmissionPolicy::Off,
    )
    .unwrap();
    let good_spec = AmbassadorSpec::relay_only()
        .with_methods(["count"])
        .with_data(["employees"]);
    instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &good_spec,
        &mut ids,
        AdmissionPolicy::Strict,
    )
    .unwrap();
}

#[test]
fn strict_federation_blocks_import_of_an_incoherent_export() {
    let (mut fed, nodes) = star_federation(45, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let apo = build_apo(&mut fed, hub);
    fed.integrate_apo(
        hub,
        "directory",
        apo,
        AmbassadorSpec::relay_only().with_methods(["count"]),
    )
    .unwrap();

    fed.set_admission_policy(AdmissionPolicy::Strict);
    assert!(fed.import_apo(spoke, hub, "directory").is_err());
    assert!(fed.guests(spoke).unwrap().is_empty());

    fed.set_admission_policy(AdmissionPolicy::Off);
    let amb = fed.import_apo(spoke, hub, "directory").unwrap();
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    // Off ships the broken slice, and the defect Strict predicted fires
    // at first use: the copied body runs locally without its data.
    let crash = fed
        .call_through_ambassador(spoke, client, amb, "count", &[])
        .unwrap_err();
    assert!(crash.to_string().contains("employees"), "crash: {crash}");
}

/// A method descriptor whose body reads a data item no ambassador carries.
fn dangling_desc() -> Value {
    Value::map([
        ("body", Value::from("return self.get(\"missing\");")),
        ("invoke_acl", Value::from("public")),
    ])
}

/// Pushes `op` from the employee-db hub under `policy`.
fn push(
    fed: &mut Federation,
    hub: NodeId,
    policy: AdmissionPolicy,
    op: UpdateOp,
) -> Result<usize, HadasError> {
    fed.set_admission_policy(policy);
    fed.push_update(hub, "employee-db", &[op])
}

fn expect_refused(result: Result<usize, HadasError>) {
    match result {
        Err(HadasError::Remote(reason)) => {
            assert!(reason.contains("refused admission"), "reason: {reason}");
        }
        other => panic!("expected remote admission refusal, got {other:?}"),
    }
}

#[test]
fn strict_push_update_refuses_a_dangling_add_method() {
    let (mut fed, nodes) = star_federation(5, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let [(_, amb)] = deploy_employee_db(&mut fed, hub, &[spoke]).unwrap()[..] else {
        panic!("one spoke, one ambassador")
    };
    let has_leak = |fed: &Federation| {
        let rt = fed.runtime(spoke).unwrap();
        rt.object(amb).unwrap().find_method("leak").is_some()
    };
    let add_leak = || UpdateOp::AddMethod("leak".into(), dangling_desc());

    expect_refused(push(&mut fed, hub, AdmissionPolicy::Strict, add_leak()));
    assert!(!has_leak(&fed));

    assert_eq!(
        push(&mut fed, hub, AdmissionPolicy::Off, add_leak()).unwrap(),
        1
    );
    assert!(has_leak(&fed));
}

#[test]
fn strict_push_update_refuses_a_dangling_set_method() {
    let (mut fed, nodes) = star_federation(5, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let [(_, amb)] = deploy_employee_db(&mut fed, hub, &[spoke]).unwrap()[..] else {
        panic!("one spoke, one ambassador")
    };
    let count_body = |fed: &Federation| {
        let rt = fed.runtime(spoke).unwrap();
        let count = rt
            .object(amb)
            .unwrap()
            .find_method("count")
            .unwrap()
            .0
            .descriptor();
        count.as_map().unwrap()["body"].clone()
    };
    let before = count_body(&fed);
    let break_count = || UpdateOp::SetMethod("count".into(), dangling_desc());

    expect_refused(push(&mut fed, hub, AdmissionPolicy::Strict, break_count()));
    assert_eq!(count_body(&fed), before);

    assert_eq!(
        push(&mut fed, hub, AdmissionPolicy::Off, break_count()).unwrap(),
        1
    );
    assert_ne!(count_body(&fed), before);
}

/// Adopts an object whose `grow` method installs a dangling `leak`
/// method on itself through the `addMethod` meta-method.
fn adopt_self_grower(fed: &mut Federation, at: NodeId) -> ObjectId {
    let rt = fed.runtime_mut(at).unwrap();
    let grower = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("self-grower")
        .meta_acl(Acl::Public)
        .fixed_method(
            "grow",
            Method::public(
                MethodBody::script(
                    "return self.invoke(\"addMethod\", \
                     [\"leak\", \"return self.get(\\\"missing\\\");\"]);",
                )
                .unwrap(),
            ),
        )
        .build();
    rt.adopt(grower).unwrap()
}

#[test]
fn strict_site_runtimes_gate_add_method_meta_ops() {
    let (mut fed, nodes) = star_federation(6, 2, LinkConfig::lan()).unwrap();
    fed.set_admission_policy(AdmissionPolicy::Strict);
    // A site added after the policy was set inherits it.
    let late = NodeId(9);
    fed.add_site(late).unwrap();

    for at in [nodes[1], late] {
        let id = adopt_self_grower(&mut fed, at);
        let rt = fed.runtime(at).unwrap();
        // Through a script: the rejection surfaces in the script error.
        let err = rt.invoke(id, id, "grow", &[]).unwrap_err();
        assert!(
            err.to_string().contains("admission rejected at add_method"),
            "{err}"
        );
        // Straight through the meta-method: the typed rejection.
        let err = rt
            .invoke(
                id,
                id,
                "addMethod",
                &[
                    Value::from("leak"),
                    Value::from("return self.get(\"missing\");"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, MromError::AdmissionRejected { .. }), "{err}");
        assert!(rt.object(id).unwrap().find_method("leak").is_none());
    }

    // A restarted site keeps the policy.
    fed.crash_site(late).unwrap();
    fed.restart_site(late).unwrap();
    assert_eq!(
        fed.runtime(late).unwrap().limits().admission,
        AdmissionPolicy::Strict
    );

    // Dropping back to Off reaches every runtime.
    fed.set_admission_policy(AdmissionPolicy::Off);
    let id = adopt_self_grower(&mut fed, late);
    let rt = fed.runtime(late).unwrap();
    rt.invoke(id, id, "grow", &[]).unwrap();
    assert!(rt.object(id).unwrap().find_method("leak").is_some());
}
