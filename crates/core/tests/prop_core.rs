//! Property tests over the object model: fixed-section immutability under
//! arbitrary operation sequences, migration round trips, and the
//! encapsulation/security duality.

use mrom_core::{
    invoke, Acl, AdmissionPolicy, DataItem, Method, MethodBody, MromError, MromObject, NoWorld,
    ObjectBuilder,
};
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};
use proptest::prelude::*;

fn ids(node: u64) -> IdGenerator {
    IdGenerator::new(NodeId(node))
}

/// Names used by generated operations.
fn name() -> impl Strategy<Value = String> {
    "[a-e]{1,3}".prop_map(|s| s)
}

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,6}".prop_map(Value::Str),
        prop::collection::vec(any::<i64>().prop_map(Value::Int), 0..3).prop_map(Value::List),
    ]
}

/// A structural operation against an object.
#[derive(Debug, Clone)]
enum Op {
    AddData(String, Value),
    DeleteData(String),
    WriteData(String, Value),
    AddMethod(String),
    DeleteMethod(String),
    SetMethodAcl(String, bool),
    RenameData(String, String),
    InstallTower(String),
    UninstallTower,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (name(), small_value()).prop_map(|(n, v)| Op::AddData(n, v)),
        name().prop_map(Op::DeleteData),
        (name(), small_value()).prop_map(|(n, v)| Op::WriteData(n, v)),
        name().prop_map(Op::AddMethod),
        name().prop_map(Op::DeleteMethod),
        (name(), any::<bool>()).prop_map(|(n, public)| Op::SetMethodAcl(n, public)),
        (name(), name()).prop_map(|(a, b)| Op::RenameData(a, b)),
        name().prop_map(Op::InstallTower),
        Just(Op::UninstallTower),
    ]
}

/// Builds the reference object: one fixed data item, one fixed method.
fn subject(gen: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(gen.next_id())
        .class("subject")
        .fixed_data("anchor", DataItem::public(Value::Int(7)))
        .fixed_method(
            "anchor_m",
            Method::public(MethodBody::script("return self.get(\"anchor\");").unwrap()),
        )
        .build()
}

fn apply(obj: &mut MromObject, me: ObjectId, op: &Op) {
    // Every operation is allowed to fail (duplicates, missing names); the
    // properties below assert invariants, not success.
    let _ = match op {
        Op::AddData(n, v) => obj.add_data(me, n, v.clone()),
        Op::DeleteData(n) => obj.delete_data(me, n),
        Op::WriteData(n, v) => obj.write_data(me, n, v.clone()),
        Op::AddMethod(n) => obj.add_method(
            me,
            n,
            Method::public(MethodBody::script("return 1;").unwrap()),
        ),
        Op::DeleteMethod(n) => obj.delete_method(me, n),
        Op::SetMethodAcl(n, public) => obj.set_method(
            me,
            n,
            &Value::map([(
                "invoke_acl",
                Value::from(if *public { "public" } else { "origin" }),
            )]),
        ),
        Op::RenameData(a, b) => {
            obj.set_data_item(me, a, &Value::map([("rename", Value::Str(b.clone()))]))
        }
        Op::InstallTower(n) => obj.install_meta_invoke(me, n),
        Op::UninstallTower => obj.uninstall_meta_invoke(me).map(|_| ()),
    };
}

proptest! {
    /// No sequence of structural operations can remove, rename, or destroy
    /// fixed items; fixed data stays readable and fixed methods invocable.
    #[test]
    fn fixed_section_survives_arbitrary_mutation(ops in prop::collection::vec(op(), 0..40)) {
        let mut gen = ids(1);
        let mut obj = subject(&mut gen);
        let me = obj.id();
        for o in &ops {
            apply(&mut obj, me, o);
        }
        // The fixed anchor item is still there and readable.
        let v = obj.read_data(me, "anchor").expect("fixed item must survive");
        prop_assert_eq!(v, Value::Int(7));
        // The fixed method is still there (the tower may reroute
        // invocation, so check presence rather than behaviour).
        prop_assert!(obj.find_method("anchor_m").is_some());
        // All nine meta-methods survive too (registered fixed).
        for meta in ["invoke", "addMethod", "getDataItem", "deleteMethod"] {
            prop_assert!(obj.find_method(meta).is_some(), "{} lost", meta);
        }
    }

    /// After arbitrary mutation, a mobile object's migration image round
    /// trips to an identical object.
    #[test]
    fn migration_round_trip_after_mutation(ops in prop::collection::vec(op(), 0..40)) {
        let mut gen = ids(2);
        let mut obj = subject(&mut gen);
        let me = obj.id();
        for o in &ops {
            apply(&mut obj, me, o);
        }
        let bytes = obj.migration_image(me).expect("script-only object is mobile");
        let back = MromObject::from_image_with_policy(&bytes, AdmissionPolicy::Off)
            .expect("own image decodes");
        prop_assert_eq!(back, obj);
    }

    /// Encapsulation == security: an item a stranger cannot read never
    /// appears in the stranger's listing, and vice versa.
    #[test]
    fn visibility_equals_permission(ops in prop::collection::vec(op(), 0..30)) {
        let mut gen = ids(3);
        let mut obj = subject(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        for o in &ops {
            apply(&mut obj, me, o);
        }
        for (n, _) in obj.list_data(stranger) {
            prop_assert!(obj.read_data(stranger, &n).is_ok(), "listed but unreadable: {}", n);
        }
        for (n, _) in obj.list_data(me) {
            let visible_to_stranger = obj
                .list_data(stranger)
                .iter()
                .any(|(m, _)| m == &n);
            let readable = obj.read_data(stranger, &n).is_ok();
            prop_assert_eq!(visible_to_stranger, readable, "{}", n);
        }
    }

    /// A stranger principal can never change the object's structure, no
    /// matter which operation it attempts.
    #[test]
    fn strangers_cannot_mutate(ops in prop::collection::vec(op(), 1..30)) {
        let mut gen = ids(4);
        let mut obj = subject(&mut gen);
        let me = obj.id();
        // Give the object some extensible structure first.
        obj.add_data(me, "a", Value::Int(1)).unwrap();
        obj.add_method(me, "b", Method::public(MethodBody::script("return 1;").unwrap()))
            .unwrap();
        let snapshot = obj.clone();
        let stranger = gen.next_id();
        for o in &ops {
            apply(&mut obj, stranger, o);
        }
        prop_assert_eq!(obj, snapshot);
    }

    /// Invoking arbitrary method names with arbitrary args never panics.
    #[test]
    fn invocation_is_total(
        method in "[a-zA-Z_][a-zA-Z0-9_]{0,10}",
        args in prop::collection::vec(small_value(), 0..3)
    ) {
        let mut gen = ids(5);
        let mut obj = subject(&mut gen);
        let caller = gen.next_id();
        let mut world = NoWorld;
        let _ = invoke(&mut obj, &mut world, caller, &method, &args);
    }

    /// Invoke through the meta-method `invoke` is equivalent to direct
    /// invocation (same result or same class of error).
    #[test]
    fn meta_invoke_equivalence(x in any::<i32>()) {
        let mut gen = ids(6);
        let mut obj = ObjectBuilder::new(gen.next_id())
            .fixed_method(
                "twice",
                Method::public(MethodBody::script("param v; return v + v;").unwrap()),
            )
            .build();
        let caller = gen.next_id();
        let mut world = NoWorld;
        let direct = invoke(&mut obj, &mut world, caller, "twice", &[Value::from(x)]);
        let via_meta = invoke(
            &mut obj,
            &mut world,
            caller,
            "invoke",
            &[Value::from("twice"), Value::list([Value::from(x)])],
        );
        prop_assert_eq!(direct.unwrap(), via_meta.unwrap());
    }
}

#[test]
fn stranger_cannot_exfiltrate_private_method_bodies() {
    // Regression-style scenario: even with a public invoke ACL on a
    // method, its body stays hidden from non-meta callers.
    let mut gen = ids(7);
    let mut obj = subject(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "secret_logic",
        Method::public(MethodBody::script("return 42;").unwrap()),
    )
    .unwrap();
    let stranger = gen.next_id();
    let desc = obj.method_descriptor(stranger, "secret_logic").unwrap();
    assert!(desc.as_map().unwrap()["body"].is_null());
    // And the full image is off limits entirely.
    assert!(matches!(
        obj.migration_image(stranger),
        Err(MromError::AccessDenied { .. })
    ));
    // Unless granted: ACL surgery by the origin opens the door.
    obj.set_method(
        me,
        "secret_logic",
        &Value::map([("meta_acl", Value::list([Value::Str(stranger.to_string())]))]),
    )
    .unwrap();
    let desc = obj.method_descriptor(stranger, "secret_logic").unwrap();
    assert!(!desc.as_map().unwrap()["body"].is_null());
}

#[test]
fn acl_upgrade_downgrade_cycle() {
    let mut gen = ids(8);
    let mut obj = subject(&mut gen);
    let me = obj.id();
    let friend = gen.next_id();
    obj.add_data(me, "shared", Value::Int(5)).unwrap();
    assert!(obj.read_data(friend, "shared").is_err());
    // Grant, verify, revoke, verify.
    obj.set_data_item(
        me,
        "shared",
        &Value::map([("read_acl", Value::list([Value::Str(friend.to_string())]))]),
    )
    .unwrap();
    assert_eq!(obj.read_data(friend, "shared").unwrap(), Value::Int(5));
    obj.set_data_item(
        me,
        "shared",
        &Value::map([("read_acl", Value::from("origin"))]),
    )
    .unwrap();
    assert!(obj.read_data(friend, "shared").is_err());
    // Nobody policy locks out even the origin.
    obj.set_data_item(
        me,
        "shared",
        &Value::map([("read_acl", Value::from("nobody"))]),
    )
    .unwrap();
    assert!(matches!(
        obj.read_data(me, "shared"),
        Err(MromError::AccessDenied { .. })
    ));
    // Write ACL still lets the origin repair the situation.
    obj.set_data_item(
        me,
        "shared",
        &Value::map([("read_acl", Value::from("public"))]),
    )
    .unwrap();
    assert_eq!(obj.read_data(friend, "shared").unwrap(), Value::Int(5));
}

#[test]
fn acl_only_lists_work_end_to_end() {
    let mut gen = ids(9);
    let mut obj = subject(&mut gen);
    let me = obj.id();
    let alice = gen.next_id();
    let bob = gen.next_id();
    obj.add_method(
        me,
        "club",
        Method::new(MethodBody::script("return \"in\";").unwrap())
            .with_invoke_acl(Acl::only([alice])),
    )
    .unwrap();
    let mut world = NoWorld;
    assert_eq!(
        invoke(&mut obj, &mut world, alice, "club", &[]).unwrap(),
        Value::from("in")
    );
    assert!(matches!(
        invoke(&mut obj, &mut world, bob, "club", &[]),
        Err(MromError::AccessDenied { .. })
    ));
}
