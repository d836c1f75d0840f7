//! The seeded defect corpus: one test per diagnostic kind, plus policy
//! enforcement at every trust boundary (`from_image`, `add_method`,
//! `set_method`).
//!
//! Every boundary names its policy explicitly: there is no process-wide
//! default, so these tests share no state and run in parallel.

use mrom_core::{
    invoke_with_limits, Acl, AdmissionPolicy, DataItem, DiagnosticKind, InvokeLimits, Method,
    MethodBody, MromError, MromObject, NoWorld, ObjectBuilder, Severity,
};
use mrom_value::{IdGenerator, NodeId, Value};

fn ids() -> IdGenerator {
    IdGenerator::new(NodeId(21))
}

/// A well-formed mobile object: one data item, one clean method.
fn clean_object(gen: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(gen.next_id())
        .class("specimen")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script("self.set(\"count\", self.get(\"count\") + 1); return true;")
                    .unwrap(),
            ),
        )
        .build()
}

fn script_method(src: &str) -> Method {
    Method::public(MethodBody::script(src).unwrap())
}

fn kinds(diags: &[mrom_core::Diagnostic]) -> Vec<DiagnosticKind> {
    diags.iter().map(|d| d.kind).collect()
}

// --- the seeded defect corpus: one test per diagnostic kind ---------------

#[test]
fn corpus_undefined_variable() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("return ghost;"))
        .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UndefinedVariable));
}

#[test]
fn corpus_use_before_assign() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("if (true) { let x = 1; } return x;"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UseBeforeAssign));
}

#[test]
fn corpus_unused_param() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("param spare; return 1;"))
        .unwrap();
    let diags = obj.analyze();
    assert!(kinds(&diags).contains(&DiagnosticKind::UnusedParam));
    // A warning, not an error: strict admission would still accept.
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn corpus_dangling_data_item() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("return self.get(\"absent\");"))
        .unwrap();
    let diags = obj.analyze();
    assert!(kinds(&diags).contains(&DiagnosticKind::DanglingDataItem));
    assert!(diags[0].path.starts_with("bad.body"));
}

#[test]
fn corpus_dangling_method_call() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.invoke(\"vanished\", []);"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::DanglingMethodCall));
}

#[test]
fn corpus_unknown_meta_method() {
    let mut gen = ids();
    // Built WITHOUT the bundled meta-methods: reflective names cannot
    // resolve through `self.invoke`.
    let mut obj = ObjectBuilder::new(gen.next_id())
        .class("bare")
        .without_meta_methods()
        .build();
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.invoke(\"getDataItem\", [\"x\"]);"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UnknownMetaMethod));
}

#[test]
fn corpus_acl_unsatisfiable() {
    let mut gen = ids();
    let mut obj = ObjectBuilder::new(gen.next_id())
        .class("sealed")
        .fixed_data(
            "secret",
            DataItem::public(Value::Int(1)).with_read_acl(Acl::Nobody),
        )
        .fixed_method(
            "locked",
            Method::new(MethodBody::script("return 1;").unwrap()).with_invoke_acl(Acl::Nobody),
        )
        .build();
    let me = obj.id();
    // Nobody-gated data read and Nobody-gated invocation: both statically
    // dead for every principal, the object itself included.
    obj.add_method(
        me,
        "bad",
        script_method("self.invoke(\"locked\", []); return self.get(\"secret\");"),
    )
    .unwrap();
    let diags = obj.analyze();
    let n = kinds(&diags)
        .iter()
        .filter(|k| **k == DiagnosticKind::AclUnsatisfiable)
        .count();
    assert_eq!(n, 2, "{diags:?}");
}

#[test]
fn corpus_acl_unsatisfiable_meta_mutation() {
    let mut gen = ids();
    // meta_acl Nobody: structural self-mutation can never be permitted.
    let obj = ObjectBuilder::new(gen.next_id())
        .class("frozen")
        .meta_acl(Acl::Nobody)
        .fixed_method(
            "grow",
            script_method("self.add_method(\"extra\", \"return 1;\"); return true;"),
        )
        .build();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::AclUnsatisfiable));
}

#[test]
fn corpus_node_and_depth_budget() {
    use mrom_core::ResourceBudget;
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "chunky",
        script_method("return 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8;"),
    )
    .unwrap();
    let tight = ResourceBudget {
        max_nodes: 4,
        max_depth: 3,
        max_static_fuel: Some(2),
    };
    let ks = kinds(&obj.analyze_with_budget(&tight));
    assert!(ks.contains(&DiagnosticKind::NodeBudget));
    assert!(ks.contains(&DiagnosticKind::DepthBudget));
    assert!(ks.contains(&DiagnosticKind::FuelBudget));
}

// --- policy enforcement at trust boundaries -------------------------------

/// A migration image whose `bad` method reads a data item that never
/// travelled with the object.
fn crafted_bad_image(gen: &mut IdGenerator) -> Vec<u8> {
    let mut obj = clean_object(gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.get(\"left_behind\");"),
    )
    .unwrap();
    obj.migration_image(me).unwrap()
}

#[test]
fn strict_rejects_a_crafted_image_at_from_image() {
    let mut gen = ids();
    let image = crafted_bad_image(&mut gen);
    let err = MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).unwrap_err();
    match err {
        MromError::AdmissionRejected {
            context,
            diagnostics,
            ..
        } => {
            assert_eq!(context, "from_image");
            assert!(diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::DanglingDataItem));
        }
        other => panic!("expected AdmissionRejected, got {other}"),
    }
}

#[test]
fn off_and_warn_admit_the_same_crafted_image() {
    let mut gen = ids();
    let image = crafted_bad_image(&mut gen);
    let off = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off).unwrap();
    let warn = MromObject::from_image_with_policy(&image, AdmissionPolicy::Warn).unwrap();
    assert_eq!(off, warn);
    // And the default entry point (policy Off) is byte-for-byte identical:
    // the admitted object re-serializes to the same image.
    let again = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off).unwrap();
    assert_eq!(again, off);
    assert_eq!(again.migration_image(again.id()).unwrap(), image);
}

#[test]
fn strict_accepts_a_clean_image() {
    let mut gen = ids();
    let obj = clean_object(&mut gen);
    let image = obj.migration_image(obj.id()).unwrap();
    let back = MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).unwrap();
    assert_eq!(back, obj);
}

#[test]
fn warnings_never_block_strict_admission() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "lazy", script_method("param spare; return 1;"))
        .unwrap();
    let image = obj.migration_image(me).unwrap();
    assert!(MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).is_ok());
}

#[test]
fn strict_gates_add_method() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    let strict = AdmissionPolicy::Strict;
    // Clean methods still install.
    obj.add_method_with_policy(
        me,
        "ok",
        script_method("return self.get(\"count\");"),
        strict,
    )
    .unwrap();
    // Defective ones are rejected before touching the object.
    let err = obj
        .add_method_with_policy(
            me,
            "bad",
            script_method("return self.get(\"absent\");"),
            strict,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        MromError::AdmissionRejected { ref context, .. } if context == "add_method"
    ));
    assert!(obj.find_method("bad").is_none());
    // The host-side entry point stays unchecked.
    obj.add_method(me, "bad", script_method("return self.get(\"absent\");"))
        .unwrap();
}

#[test]
fn strict_gates_set_method() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "mut", script_method("return 1;"))
        .unwrap();
    // Swapping in a defective body is rejected; the old body stays.
    let bad_body = Value::map([("body", Value::from("return self.get(\"absent\");"))]);
    let err = obj
        .set_method_with_policy(me, "mut", &bad_body, AdmissionPolicy::Strict)
        .unwrap_err();
    assert!(matches!(
        err,
        MromError::AdmissionRejected { ref context, .. } if context == "set_method"
    ));
    assert_eq!(
        mrom_core::invoke(&mut obj, &mut NoWorld, me, "mut", &[]).unwrap(),
        Value::Int(1)
    );
}

#[test]
fn acl_then_duplicate_then_admission() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    let stranger = gen.next_id();
    let strict = AdmissionPolicy::Strict;
    let bad = || script_method("return self.get(\"absent\");");
    // A foreign principal is refused before the duplicate name is seen...
    let err = obj
        .add_method_with_policy(stranger, "bump", bad(), strict)
        .unwrap_err();
    assert!(matches!(err, MromError::AccessDenied { .. }), "{err}");
    // ...and a duplicate before its body is analyzed.
    let err = obj
        .add_method_with_policy(me, "bump", bad(), strict)
        .unwrap_err();
    assert!(matches!(err, MromError::DuplicateItem { .. }), "{err}");

    // setMethod: a rename onto an existing name is a duplicate even when
    // the new body would also fail admission.
    obj.add_method(me, "a", script_method("return 1;")).unwrap();
    obj.add_method(me, "b", script_method("return 2;")).unwrap();
    let rename_bad = Value::map([
        ("body", Value::from("return self.get(\"absent\");")),
        ("rename", Value::from("b")),
    ]);
    let err = obj
        .set_method_with_policy(me, "a", &rename_bad, strict)
        .unwrap_err();
    assert!(matches!(err, MromError::DuplicateItem { .. }), "{err}");
    let err = obj
        .set_method_with_policy(stranger, "a", &rename_bad, strict)
        .unwrap_err();
    assert!(matches!(err, MromError::AccessDenied { .. }), "{err}");
}

#[test]
fn meta_ops_through_invoke_answer_to_the_node_policy() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "grow",
        script_method("self.add_method(\"leak\", \"return self.get(\\\"absent\\\");\"); return 1;"),
    )
    .unwrap();
    let strict = InvokeLimits {
        admission: AdmissionPolicy::Strict,
        ..InvokeLimits::default()
    };
    let mut refused = obj.clone();
    let err = invoke_with_limits(&mut refused, &mut NoWorld, me, "grow", &[], &strict).unwrap_err();
    assert!(format!("{err}").contains("admission"), "{err}");
    assert!(refused.find_method("leak").is_none());
    // The default node configuration admits the same body unchecked.
    invoke_with_limits(
        &mut obj,
        &mut NoWorld,
        me,
        "grow",
        &[],
        &InvokeLimits::default(),
    )
    .unwrap();
    assert!(obj.find_method("leak").is_some());
}

#[test]
fn candidate_methods_may_recurse() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // The candidate references itself through self.invoke: its own name
    // counts as present during admission.
    obj.add_method_with_policy(
        me,
        "countdown",
        script_method(
            "param n; if (n <= 0) { return 0; } return self.invoke(\"countdown\", [n - 1]);",
        ),
        AdmissionPolicy::Strict,
    )
    .unwrap();
}

#[test]
fn analyze_is_clean_on_well_formed_objects() {
    let mut gen = ids();
    let obj = clean_object(&mut gen);
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}

#[test]
fn pre_and_post_procedures_are_analyzed_too() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    let m = script_method("return 1;")
        .with_pre(MethodBody::script("return self.get(\"missing_gate\");").unwrap());
    obj.add_method(me, "guarded", m).unwrap();
    let diags = obj.analyze();
    assert!(diags.iter().any(|d| d.path.starts_with("guarded.pre")));
}

#[test]
fn bodies_that_create_their_data_are_admissible() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // add_data_item then get: the created name satisfies the read.
    obj.add_method(
        me,
        "selfmade",
        script_method("self.add_data_item(\"scratch\", 0); return self.get(\"scratch\");"),
    )
    .unwrap();
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}

#[test]
fn world_calls_are_not_flagged() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // Unknown self.* names route to the world hook: an environment
    // capability, not a structural defect.
    obj.add_method(
        me,
        "worldly",
        script_method("return self.send_mail(\"hi\");"),
    )
    .unwrap();
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}
