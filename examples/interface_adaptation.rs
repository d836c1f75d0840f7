//! Interface adaptation — the §1 motivation for mutability: "Mutability is
//! necessary to enable objects to *adjust* to the new context under which
//! they are intended to operate ... particularly important when the object
//! may execute in different hosting environments, and/or when some
//! negotiation is needed in order to create the initial interaction."
//!
//! Three hosts expect three different calling conventions. One mobile
//! worker object visits each, interrogates the host's published contract
//! (self-representation on the host side), and *grows an adapter method*
//! matching that contract (mutability on its own side) — no recompilation,
//! no prior agreement, no common interface definition.
//!
//! Run with: `cargo run --example interface_adaptation`

use mrom::core::{
    invoke, Acl, AdmissionPolicy, DataItem, Method, MethodBody, MromObject, NoWorld, ObjectBuilder,
    Runtime,
};
use mrom::value::{NodeId, Value};

/// Builds one of the three host environments, each publishing a different
/// contract for the plugin slot: the method name it will call and the
/// argument shape it passes.
fn make_host(node: u64, contract_method: &str, arg_style: &str) -> Runtime {
    let mut rt = Runtime::new(NodeId(node));
    let contract = Value::map([
        ("plugin_method", Value::from(contract_method)),
        ("arg_style", Value::from(arg_style)),
    ]);
    let host_obj = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("host-environment")
        .fixed_data("plugin_contract", DataItem::public(contract))
        .build();
    rt.adopt(host_obj).unwrap();
    rt
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The worker's stable core: a `summarize` capability with a fixed
    // calling convention of its own (one list argument).
    let mut scratch_ids = mrom::value::IdGenerator::new(NodeId(99));
    let worker = ObjectBuilder::new(scratch_ids.next_id())
        .class("word-counter")
        .meta_acl(Acl::Public) // it must reshape itself in foreign hosts
        .fixed_method(
            "summarize",
            Method::public(MethodBody::script(
                r#"
                param texts;
                let words = 0;
                for (t in texts) {
                    words = words + len(split(trim(t), " "));
                }
                return {"documents": len(texts), "words": words};
                "#,
            )?),
        )
        // The negotiation logic is itself part of the worker: given a host
        // contract, grow whatever adapter the host expects.
        .fixed_method(
            "adapt_to",
            Method::public(MethodBody::script(
                r#"
                param contract;
                let wanted = contract["plugin_method"];
                let style = contract["arg_style"];
                if (self.has_method(wanted)) {
                    return "already adapted";
                }
                let body = "";
                if (style == "single-text") {
                    # Host passes one string; wrap it in a list.
                    body = "param text; return self.invoke(\"summarize\", [[text]]);";
                }
                if (style == "list-of-texts") {
                    # Host already passes a list; forward as-is.
                    body = "param texts; return self.invoke(\"summarize\", [texts]);";
                }
                if (style == "batch-map") {
                    # Host passes {"batch": [...]}.
                    body = "param req; return self.invoke(\"summarize\", [req[\"batch\"]]);";
                }
                if (body == "") {
                    fail("cannot satisfy contract style: " + style);
                }
                self.add_method(wanted, {"body": body, "invoke_acl": "public"});
                return "grew " + wanted + " for style " + style;
                "#,
            )?),
        )
        .build();
    let worker_id = worker.id();
    let image = worker.migration_image(worker_id)?;
    println!("worker object built; core interface: summarize(texts)\n");

    let hosts: Vec<(Runtime, &str, Value)> = vec![
        (
            make_host(1, "process", "single-text"),
            "process",
            Value::from("the quick brown fox"),
        ),
        (
            make_host(2, "handle_documents", "list-of-texts"),
            "handle_documents",
            Value::list([Value::from("one two"), Value::from("three four five")]),
        ),
        (
            make_host(3, "run_batch", "batch-map"),
            "run_batch",
            Value::map([(
                "batch",
                Value::list([Value::from("a b c"), Value::from("d")]),
            )]),
        ),
    ];

    for (rt, call_as, payload) in hosts {
        let node = rt.node();
        // The worker arrives as data and is adopted.
        let visitor = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off)?;
        rt.adopt(visitor)?;
        // Negotiation: the host hands its contract to the newcomer.
        let host_obj_id = rt
            .object_ids()
            .into_iter()
            .find(|&id| {
                rt.object(id)
                    .is_some_and(|o| o.class_name() == "host-environment")
            })
            .expect("host object exists");
        let contract = rt
            .object(host_obj_id)
            .unwrap()
            .read_data(host_obj_id, "plugin_contract")?;
        let verdict = rt.invoke(host_obj_id, worker_id, "adapt_to", &[contract])?;
        println!("host {node}: negotiation -> {verdict}");
        // The host now calls the worker in its own dialect.
        let result = rt.invoke(host_obj_id, worker_id, call_as, &[payload])?;
        println!("host {node}: {call_as}(...) -> {result}");
        // The worker's core was never touched.
        let mut check = rt.evict(worker_id)?;
        let mut world = NoWorld;
        assert!(invoke(
            &mut check,
            &mut world,
            worker_id,
            "summarize",
            &[Value::list([Value::from("still intact")])]
        )
        .is_ok());
        println!("host {node}: fixed core intact\n");
    }

    // A host with an unsupported convention is refused cleanly.
    let rt = make_host(4, "execute", "xml-envelope");
    let visitor = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off)?;
    rt.adopt(visitor)?;
    let host_obj_id = rt.object_ids()[0];
    let contract = Value::map([
        ("plugin_method", Value::from("execute")),
        ("arg_style", Value::from("xml-envelope")),
    ]);
    let refusal = rt.invoke(host_obj_id, worker_id, "adapt_to", &[contract]);
    println!("host n4: unsupported contract -> {}", refusal.unwrap_err());

    Ok(())
}
