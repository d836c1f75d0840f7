//! Cross-crate integration: an object's full life — creation, mutation,
//! wrapping, migration over the simulated network, persistence, recovery —
//! exercised through the public facade.

use mrom::core::{
    invoke, Acl, AdmissionPolicy, ClassSpec, DataItem, InvokeLimits, Method, MethodBody, MromError,
    MromObject, NoWorld, Runtime,
};
use mrom::net::{LinkConfig, NetworkConfig, SimNet};
use mrom::persist::{BlobStore, Depot, FileStore, MemStore};
use mrom::value::{NodeId, ObjectId, Value};

fn agent_class() -> ClassSpec {
    ClassSpec::new("agent")
        .fixed_data("name", DataItem::public(Value::from("scout")))
        .fixed_method(
            "report",
            Method::public(
                MethodBody::script(
                    "return self.get(\"name\") + \" at hop \" + str(self.get(\"hops\"));",
                )
                .unwrap(),
            ),
        )
        .ext_data("hops", DataItem::public(Value::Int(0)))
        .ext_method(
            "hop",
            Method::public(
                MethodBody::script(
                    "self.set(\"hops\", self.get(\"hops\") + 1); return self.get(\"hops\");",
                )
                .unwrap(),
            ),
        )
}

/// An agent hops across three runtimes over the simulated network,
/// mutating itself along the way; every mutation survives every hop.
#[test]
fn agent_roams_three_nodes_via_the_network() {
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let mut runtimes: Vec<Runtime> = nodes.iter().map(|&n| Runtime::new(n)).collect();
    let mut net = SimNet::new(NetworkConfig::new(99).with_default_link(LinkConfig::lan()));
    for &n in &nodes {
        net.add_node(n).unwrap();
    }

    // Born at node 1.
    let agent = agent_class().instantiate_as(runtimes[0].ids_mut().next_id(), None);
    let agent_id = agent.id();
    runtimes[0].adopt(agent).unwrap();

    for i in 0..nodes.len() - 1 {
        // Run it a bit, then let it extend itself with a souvenir of the
        // current node.
        runtimes[i].invoke_as_system(agent_id, "hop", &[]).unwrap();
        let node_num = nodes[i].0 as i64;
        runtimes[i]
            .invoke(
                agent_id,
                agent_id,
                "addDataItem",
                &[
                    Value::Str(format!("souvenir_{node_num}")),
                    Value::Int(node_num),
                ],
            )
            .unwrap();

        // Evict, self-serialize, ship, unpack, adopt.
        let obj = runtimes[i].evict(agent_id).unwrap();
        let image = obj.migration_image(agent_id).unwrap();
        net.send(nodes[i], nodes[i + 1], image).unwrap();
        let delivery = net.step().expect("image in flight");
        assert_eq!(delivery.dst, nodes[i + 1]);
        let unpacked =
            MromObject::from_image_with_policy(&delivery.payload, AdmissionPolicy::Off).unwrap();
        runtimes[i + 1].adopt(unpacked).unwrap();
    }

    // At the final node: state + structure accumulated along the route.
    let final_rt = &mut runtimes[2];
    assert_eq!(
        final_rt.invoke_as_system(agent_id, "hop", &[]).unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        final_rt.invoke_as_system(agent_id, "report", &[]).unwrap(),
        Value::from("scout at hop 3")
    );
    let obj = final_rt.object(agent_id).unwrap();
    // Self-added items default to origin-private: readable by the agent
    // itself, invisible to the host.
    assert_eq!(
        obj.read_data(agent_id, "souvenir_1").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        obj.read_data(agent_id, "souvenir_2").unwrap(),
        Value::Int(2)
    );
    assert!(obj.read_data(ObjectId::SYSTEM, "souvenir_1").is_err());
    // Exactly the image bytes crossed the network.
    assert_eq!(net.stats().messages_delivered, 2);
}

/// The persistence story end to end with the file backend: save, crash
/// (drop), recover, resume — including a corrupted-sibling quarantine.
#[test]
fn file_persistence_survives_restart_and_corruption() {
    let dir = std::env::temp_dir().join(format!("mrom-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("objects.log");

    let mut rt = Runtime::new(NodeId(7));
    rt.classes_mut().register(agent_class()).unwrap();
    let a = rt.create("agent").unwrap();
    let b = rt.create("agent").unwrap();
    rt.invoke_as_system(a, "hop", &[]).unwrap();
    rt.invoke_as_system(a, "hop", &[]).unwrap();
    rt.invoke_as_system(b, "hop", &[]).unwrap();

    {
        let mut depot = Depot::new(FileStore::open(&log).unwrap());
        depot.save(&rt.object(a).unwrap()).unwrap();
        depot.save(&rt.object(b).unwrap()).unwrap();
        // Object a hops once more; re-save (log-structured replace).
        rt.invoke_as_system(a, "hop", &[]).unwrap();
        depot.save(&rt.object(a).unwrap()).unwrap();
    } // "crash": depot dropped, file closed

    // Restart: bootstrap everything back.
    let depot = Depot::new(FileStore::open(&log).unwrap());
    let (objs, failed) = depot.restore_all();
    assert_eq!(objs.len(), 2);
    assert!(failed.is_empty());
    let rt2 = Runtime::new(NodeId(7));
    for obj in objs {
        rt2.adopt(obj).unwrap();
    }
    assert_eq!(rt2.invoke_as_system(a, "hop", &[]).unwrap(), Value::Int(4));
    assert_eq!(rt2.invoke_as_system(b, "hop", &[]).unwrap(), Value::Int(2));

    // Corrupt b's stored image on disk; a must still recover.
    let mut store = depot.into_inner();
    let key = b.to_string();
    let mut raw = store.get(&key).unwrap().unwrap();
    raw[20] ^= 0xFF;
    store.put(&key, &raw).unwrap(); // write damaged bytes back
                                    // Damage the *decoded image*, not the record: the record CRC is now
                                    // valid for the damaged bytes, so corruption is caught at image level.
    let depot = Depot::new(store);
    let (objs, failed) = depot.restore_all();
    assert_eq!(objs.len() + failed.len(), 2);
    assert!(
        objs.iter().any(|o| o.id() == a),
        "the healthy object always recovers"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Security end to end: a hostile host runtime tries everything against a
/// visiting mobile object and gets nothing the ACLs do not grant.
#[test]
fn hostile_host_cannot_break_a_visiting_object() {
    let mut home = Runtime::new(NodeId(1));
    let mut hostile = Runtime::new(NodeId(666));

    let mut obj = agent_class().instantiate_as(home.ids_mut().next_id(), None);
    let me = obj.id();
    obj.add_data(me, "secret_plan", Value::from("classified"))
        .unwrap();
    // Lock meta-mutation completely before travelling.
    obj.set_meta_acl(me, Acl::Nobody).unwrap();
    let image = obj.migration_image(me); // Nobody blocks even the origin now
    assert!(matches!(image, Err(MromError::AccessDenied { .. })));

    // Rebuild with a travel-safe policy: meta stays origin-only.
    let mut obj = agent_class().instantiate_as(home.ids_mut().next_id(), None);
    let me = obj.id();
    obj.add_data(me, "secret_plan", Value::from("classified"))
        .unwrap();
    let image = obj.migration_image(me).unwrap();

    // The hostile node unpacks the visitor.
    let visitor = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off).unwrap();
    let visitor_id = hostile.adopt(visitor).unwrap();
    let host_admin = hostile.ids_mut().next_id();

    // Public interface works.
    assert_eq!(
        hostile
            .invoke(host_admin, visitor_id, "report", &[])
            .unwrap(),
        Value::from("scout at hop 0")
    );
    // Secrets stay secret; structure stays intact; the body stays hidden.
    {
        let obj_ref = hostile.object(visitor_id).unwrap();
        assert!(obj_ref.read_data(host_admin, "secret_plan").is_err());
        assert!(!obj_ref
            .list_data(host_admin)
            .iter()
            .any(|(n, _)| n == "secret_plan"));
        let desc = obj_ref.method_descriptor(host_admin, "report").unwrap();
        assert!(desc.as_map().unwrap()["body"].is_null());
    }
    assert!(hostile
        .invoke(
            host_admin,
            visitor_id,
            "deleteMethod",
            &[Value::from("report")]
        )
        .is_err());
    assert!(hostile
        .invoke(
            host_admin,
            visitor_id,
            "addMethod",
            &[Value::from("backdoor"), Value::from("return 0;")]
        )
        .is_err());
    // Re-exporting the guest (stealing it with its bodies) is denied too.
    assert!(hostile
        .object(visitor_id)
        .unwrap()
        .migration_image(host_admin)
        .is_err());
}

/// Hostile mobile code cannot hold a host hostage: fuel, call depth, and
/// tower bounds all fire.
#[test]
fn resource_bombs_are_contained() {
    let mut rt = Runtime::new(NodeId(13));
    rt.set_limits(InvokeLimits {
        fuel: 200_000,
        ..InvokeLimits::default()
    });
    rt.classes_mut()
        .register(
            ClassSpec::new("bomb")
                .fixed_method(
                    "spin",
                    Method::public(MethodBody::script("while (true) { let x = 1; }").unwrap()),
                )
                .fixed_method(
                    "recurse",
                    Method::public(
                        MethodBody::script("return self.invoke(\"recurse\", []);").unwrap(),
                    ),
                )
                .fixed_method(
                    "alloc",
                    Method::public(MethodBody::script("return range(99999999);").unwrap()),
                ),
        )
        .unwrap();
    let bomb = rt.create("bomb").unwrap();
    for method in ["spin", "recurse", "alloc"] {
        let before = std::time::Instant::now();
        let err = rt.invoke_as_system(bomb, method, &[]).unwrap_err();
        assert!(
            before.elapsed().as_secs() < 5,
            "{method} must die quickly, took {:?}",
            before.elapsed()
        );
        assert!(
            matches!(err, MromError::Script(_) | MromError::CallDepthExceeded(_)),
            "{method}: {err}"
        );
    }
    // The host is intact and the object still answers.
    assert_eq!(rt.object_count(), 1);
}

/// The invocation tower composes with migration, persistence, and both
/// directions of ACL checking — the full Figure 1 + §5 semantics in one
/// scenario.
#[test]
fn towered_object_survives_full_round_trip() {
    let mut rt = Runtime::new(NodeId(4));
    let mut obj = agent_class().instantiate_as(rt.ids_mut().next_id(), None);
    let me = obj.id();
    // An audit level that counts invocations.
    obj.add_data(me, "audit_count", Value::Int(0)).unwrap();
    obj.add_method(
        me,
        "audit",
        Method::public(
            MethodBody::script(
                r#"
            param m;
            param a;
            self.set("audit_count", self.get("audit_count") + 1);
            return self.invoke(m, a);
            "#,
            )
            .unwrap(),
        ),
    )
    .unwrap();
    obj.install_meta_invoke(me, "audit").unwrap();

    // Exercise, persist, restore, exercise again.
    let mut world = NoWorld;
    let caller = rt.ids_mut().next_id();
    invoke(&mut obj, &mut world, caller, "hop", &[]).unwrap();
    invoke(&mut obj, &mut world, caller, "report", &[]).unwrap();
    assert_eq!(obj.read_data(me, "audit_count").unwrap(), Value::Int(2));

    let mut depot = Depot::new(MemStore::new());
    depot.save(&obj).unwrap();
    let mut back = depot.restore(me).unwrap();
    assert_eq!(back.tower(), [std::sync::Arc::<str>::from("audit")]);
    invoke(&mut back, &mut world, caller, "hop", &[]).unwrap();
    assert_eq!(back.read_data(me, "audit_count").unwrap(), Value::Int(3));
    assert_eq!(
        invoke(
            &mut back,
            &mut world,
            caller,
            "getDataItem",
            &[Value::from("hops")]
        )
        .unwrap()
        .as_map()
        .unwrap()["value"],
        Value::Int(2)
    );
    // getDataItem itself went through the tower.
    assert_eq!(back.read_data(me, "audit_count").unwrap(), Value::Int(4));
}

/// Node-level checkpoint/restore: every mobile object a runtime hosts is
/// persisted in one call; native-bodied objects are reported, not lost.
#[test]
fn runtime_checkpoint_and_restore() {
    let mut rt = Runtime::new(NodeId(31));
    rt.classes_mut().register(agent_class()).unwrap();
    let a = rt.create("agent").unwrap();
    let b = rt.create("agent").unwrap();
    rt.invoke_as_system(a, "hop", &[]).unwrap();
    // One object with a native body: it cannot checkpoint.
    let pinned_obj = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .fixed_method(
            "native",
            Method::new(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .build();
    let pinned_id = rt.adopt(pinned_obj).unwrap();

    let mut depot = Depot::new(MemStore::new());
    let objects: Vec<_> = rt
        .object_ids()
        .into_iter()
        .filter_map(|id| rt.object(id).map(|o| o.clone()))
        .collect();
    let (saved, pinned) = depot.checkpoint(objects.iter()).unwrap();
    assert_eq!(saved, 2);
    assert_eq!(pinned, vec![pinned_id]);

    // Cold restart.
    let (restored, failed) = depot.restore_all();
    assert!(failed.is_empty());
    let rt2 = Runtime::new(NodeId(31));
    for obj in restored {
        rt2.adopt(obj).unwrap();
    }
    assert_eq!(rt2.object_count(), 2);
    assert_eq!(rt2.invoke_as_system(a, "hop", &[]).unwrap(), Value::Int(2));
    assert_eq!(rt2.invoke_as_system(b, "hop", &[]).unwrap(), Value::Int(1));
}
