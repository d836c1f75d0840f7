//! Prints the full experiment report (E1-E10, E15-E17): one table per
//! experiment,
//! mixing measured wall-clock costs (quick non-criterion timing) with the
//! simulator's deterministic virtual-time results. `EXPERIMENTS.md`
//! records a run of this binary next to the paper's qualitative claims.
//!
//! Run with: `cargo run -p mrom-bench --bin tables --release`

use hadas::scenarios::{deploy_employee_db, push_maintenance_notice, star_federation};
use hadas::{AmbassadorSpec, Federation, UpdateOp};
use mrom_baselines::{capability_matrix, StaticCounter};
use mrom_bench::*;
use mrom_core::{invoke, DataItem, Method, MethodBody, NoWorld, ObjectBuilder};
use mrom_net::{LinkConfig, NetworkConfig, SimTime};
use mrom_persist::{Depot, FileStore, MemStore};
use mrom_script::{Evaluator, NullHost, Program, Vm};
use mrom_value::{NodeId, Value};

const QUICK: u64 = 20_000;
const SLOW: u64 = 200;

fn header(id: &str, title: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id} — {title}");
    println!("paper: {claim}");
    println!("----------------------------------------------------------------");
}

fn row(label: &str, value: String) {
    println!("  {label:<44} {value:>14}");
}

fn e1_tower() {
    header(
        "E1",
        "two-level invocation (Figure 1)",
        "meta_invoke receives the target method as data; levels stack; level 0 is the floor",
    );
    let args = [Value::Int(20), Value::Int(22)];
    for levels in [0usize, 1, 2, 4] {
        let mut ids = bench_ids();
        let mut obj = script_counter(&mut ids);
        let me = obj.id();
        for i in 0..levels {
            let name = format!("meta_invoke_{i}");
            obj.add_method(
                me,
                &name,
                Method::public(
                    MethodBody::script("param m; param a; return self.invoke(m, a);").unwrap(),
                ),
            )
            .unwrap();
            obj.install_meta_invoke(me, &name).unwrap();
        }
        let caller = ids.next_id();
        let mut world = NoWorld;
        let ns = time_ns(QUICK, || {
            invoke(&mut obj, &mut world, caller, "add", &args).unwrap();
        });
        row(
            &format!("invoke add() through {levels} meta level(s)"),
            fmt_ns(ns),
        );
    }
    let mut ids = bench_ids();
    let mut obj = script_counter(&mut ids);
    let caller = ids.next_id();
    let mut world = NoWorld;
    let meta_args = [Value::from("add"), Value::list(args.to_vec())];
    let ns = time_ns(QUICK, || {
        invoke(&mut obj, &mut world, caller, "invoke", &meta_args).unwrap();
    });
    row("invoke via the `invoke` meta-method", fmt_ns(ns));
}

fn e2_lookup() {
    header(
        "E2",
        "the price of structural mutability",
        "mutable structures pay a lookup that static layouts resolve at compile time",
    );
    let statik = StaticCounter::new();
    let ns = time_ns(QUICK * 10, || {
        std::hint::black_box(statik.add(20, 22));
    });
    row("static Rust call (fixed offset)", fmt_ns(ns));
    let args = [Value::Int(20), Value::Int(22)];
    for n in [4usize, 64, 512, 4096] {
        for (label, ext) in [("fixed", false), ("ext", true)] {
            let mut ids = bench_ids();
            let mut obj = counter_among(&mut ids, n, ext);
            let caller = ids.next_id();
            let mut world = NoWorld;
            let ns = time_ns(QUICK, || {
                invoke(&mut obj, &mut world, caller, "m_add", &args).unwrap();
            });
            row(
                &format!("MROM native body, {label} section, {n} items"),
                fmt_ns(ns),
            );
        }
    }
    let mut ids = bench_ids();
    let mut obj = script_counter(&mut ids);
    let caller = ids.next_id();
    let mut world = NoWorld;
    let ns = time_ns(QUICK, || {
        invoke(&mut obj, &mut world, caller, "add", &args).unwrap();
    });
    row("MROM script body (mobile code)", fmt_ns(ns));
}

fn e3_wrapping() {
    header(
        "E3",
        "pre-/post-procedure wrapping (§3.1)",
        "wrapping attaches dynamically; false pre skips the body, false post raises",
    );
    let body = || {
        MethodBody::native(|_, args| {
            Ok(Value::Int(
                args.first().and_then(Value::as_int).unwrap_or(0) * 2,
            ))
        })
    };
    let yes = || MethodBody::native(|_, _| Ok(Value::Bool(true)));
    let cases: Vec<(&str, Method)> = vec![
        ("bare body", Method::public(body())),
        ("with native pre", Method::public(body()).with_pre(yes())),
        (
            "with native pre + post",
            Method::public(body()).with_pre(yes()).with_post(yes()),
        ),
        (
            "with script pre + post",
            Method::public(body())
                .with_pre(MethodBody::script("param x; return x > 0;").unwrap())
                .with_post(MethodBody::script("param r; param x; return r == x * 2;").unwrap()),
        ),
    ];
    let args = [Value::Int(21)];
    for (label, method) in cases {
        let mut ids = bench_ids();
        let mut obj = mrom_core::ObjectBuilder::new(ids.next_id())
            .fixed_method("m", method)
            .build();
        let caller = ids.next_id();
        let mut world = NoWorld;
        let ns = time_ns(QUICK, || {
            invoke(&mut obj, &mut world, caller, "m", &args).unwrap();
        });
        row(label, fmt_ns(ns));
    }
}

fn e4_acl() {
    header(
        "E4",
        "the Match phase: per-item ACL checks",
        "security == encapsulation, checked once per invocation at object granularity",
    );
    for size in [1usize, 16, 128, 1024] {
        let mut ids = bench_ids();
        let (mut obj, admitted, rejected) = acl_gated(&mut ids, size);
        let mut world = NoWorld;
        let ns = time_ns(QUICK, || {
            invoke(&mut obj, &mut world, admitted, "gated", &[]).unwrap();
        });
        row(&format!("granted, list of {size}"), fmt_ns(ns));
        let ns = time_ns(QUICK, || {
            invoke(&mut obj, &mut world, rejected, "gated", &[]).unwrap_err();
        });
        row(&format!("denied,  list of {size}"), fmt_ns(ns));
    }
}

fn e5_mutation() {
    header(
        "E5",
        "mutation throughput",
        "add/remove/replace of extensible items at runtime; fixed section immutable",
    );
    for population in [0usize, 64, 1024] {
        let mut ids = bench_ids();
        let mut obj = cargo_object(&mut ids, population, 8);
        let me = obj.id();
        let ns = time_ns(QUICK, || {
            obj.add_data(me, "probe", Value::Int(1)).unwrap();
            obj.delete_data(me, "probe").unwrap();
        });
        row(
            &format!("addDataItem+delete, {population} siblings"),
            fmt_ns(ns),
        );
    }
    let mut ids = bench_ids();
    let mut obj = script_counter(&mut ids);
    let me = obj.id();
    obj.add_method(
        me,
        "volatile",
        Method::public(MethodBody::script("return 1;").unwrap()),
    )
    .unwrap();
    let desc = Value::map([("body", Value::from("return 2;"))]);
    let ns = time_ns(QUICK / 4, || {
        obj.set_method(me, "volatile", &desc).unwrap();
    });
    row("setMethod (body replacement, incl. parse)", fmt_ns(ns));
    let ns = time_ns(QUICK, || {
        obj.write_data(me, "count", Value::Int(5)).unwrap();
    });
    row("ordinary set on a fixed data item", fmt_ns(ns));
    let ns = time_ns(QUICK, || {
        obj.delete_data(me, "count").unwrap_err();
    });
    row("fixed-section violation (error path)", fmt_ns(ns));
}

fn e6_federation() {
    header(
        "E6",
        "Figure 2 on the wire: Link and Import/Export",
        "Link installs an IOO Ambassador; Export verifies, instantiates, ships as data",
    );
    println!(
        "  {:<24} {:>12} {:>14} {:>12}",
        "operation", "image bytes", "virtual time", "wall"
    );
    // Link.
    let wall = time_ns(SLOW, || {
        let cfg = NetworkConfig::new(1).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        fed.add_site(NodeId(1)).unwrap();
        fed.add_site(NodeId(2)).unwrap();
        fed.link(NodeId(1), NodeId(2)).unwrap();
    });
    let cfg = NetworkConfig::new(1).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    fed.add_site(NodeId(1)).unwrap();
    fed.add_site(NodeId(2)).unwrap();
    fed.link(NodeId(1), NodeId(2)).unwrap();
    println!(
        "  {:<24} {:>12} {:>14} {:>12}",
        "link handshake",
        fed.net_stats().bytes_sent,
        fed.now().to_string(),
        fmt_ns(wall)
    );
    // Import at three cargo sizes over LAN and WAN.
    for profile in ["lan", "wan"] {
        for items in [0usize, 32, 256] {
            let link = if profile == "lan" {
                LinkConfig::lan()
            } else {
                LinkConfig::wan()
            };
            let cfg = NetworkConfig::new(2).with_default_link(link);
            let mut fed = Federation::new(cfg);
            fed.add_site(NodeId(1)).unwrap();
            fed.add_site(NodeId(2)).unwrap();
            let apo = cargo_object_as(
                fed.runtime_mut(NodeId(2)).unwrap().ids_mut().next_id(),
                items,
                64,
            );
            fed.integrate_apo(
                NodeId(2),
                "svc",
                apo,
                AmbassadorSpec::relay_only()
                    .with_methods(["ping"])
                    .with_data(cargo_names(items)),
            )
            .unwrap();
            fed.link(NodeId(1), NodeId(2)).unwrap();
            let t0 = fed.now();
            let bytes0 = fed.net_stats().bytes_sent;
            fed.import_apo(NodeId(1), NodeId(2), "svc").unwrap();
            println!(
                "  {:<24} {:>12} {:>14} {:>12}",
                format!("import {items} items/{profile}"),
                fed.net_stats().bytes_sent - bytes0,
                fed.now().saturating_sub(t0).to_string(),
                "-"
            );
        }
    }
}

fn e7_crossover() {
    header(
        "E7",
        "relay-per-call vs migrate-then-local (the mobile-code crossover)",
        "splitting functionality on the fly: moving code wins once calls amortize the move",
    );
    let winner_col = "winner";
    println!(
        "  {:<10} {:>6} {:>16} {:>16}  {winner_col}",
        "latency", "calls", "relay (virtual)", "migrate (virt.)"
    );
    for (label, latency_us) in [("2ms", 2_000u64), ("20ms", 20_000), ("200ms", 200_000)] {
        let mut crossover_seen = false;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let time_for = |migrate: bool| -> SimTime {
                let link = LinkConfig::new()
                    .latency_us(latency_us)
                    .bandwidth_bytes_per_sec(1_000_000);
                let cfg = NetworkConfig::new(3).with_default_link(link);
                let mut fed = Federation::new(cfg);
                fed.add_site(NodeId(1)).unwrap();
                fed.add_site(NodeId(2)).unwrap();
                fed.link(NodeId(1), NodeId(2)).unwrap();
                let apo = employee_db().instantiate_as(
                    fed.runtime_mut(NodeId(2)).unwrap().ids_mut().next_id(),
                    None,
                );
                fed.integrate_apo(NodeId(2), "db", apo, AmbassadorSpec::relay_only())
                    .unwrap();
                let amb = fed.import_apo(NodeId(1), NodeId(2), "db").unwrap();
                let client = fed.runtime_mut(NodeId(1)).unwrap().ids_mut().next_id();
                let t0 = fed.now();
                if migrate {
                    let apo_id = fed.apo_id(NodeId(2), "db").unwrap();
                    let employees = fed
                        .runtime(NodeId(2))
                        .unwrap()
                        .object(apo_id)
                        .unwrap()
                        .read_data(apo_id, "employees")
                        .unwrap();
                    fed.migrate_method(NodeId(2), "db", "salary_of").unwrap();
                    fed.push_update(
                        NodeId(2),
                        "db",
                        &[UpdateOp::AddData("employees".into(), employees)],
                    )
                    .unwrap();
                }
                for _ in 0..k {
                    fed.call_through_ambassador(
                        NodeId(1),
                        client,
                        amb,
                        "salary_of",
                        &[Value::from("alice")],
                    )
                    .unwrap();
                }
                fed.now().saturating_sub(t0)
            };
            let relay = time_for(false);
            let migrate = time_for(true);
            let winner = if migrate < relay { "migrate" } else { "relay" };
            if !crossover_seen && migrate < relay {
                crossover_seen = true;
            }
            println!(
                "  {:<10} {:>6} {:>16} {:>16}  {}",
                label,
                k,
                relay.to_string(),
                migrate.to_string(),
                winner
            );
        }
        let _ = crossover_seen;
        println!();
    }
}

/// E7 appendix: where the crossover falls as the link gets thinner. The
/// migrate strategy pays the ambassador-update bytes up front, so lower
/// bandwidth pushes the break-even call count up — the "low-bandwidth"
/// motivation of the introduction, quantified.
fn e7_bandwidth() {
    println!();
    println!(
        "  {:<14} {:>14} {:>22}",
        "bandwidth", "latency", "crossover (calls)"
    );
    for (label, bw) in [
        ("8 kB/s", 8_000u64),
        ("64 kB/s", 64_000),
        ("1 MB/s", 1_000_000),
    ] {
        let time_for = |migrate: bool, k: usize| -> SimTime {
            let link = LinkConfig::new()
                .latency_us(20_000)
                .bandwidth_bytes_per_sec(bw);
            let cfg = NetworkConfig::new(5).with_default_link(link);
            let mut fed = Federation::new(cfg);
            fed.add_site(NodeId(1)).unwrap();
            fed.add_site(NodeId(2)).unwrap();
            fed.link(NodeId(1), NodeId(2)).unwrap();
            let apo = employee_db().instantiate_as(
                fed.runtime_mut(NodeId(2)).unwrap().ids_mut().next_id(),
                None,
            );
            fed.integrate_apo(NodeId(2), "db", apo, AmbassadorSpec::relay_only())
                .unwrap();
            let amb = fed.import_apo(NodeId(1), NodeId(2), "db").unwrap();
            let client = fed.runtime_mut(NodeId(1)).unwrap().ids_mut().next_id();
            let t0 = fed.now();
            if migrate {
                let apo_id = fed.apo_id(NodeId(2), "db").unwrap();
                let employees = fed
                    .runtime(NodeId(2))
                    .unwrap()
                    .object(apo_id)
                    .unwrap()
                    .read_data(apo_id, "employees")
                    .unwrap();
                fed.migrate_method(NodeId(2), "db", "salary_of").unwrap();
                fed.push_update(
                    NodeId(2),
                    "db",
                    &[UpdateOp::AddData("employees".into(), employees)],
                )
                .unwrap();
            }
            for _ in 0..k {
                fed.call_through_ambassador(
                    NodeId(1),
                    client,
                    amb,
                    "salary_of",
                    &[Value::from("alice")],
                )
                .unwrap();
            }
            fed.now().saturating_sub(t0)
        };
        let crossover = (1..=64)
            .find(|&k| time_for(true, k) < time_for(false, k))
            .map_or_else(|| ">64".to_owned(), |k| k.to_string());
        println!("  {:<14} {:>14} {:>22}", label, "20ms", crossover);
    }
}

fn e8_models() {
    header(
        "E8",
        "object models compared (§2)",
        "DII/COM/introspection offer lookup without mutable semantics; MROM offers both",
    );
    println!("  capability matrix (✓ = supported):");
    println!(
        "  {:<30} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "model", "introsp", "struct", "behav", "invoke", "sec", "mobile"
    );
    for (name, caps) in capability_matrix() {
        let tick = |b: bool| if b { "✓" } else { "-" };
        println!(
            "  {:<30} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            name,
            tick(caps.introspect_structure),
            tick(caps.mutate_structure),
            tick(caps.mutate_behaviour),
            tick(caps.mutate_invocation),
            tick(caps.security_in_model),
            tick(caps.mobile),
        );
    }
    println!("\n  dynamic call cost, add(20, 22):");
    let args = [Value::Int(20), Value::Int(22)];
    let statik = StaticCounter::new();
    row(
        "static Rust",
        fmt_ns(time_ns(QUICK * 10, || {
            std::hint::black_box(statik.add(20, 22));
        })),
    );
    let class = mrom_baselines::introspect::counter_class();
    let mut obj = class.instantiate();
    row(
        "introspection (Java-like)",
        fmt_ns(time_ns(QUICK, || {
            obj.invoke("add", &args).unwrap();
        })),
    );
    let (repo, servant) = mrom_baselines::dii::counter_setup();
    row(
        "DII: build request + invoke",
        fmt_ns(time_ns(QUICK, || {
            let req = mrom_baselines::dii::Request::build(&repo, "Counter", "add", &args).unwrap();
            servant.invoke(&req).unwrap();
        })),
    );
    let req = mrom_baselines::dii::Request::build(&repo, "Counter", "add", &args).unwrap();
    row(
        "DII: prebuilt request",
        fmt_ns(time_ns(QUICK, || {
            servant.invoke(&req).unwrap();
        })),
    );
    let mut com = mrom_baselines::com::counter_object();
    row(
        "COM: QueryInterface + call",
        fmt_ns(time_ns(QUICK, || {
            let iface = com.query_interface("ICounter").unwrap();
            let slot = iface.slot_index("add").unwrap();
            com.call(&iface, slot, &args).unwrap();
        })),
    );
    let iface = com.query_interface("ICounter").unwrap();
    let slot = iface.slot_index("add").unwrap();
    row(
        "COM: cached interface",
        fmt_ns(time_ns(QUICK, || {
            com.call(&iface, slot, &args).unwrap();
        })),
    );
    let mut ids = bench_ids();
    let mut world = NoWorld;
    let caller = ids.next_id();
    let mut native = native_counter(&mut ids);
    row(
        "MROM: native body",
        fmt_ns(time_ns(QUICK, || {
            invoke(&mut native, &mut world, caller, "add", &args).unwrap();
        })),
    );
    let mut script = script_counter(&mut ids);
    row(
        "MROM: script body (mobile)",
        fmt_ns(time_ns(QUICK, || {
            invoke(&mut script, &mut world, caller, "add", &args).unwrap();
        })),
    );
}

fn e9_dbshutdown() {
    header(
        "E9",
        "database maintenance (§5 example)",
        "the origin rewrites its Ambassadors' invocation semantics; clients never fail",
    );
    println!(
        "  {:<10} {:>16} {:>14} {:>18}",
        "spokes", "push (virtual)", "push bytes", "failed client calls"
    );
    for spokes in [1u64, 2, 4, 8] {
        let (mut fed, nodes) = star_federation(4, spokes + 1, LinkConfig::wan()).unwrap();
        let hub = nodes[0];
        let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
        let t0 = fed.now();
        let b0 = fed.net_stats().bytes_sent;
        push_maintenance_notice(&mut fed, hub).unwrap();
        let push_time = fed.now().saturating_sub(t0);
        let push_bytes = fed.net_stats().bytes_sent - b0;
        // Partition the hub away and hammer the ambassadors.
        for &s in &nodes[1..] {
            fed.net_config_mut().partition(hub, s);
        }
        let mut failed = 0usize;
        for &(spoke, amb) in &ambs {
            let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
            for method in ["count", "salary_of"] {
                let args = if method == "count" {
                    vec![]
                } else {
                    vec![Value::from("bob")]
                };
                if fed
                    .call_through_ambassador(spoke, client, amb, method, &args)
                    .is_err()
                {
                    failed += 1;
                }
            }
        }
        println!(
            "  {:<10} {:>16} {:>14} {:>18}",
            spokes,
            push_time.to_string(),
            push_bytes,
            failed
        );
    }
}

fn e10_persist() {
    header(
        "E10",
        "self-contained persistence",
        "the object writes itself to host-allocated space and bootstraps back",
    );
    println!(
        "  {:<18} {:>12} {:>12} {:>12}",
        "cargo items", "image bytes", "save", "restore"
    );
    for items in [8usize, 64, 512] {
        let mut ids = bench_ids();
        let obj = cargo_object(&mut ids, items, 64);
        let id = obj.id();
        let image_len = obj.migration_image(id).unwrap().len();
        let mut depot = Depot::new(MemStore::new());
        let save = time_ns(SLOW * 10, || {
            depot.save(&obj).unwrap();
        });
        let restore = time_ns(SLOW * 10, || {
            std::hint::black_box(depot.restore(id).unwrap());
        });
        println!(
            "  {:<18} {:>12} {:>12} {:>12}",
            items,
            image_len,
            fmt_ns(save),
            fmt_ns(restore)
        );
    }
    // File store: recovery of 100 objects.
    let dir = std::env::temp_dir().join(format!("mrom-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut depot = Depot::new(FileStore::open(dir.join("fleet.log")).unwrap());
        let mut ids = bench_ids();
        for _ in 0..100 {
            depot.save(&cargo_object(&mut ids, 8, 32)).unwrap();
        }
    }
    let ns = time_ns(SLOW, || {
        let depot = Depot::new(FileStore::open(dir.join("fleet.log")).unwrap());
        let (objs, failed) = depot.restore_all();
        assert_eq!(objs.len(), 100);
        assert!(failed.is_empty());
    });
    row("file store: recover 100 objects", fmt_ns(ns));
    let _ = std::fs::remove_dir_all(&dir);
}

fn e15_script_vm() {
    header(
        "E15",
        "register bytecode VM for script bodies (PR 6)",
        "admitted bodies compile once to register bytecode; the tree-walker stays as the differential-test oracle",
    );
    println!(
        "  {:<36} {:>10} {:>10} {:>8}",
        "body", "interp", "VM", "speedup"
    );
    const LOOP_SRC: &str = "param n; let acc = 0; let i = 0; \
                            while (i < n) { \
                                acc = acc + i * 2 - acc / 3; \
                                if (acc > 1000) { acc = acc - 997; } \
                                i = i + 1; \
                            } \
                            return acc;";
    const STRAIGHT_SRC: &str = "param a; param b; return (a + b) * (a - b) + a % 7;";
    let fuel = 10_000_000u64;
    let speedup_row = |label: &str, interp: f64, vm: f64| {
        println!(
            "  {:<36} {:>10} {:>10} {:>7.2}x",
            label,
            fmt_ns(interp),
            fmt_ns(vm),
            interp / vm
        );
    };
    let cases: [(&str, &str, Vec<Value>, u64); 2] = [
        (
            "loop-heavy, 200 iterations",
            LOOP_SRC,
            vec![Value::Int(200)],
            SLOW * 10,
        ),
        (
            "straight-line (per-call floor)",
            STRAIGHT_SRC,
            vec![Value::Int(17), Value::Int(5)],
            QUICK,
        ),
    ];
    for (label, src, args, reps) in cases {
        let p = Program::parse(src).unwrap();
        let interp = time_ns(reps, || {
            let mut host = NullHost;
            let mut ev = Evaluator::with_fuel(&mut host, fuel);
            std::hint::black_box(ev.run(&p, &args).unwrap());
        });
        let compiled = p.compiled();
        let vm = time_ns(reps, || {
            let mut host = NullHost;
            let mut vm = Vm::with_fuel(&mut host, fuel);
            std::hint::black_box(vm.run(&compiled, &args).unwrap());
        });
        speedup_row(label, interp, vm);
    }
    // Full invoke round-trip whose hot loop is `self` data traffic — the
    // inline-cache target shape. Fresh object per iteration so `count`
    // growth never changes the arithmetic between engines.
    const IC_SRC: &str = "param n; let i = 0; \
                          while (i < n) { \
                              self.set(\"count\", self.get(\"count\") + 1); \
                              i = i + 1; \
                          } \
                          return self.get(\"count\");";
    // Production `invoke` runs only the VM, so this row has no
    // interpreter arm.
    let caller = bench_ids().next_id();
    let ic_loop = time_ns(SLOW * 10, || {
        let mut ids = bench_ids();
        let mut obj = ObjectBuilder::new(ids.next_id())
            .class("e15-counter")
            .fixed_data("count", DataItem::public(Value::Int(0)))
            .fixed_method("tally", Method::public(MethodBody::script(IC_SRC).unwrap()))
            .build();
        invoke(&mut obj, &mut NoWorld, caller, "tally", &[Value::Int(100)]).unwrap();
    });
    row("invoke: 100x self.get/self.set loop (VM)", fmt_ns(ic_loop));
    // What admission pays once per admitted body.
    row(
        "admission: parse only (loop body)",
        fmt_ns(time_ns(QUICK, || {
            std::hint::black_box(Program::parse(LOOP_SRC).unwrap());
        })),
    );
    row(
        "admission: parse + compile",
        fmt_ns(time_ns(QUICK, || {
            let p = Program::parse(LOOP_SRC).unwrap();
            std::hint::black_box(p.compiled());
        })),
    );
}

fn e16_effects() {
    header(
        "E16",
        "effect signatures + bytecode verification (PR 7)",
        "admission proves behavioural contracts; retry/migration/concurrency policies consume them",
    );
    let chained = |n: usize| {
        let mut ids = bench_ids();
        let mut builder = ObjectBuilder::new(ids.next_id()).class("migrant");
        for s in 0..8 {
            builder = builder.fixed_data(&format!("slot{s}"), DataItem::public(Value::Int(0)));
        }
        builder = builder.fixed_data("count", DataItem::public(Value::Int(0)));
        for m in 0..n {
            let src = if m == 0 {
                "param a; param b; let t = self.get(\"count\"); \
                 self.set(\"count\", t + a + b); return t;"
                    .to_owned()
            } else {
                format!(
                    "param a; self.set(\"slot{}\", a); return self.invoke(\"m{}\", [a, 1]);",
                    m % 8,
                    m - 1
                )
            };
            builder = builder.fixed_method(
                &format!("m{m}"),
                Method::public(MethodBody::script(&src).unwrap()),
            );
        }
        builder.build()
    };
    for n in [1usize, 8, 32] {
        let obj = chained(n);
        let reps = if n == 32 { SLOW } else { SLOW * 10 };
        let ns = time_ns(reps, || {
            std::hint::black_box(mrom_core::object_effects(&obj));
        });
        row(
            &format!("solve: {n} chained methods (uncached)"),
            fmt_ns(ns),
        );
    }
    let mut cached = chained(8);
    cached.effects();
    row(
        "cached signature-table hit",
        fmt_ns(time_ns(QUICK, || {
            std::hint::black_box(cached.effects());
        })),
    );
    let small = Program::parse("param a; return self.get(\"x\") + a;").unwrap();
    row(
        "verify: small compiled body",
        fmt_ns(time_ns(QUICK, || {
            mrom_script::verify(&small.compiled()).unwrap();
        })),
    );
}

fn e17_telemetry() {
    header(
        "E17",
        "windowed telemetry (PR 8)",
        "the system observes itself: sliding-window profiles, one reflective snapshot, trace export",
    );
    let args = [Value::Int(20), Value::Int(22)];
    let modes: [(&str, mrom_obs::ObsMode, bool); 4] = [
        (
            "invoke: disabled, window configured",
            mrom_obs::ObsMode::Disabled,
            true,
        ),
        (
            "invoke: ring (flight recorder only)",
            mrom_obs::ObsMode::Ring,
            false,
        ),
        ("invoke: ring + window", mrom_obs::ObsMode::Ring, true),
        ("invoke: full + window", mrom_obs::ObsMode::Full, true),
    ];
    for (label, mode, windowed) in modes {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(windowed.then_some(mrom_obs::WindowConfig::DEFAULT));
        mrom_obs::set_mode(mode);
        let ns = time_ns(QUICK, || {
            std::hint::black_box(invoke(&mut obj, &mut world, caller, "m_add", &args).unwrap());
        });
        mrom_obs::set_mode(mrom_obs::ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
        row(label, fmt_ns(ns));
    }
    // Read side over a populated window + full ring.
    {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(Some(mrom_obs::WindowConfig::DEFAULT));
        mrom_obs::set_mode(mrom_obs::ObsMode::Ring);
        for _ in 0..1024 {
            invoke(&mut obj, &mut world, caller, "m_add", &args).unwrap();
        }
        row(
            "snapshot: fold window into TelemetrySnapshot",
            fmt_ns(time_ns(QUICK, || {
                std::hint::black_box(mrom_obs::telemetry_snapshot());
            })),
        );
        let events = mrom_obs::ring_snapshot();
        let per_event = time_ns(SLOW, || {
            std::hint::black_box(mrom_obs::chrome_trace(&events));
        }) / events.len() as f64;
        row("chrome export: per ring event", fmt_ns(per_event));
        mrom_obs::set_mode(mrom_obs::ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }
}

fn main() {
    println!("MROM reproduction — experiment report (E1-E10, E15, E16, E17)");
    println!(
        "paper: Holder & Ben-Shaul, 'A Reflective Model for Mobile Software Objects', ICDCS 1997"
    );
    e1_tower();
    e2_lookup();
    e3_wrapping();
    e4_acl();
    e5_mutation();
    e6_federation();
    e7_crossover();
    e7_bandwidth();
    e8_models();
    e9_dbshutdown();
    e10_persist();
    e15_script_vm();
    e16_effects();
    e17_telemetry();
    println!("\ndone.");
}
