//! `migrate-64`: 64 sites on a hierarchical topology (cluster 8) with 3200
//! agents. An agent is the fleet cell plus an `on_arrival` hop counter,
//! 8 methods and 8 data items, so its image has some weight. Each step
//! dispatches a Zipf-drawn agent to a linked neighbour, then `peek`s it
//! from the site it just left: a whole-object write beside a remote
//! read. Admission is `Strict` (the paper's wary host); obs is off.

use hadas::Federation;
use mrom_core::{AdmissionPolicy, ClassSpec, DataItem};
use mrom_value::{NodeId, Value};

use crate::gen::{Rng, Zipf, OPS_STREAM};
use crate::record::{Call, Kind, Recorder};
use crate::run::Workload;
use crate::world::{self, cell_class, script, Capture, Ledger, Res, Sites};

const SITES: usize = 64;
const CLUSTER: usize = 8;
const AGENTS: usize = 3200;
const ZIPF_S: f64 = 1.1;

const ON_ARRIVAL: &str = "param ctx; self.set(\"hops\", self.get(\"hops\") + 1); \
     self.set(\"last_host\", ctx[\"host_site\"]); return true;";

/// The agent class: 8 data items, 8 methods, all script bodies that pass
/// strict admission.
fn agent_class() -> ClassSpec {
    cell_class("agent")
        .fixed_data("hops", DataItem::public(Value::Int(0)))
        .fixed_data("last_host", DataItem::public(Value::Int(0)))
        .fixed_data("home", DataItem::public(Value::Int(0)))
        .fixed_data("budget", DataItem::public(Value::Int(1_000_000)))
        .fixed_data("label", DataItem::public(Value::from("itinerant agent")))
        .fixed_data("payload", DataItem::public(Value::from("p".repeat(64))))
        .fixed_data(
            "route",
            DataItem::public(Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])),
        )
        .fixed_method("on_arrival", script(ON_ARRIVAL))
        .fixed_method("hops", script("return self.get(\"hops\");"))
        .fixed_method("budget_left", script("return self.get(\"budget\") - self.get(\"hops\");"))
        .fixed_method("at_home", script("return self.get(\"last_host\") == self.get(\"home\");"))
        .fixed_method(
            "describe",
            script(
                "return self.get(\"label\") + \" after \" + coerce(self.get(\"hops\"), \"str\");",
            ),
        )
        .fixed_method("add", script("param a; param b; return a + b;"))
}

pub struct Migrate {
    s: Sites,
    hops: Ledger,
    hosts: Vec<NodeId>,
    zipf: Zipf,
    rng: Rng,
    ops: usize,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Migrate {
    pub fn setup(seed: u64, rec: &mut Recorder) -> Res<Migrate> {
        let mut s = Sites::build(SITES, CLUSTER, seed, AdmissionPolicy::Strict, rec)?;
        let class = agent_class();
        let mut objects = Vec::with_capacity(AGENTS);
        let mut hosts = Vec::with_capacity(AGENTS);
        for k in 0..AGENTS {
            let site = s.nodes[k % SITES];
            let rt = s.fed.runtime_mut(site)?;
            let agent = class.instantiate_as(rt.ids_mut().next_id(), None);
            objects.push(rec.call(Call::Adopt, || rt.adopt(agent))?);
            hosts.push(site);
        }
        Ok(Migrate {
            s,
            hops: Ledger::new("hops", objects),
            hosts,
            zipf: Zipf::new(AGENTS, ZIPF_S),
            rng: Rng::new(seed, OPS_STREAM),
            ops: 0,
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        })
    }
}

impl Workload for Migrate {
    fn step(&mut self, rec: &mut Recorder) -> Res<()> {
        let m = self.zipf.sample(&mut self.rng);
        let from = self.hosts[m];
        let neighbours = self.s.neighbours(from);
        let to = neighbours[self.rng.below(neighbours.len())];
        let agent = self.hops.objects[m];
        let from_ioo = self.s.ioo(from);
        let op = rec.begin();
        let moved = rec
            .on_fed(op, Kind::Migrate, &mut self.s.fed, |fed| fed.dispatch_object(from, to, agent));
        self.attempted += 1;
        match moved {
            Ok(()) => {
                self.hosts[m] = to;
                self.hops.ok[m] += 1;
                let read = rec.on_fed(op, Kind::InvokeRemote, &mut self.s.fed, |fed| {
                    fed.remote_invoke(from, to, from_ioo, agent, "peek", &[])
                });
                self.attempted += 1;
                match read {
                    Ok(Value::Int(0)) => {}
                    Ok(other) => {
                        self.wrong.push(format!("{agent}.peek returned {other:?}, expected 0"));
                    }
                    Err(_) => self.failed += 1,
                }
            }
            Err(e) => {
                self.failed += 1;
                if world::is_ambiguous(&e) {
                    self.hops.ambiguous[m] += 1;
                }
            }
        }
        rec.end(op, "op.step", true);
        self.ops += 1;
        Ok(())
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn attempted(&self) -> u64 {
        self.attempted
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn fed(&self) -> &Federation {
        &self.s.fed
    }

    fn fed_mut(&mut self) -> &mut Federation {
        &mut self.s.fed
    }

    fn check(&mut self, rec: &mut Recorder) -> Res<Vec<String>> {
        world::drain(&mut self.s.fed, rec)?;
        let mut violations = std::mem::take(&mut self.wrong);
        violations.extend(world::check_federation(&self.s.fed, &self.hops)?);
        // No agent is ever bumped, so every count must still read 0.
        let counts = Ledger::new("count", self.hops.objects.clone());
        violations.extend(world::check_federation(&self.s.fed, &counts)?);
        Ok(violations)
    }

    fn capture(&mut self) -> Res<Capture> {
        let host = self.hosts[0];
        let caller = self.s.ioo(self.s.neighbours(host)[0]);
        Capture::take(&mut self.s.fed, host, self.hops.objects[0], caller, "peek", ON_ARRIVAL)
    }
}
