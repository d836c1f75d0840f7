//! Shared pieces of the federation workloads: building a federation over
//! a hierarchical topology, the cell classes, the exactly-once ledger,
//! the final drain, and the correctness gate every workload must pass.

use std::collections::BTreeMap;

use hadas::{Federation, HadasError, ProtocolMsg, RetryPolicy};
use mrom_core::{AdmissionPolicy, ClassSpec, DataItem, Method, MethodBody};
use mrom_net::{NetworkConfig, Topology};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};

use crate::record::{Call, Recorder};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Sets this thread's observability for a workload arm: `Ring` with
/// windowed telemetry, or `Disabled`. Recorder state is cleared either
/// way.
///
/// The window is the library default (8 epochs of 1 virtual second), not
/// `mrom-fleet`'s single whole-run epoch: with a whole-run epoch every
/// object ever touched stays in the snapshot, so the cost of a telemetry
/// poll grows for as long as a time-bounded run lasts. A sliding window
/// holds the recent working set and lets the cost settle.
pub fn set_obs(ring: bool) {
    mrom_obs::reset();
    if ring {
        mrom_obs::set_window(Some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(ObsMode::Ring);
    } else {
        mrom_obs::set_window(None);
        mrom_obs::set_mode(ObsMode::Disabled);
    }
}

/// A federation of `n` sites wired as `Topology::Hierarchical`, with the
/// tier links of its edges, retries on, and one worker per site.
pub struct Sites {
    pub fed: Federation,
    pub nodes: Vec<NodeId>,
    /// Topology neighbours, indexed by `node - 1`.
    pub adj: Vec<Vec<NodeId>>,
    /// IOO identity per site, indexed by `node - 1`.
    pub ioo: Vec<ObjectId>,
    /// Sites the churn injector may crash (cluster heads are spared).
    pub churnable: Vec<NodeId>,
}

impl Sites {
    pub fn build(
        n: usize,
        cluster: usize,
        seed: u64,
        policy: AdmissionPolicy,
        rec: &mut Recorder,
    ) -> Res<Sites> {
        let topology = Topology::Hierarchical { cluster_size: cluster };
        let nodes = Topology::sites(n);
        let net = NetworkConfig::new(seed).with_default_link(mrom_net::LinkTier::Local.link());
        let mut fed = Federation::new(net);
        let mut ioo = Vec::with_capacity(n);
        for &s in &nodes {
            ioo.push(rec.call(Call::AddSite, || fed.add_site(s))?);
        }
        fed.set_retry_policy(RetryPolicy::standard());
        fed.set_site_workers(1);
        fed.set_admission_policy(policy);
        let mut adj = vec![Vec::new(); n];
        for edge in topology.edges(n) {
            fed.net_config_mut().set_symmetric_link(edge.a, edge.b, edge.tier.link());
            rec.call(Call::Link, || fed.link(edge.a, edge.b))?;
            adj[index(edge.a)].push(edge.b);
            adj[index(edge.b)].push(edge.a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let core = topology.core_sites(n);
        let churnable = nodes.iter().copied().filter(|s| !core.contains(s)).collect();
        Ok(Sites { fed, nodes, adj, ioo, churnable })
    }

    pub fn ioo(&self, node: NodeId) -> ObjectId {
        self.ioo[index(node)]
    }

    pub fn neighbours(&self, node: NodeId) -> &[NodeId] {
        &self.adj[index(node)]
    }
}

/// Position of a site numbered from 1 in per-site tables.
fn index(node: NodeId) -> usize {
    usize::try_from(node.0 - 1).expect("site numbers fit usize")
}

/// The fleet cell of `mrom-fleet`: a non-idempotent `bump` (a double
/// apply shows in its state) and a read-only `peek`.
pub fn cell_class(name: &str) -> ClassSpec {
    ClassSpec::new(name)
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            script("self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");"),
        )
        .fixed_method("peek", script("return self.get(\"count\");"))
}

pub fn script(source: &str) -> Method {
    Method::public(MethodBody::script(source).expect("benchmark method bodies parse"))
}

/// The exactly-once bookkeeping for one counter per tracked object: how
/// many increments were acknowledged, and how many are ambiguous (the
/// request may or may not have been applied).
#[derive(Debug, Clone)]
pub struct Ledger {
    pub field: &'static str,
    pub objects: Vec<ObjectId>,
    pub ok: Vec<u32>,
    pub ambiguous: Vec<u32>,
}

impl Ledger {
    pub fn new(field: &'static str, objects: Vec<ObjectId>) -> Ledger {
        let n = objects.len();
        Ledger { field, objects, ok: vec![0; n], ambiguous: vec![0; n] }
    }

    /// The values the counter of object `k` may hold now.
    pub fn window(&self, k: usize) -> (i64, i64) {
        let lo = i64::from(self.ok[k]);
        (lo, lo + i64::from(self.ambiguous[k]))
    }
}

/// Pumps the network dry and settles every parked in-doubt migration.
pub fn drain(fed: &mut Federation, rec: &mut Recorder) -> Res<()> {
    rec.call(Call::Drain, || -> Res<()> {
        fed.pump_all();
        for _ in 0..3 {
            let mut parked = 0;
            for node in fed.site_nodes() {
                parked += fed.in_doubt(node)?.len();
                fed.resolve_in_doubt(node)?;
            }
            fed.pump_all();
            if parked == 0 {
                break;
            }
        }
        Ok(())
    })
}

/// The correctness gate, run after the drain: every tracked object is
/// hosted on exactly one site with its counter inside its exactly-once
/// window, nothing is in flight, every send is accounted for, and no
/// migration is parked in doubt. None of it reads telemetry, so it holds
/// with observability off. Returns the violations found.
pub fn check_federation(fed: &Federation, ledger: &Ledger) -> Res<Vec<String>> {
    let mut violations = Vec::new();
    let member: BTreeMap<ObjectId, usize> =
        ledger.objects.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut hosts: Vec<Vec<NodeId>> = vec![Vec::new(); ledger.objects.len()];
    for node in fed.site_nodes() {
        for id in fed.runtime(node)?.object_ids() {
            if let Some(&k) = member.get(&id) {
                hosts[k].push(node);
            }
        }
    }
    for (k, at) in hosts.iter().enumerate() {
        let id = ledger.objects[k];
        let [host] = at.as_slice() else {
            violations.push(format!("{id} is hosted on {} sites", at.len()));
            continue;
        };
        let value = fed
            .runtime(*host)?
            .object(id)
            .and_then(|obj| obj.read_data(ObjectId::SYSTEM, ledger.field).ok())
            .and_then(|v| v.as_int());
        let (lo, hi) = ledger.window(k);
        match value {
            Some(v) if (lo..=hi).contains(&v) => {}
            other => violations.push(format!(
                "{id}.{} = {other:?}, outside the exactly-once window [{lo}, {hi}]",
                ledger.field
            )),
        }
    }
    let in_flight = fed.in_flight();
    if in_flight != 0 {
        violations.push(format!("{in_flight} messages still in flight after the drain"));
    }
    if !fed.net_stats().accounts_for_every_send(in_flight) {
        violations.push("net stats do not account for every send".to_owned());
    }
    let mut parked = 0;
    for node in fed.site_nodes() {
        parked += fed.in_doubt(node)?.len();
    }
    if parked != 0 {
        violations.push(format!("{parked} migrations parked in doubt"));
    }
    Ok(violations)
}

/// Inputs captured from a workload for the layer probes: the protocol
/// messages of one remote invoke and one move, and one object image.
pub struct Capture {
    pub invoke_req: ProtocolMsg,
    pub invoke_resp: ProtocolMsg,
    pub move_req: ProtocolMsg,
    pub move_ack: ProtocolMsg,
    /// Wire bytes of the image (`image_value` + `wire::encode`).
    pub image: Vec<u8>,
    /// The admission policy arriving images are checked under.
    pub policy: AdmissionPolicy,
    /// Source of one method body, for the compile probe.
    pub body: String,
    /// A federation site and a hot object hosted there, for local probes.
    pub host: NodeId,
    pub object: ObjectId,
    pub read_method: &'static str,
}

impl Capture {
    /// Captures the messages that a remote `read_method` on `object`
    /// (hosted at `host`) and a move of it would put on the wire.
    pub fn take(
        fed: &mut Federation,
        host: NodeId,
        object: ObjectId,
        caller: ObjectId,
        read_method: &'static str,
        body: &str,
    ) -> Res<Capture> {
        let rt = fed.runtime_mut(host)?;
        let result = rt.invoke(caller, object, read_method, &[])?;
        let image = {
            let obj =
                rt.object(object).ok_or_else(|| format!("{object} is not hosted at {host}"))?;
            mrom_value::wire::encode(&obj.image_value()?)
        };
        Ok(Capture {
            invoke_req: ProtocolMsg::InvokeReq {
                req_id: 1,
                caller,
                target: object,
                method: read_method.to_owned(),
                args: Vec::new(),
                trace: 0,
                parent_span: 0,
            },
            invoke_resp: ProtocolMsg::InvokeResp { req_id: 1, result },
            move_req: ProtocolMsg::MoveObject {
                req_id: 2,
                image: image.clone(),
                trace: 0,
                parent_span: 0,
            },
            move_ack: ProtocolMsg::MoveAck { req_id: 2, adopted: object },
            image,
            policy: fed.admission_policy(),
            body: body.to_owned(),
            host,
            object,
            read_method,
        })
    }
}

/// Whether an error is the ambiguous kind (the request may have been
/// applied before its reply was lost) rather than a definite refusal.
pub fn is_ambiguous(e: &HadasError) -> bool {
    matches!(e, HadasError::Timeout { .. })
}
