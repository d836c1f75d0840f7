//! The federation driver: sites, the protocol engine, and the synchronous
//! convenience operations (Link, Import/Export, remote invocation,
//! functionality migration, update push) running over the simulated
//! network.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use mrom_core::{AdmissionPolicy, InvokeLimits, MromError, MromObject, Runtime};
use mrom_net::{Delivery, NetStats, NetworkConfig, SimNet, SimTime};
use mrom_persist::{BlobStore, Depot, MemStore};
use mrom_value::{NodeId, ObjectId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ambassador::{AmbassadorSpec, GuestInfo};
use crate::error::HadasError;
use crate::ioo::map_insert;
use crate::protocol::{ProtocolMsg, UpdateOp};
use crate::retry::RetryPolicy;

/// Entries kept in a site's reply cache before the oldest are evicted.
/// Request ids are globally monotonic, so evicting the smallest ids drops
/// the replies least likely to be retried.
const REPLY_CACHE_CAP: usize = 1024;

/// Who may import an APO — the access check the paper's Export performs
/// ("Export verifies that the requested APO is accessible to the
/// requesting IOO").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExportPolicy {
    /// Any *linked* site may import (the default: Link is already a
    /// prerequisite for all cooperation).
    #[default]
    Linked,
    /// Only the listed sites may import.
    Sites(BTreeSet<NodeId>),
    /// Nobody may import.
    Nobody,
}

/// Writes the federation admission policy into a site runtime's
/// invocation config, where meta-operations reached through `invoke`
/// read it.
fn apply_admission(runtime: &Runtime, admission: AdmissionPolicy) {
    runtime.set_limits(InvokeLimits {
        admission,
        ..runtime.limits()
    });
}

/// Wraps a model error raised while admitting code at site `at`: strict
/// rejections become [`HadasError::AdmissionRefused`] naming the site.
fn refused_at(at: NodeId, e: MromError) -> HadasError {
    match e {
        rejection @ MromError::AdmissionRejected { .. } => {
            HadasError::AdmissionRefused { at, rejection }
        }
        e => HadasError::Model(e),
    }
}

/// One logical site: a node runtime, its IOO, and the bookkeeping the
/// protocol handlers maintain.
struct Site {
    runtime: Runtime,
    ioo: ObjectId,
    /// Home: APO name → identity.
    apos: BTreeMap<String, ObjectId>,
    /// Default functionality split per APO name.
    specs: BTreeMap<String, AmbassadorSpec>,
    /// Export access policy per APO name.
    policies: BTreeMap<String, ExportPolicy>,
    /// Sites this site has a Link agreement with (either direction).
    links: BTreeSet<NodeId>,
    /// Hosted guest Ambassadors.
    guests: BTreeMap<ObjectId, GuestInfo>,
    /// Ambassadors deployed *from* this site's APOs: APO id → (host node,
    /// ambassador id) pairs.
    deployed: BTreeMap<ObjectId, Vec<(NodeId, ObjectId)>>,
    /// The site's self-contained persistence depot (paper §9): objects
    /// write themselves here and bootstrap themselves back after a crash.
    depot: Depot<MemStore>,
    /// Receiver-side request dedup: req id → the reply already produced.
    /// A retried or duplicated request is answered from here instead of
    /// being re-executed, which is what makes delivery exactly-once.
    /// Volatile — wiped by a crash (the depot, not this cache, is the
    /// durable layer).
    replies: BTreeMap<u64, ProtocolMsg>,
    /// Migrations whose acknowledgement never arrived: object → intended
    /// destination. The object's image stays in the depot until
    /// [`Federation::resolve_in_doubt`] learns which side owns it.
    in_doubt: BTreeMap<ObjectId, NodeId>,
}

impl Site {
    /// Caches `reply` for its request id, evicting the oldest entries
    /// beyond the cache bound.
    fn remember_reply(&mut self, req_id: u64, reply: &ProtocolMsg) {
        self.replies.insert(req_id, reply.clone());
        while self.replies.len() > REPLY_CACHE_CAP {
            let oldest = *self.replies.keys().next().expect("cache is non-empty");
            self.replies.remove(&oldest);
        }
    }
}

/// A point-in-time summary of one site, used by reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// The site's node.
    pub node: NodeId,
    /// Number of integrated APOs.
    pub apos: usize,
    /// Number of link agreements.
    pub links: usize,
    /// Number of hosted guest Ambassadors.
    pub guests: usize,
    /// Number of Ambassadors deployed from here.
    pub deployed: usize,
}

/// A federation of HADAS sites over a simulated network.
///
/// # Example
///
/// ```
/// use hadas::Federation;
/// use mrom_net::NetworkConfig;
/// use mrom_value::NodeId;
///
/// # fn main() -> Result<(), hadas::HadasError> {
/// let mut fed = Federation::new(NetworkConfig::new(7));
/// fed.add_site(NodeId(1))?;
/// fed.add_site(NodeId(2))?;
/// fed.link(NodeId(1), NodeId(2))?;
/// assert!(fed.is_linked(NodeId(1), NodeId(2)));
/// # Ok(())
/// # }
/// ```
pub struct Federation {
    net: SimNet,
    sites: BTreeMap<NodeId, Site>,
    next_req: u64,
    completed: HashMap<u64, ProtocolMsg>,
    /// Request ids currently awaiting a reply. A reply whose id is not
    /// here is stale — a duplicate of one already consumed — and is
    /// dropped instead of polluting `completed`.
    pending: HashSet<u64>,
    /// Safety bound on deliveries processed while waiting for one reply.
    max_pump: usize,
    /// Static admission policy every receive path applies to arriving
    /// mobile code (migrating objects, imported/linked ambassadors) and
    /// that the export path applies to ambassadors it instantiates.
    admission: AdmissionPolicy,
    /// Retry policy for synchronous operations ([`RetryPolicy::Off`] by
    /// default — the historical fail-on-first-loss behaviour).
    retry: RetryPolicy,
    /// Dedicated generator for backoff jitter, seeded from the network
    /// seed so retry schedules reproduce per seed without perturbing the
    /// simulator's own stream.
    retry_rng: StdRng,
}

/// How one pass of the protocol pump ended.
enum PumpOutcome {
    /// Every awaited reply arrived.
    Done,
    /// The network went idle with replies still missing (lost traffic).
    Dry,
    /// The per-operation delivery bound was exceeded (a protocol storm).
    BoundExceeded,
}

impl Federation {
    /// Creates an empty federation over a simulator with `config`.
    /// Admission starts [`AdmissionPolicy::Off`] — the pre-admission
    /// behaviour.
    pub fn new(config: NetworkConfig) -> Federation {
        // Decorrelate from the simulator's stream while staying a pure
        // function of the configured seed.
        let retry_rng = StdRng::seed_from_u64(config.seed() ^ 0x9E37_79B9_7F4A_7C15);
        Federation {
            net: SimNet::new(config),
            sites: BTreeMap::new(),
            next_req: 0,
            completed: HashMap::new(),
            pending: HashSet::new(),
            max_pump: 100_000,
            admission: AdmissionPolicy::Off,
            retry: RetryPolicy::Off,
            retry_rng,
        }
    }

    /// Does nothing and returns 1: every site executes an arriving
    /// invocation inline, on the thread that handles the delivery. Kept
    /// only because the benchmark package still calls it; the next change
    /// to the benchmark removes that call and this method with it.
    #[deprecated(since = "0.14.0", note = "sites always execute invocations inline")]
    pub fn set_site_workers(&mut self, _workers: usize) -> usize {
        1
    }

    /// Sets the federation-wide [`AdmissionPolicy`], returning the
    /// previous one. The policy governs arriving images and pushed
    /// updates, and every site runtime applies it to the code that
    /// `addMethod`/`setMethod` meta-operations install (sites added later
    /// inherit it).
    pub fn set_admission_policy(&mut self, policy: AdmissionPolicy) -> AdmissionPolicy {
        for site in self.sites.values() {
            apply_admission(&site.runtime, policy);
        }
        std::mem::replace(&mut self.admission, policy)
    }

    /// The federation-wide [`AdmissionPolicy`].
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Sets the federation-wide [`RetryPolicy`], returning the previous
    /// one. With [`RetryPolicy::Off`] (the default) every synchronous
    /// operation behaves exactly as it did before retries existed.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> RetryPolicy {
        std::mem::replace(&mut self.retry, policy)
    }

    /// The federation-wide [`RetryPolicy`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Decodes an arriving image under the federation admission policy,
    /// converting strict rejections into [`HadasError::AdmissionRefused`]
    /// naming the receiving site.
    fn admit_image(&self, at: NodeId, image: &[u8]) -> Result<MromObject, HadasError> {
        MromObject::from_image_with_policy(image, self.admission).map_err(|e| refused_at(at, e))
    }

    /// Adds a site at `node`, creating its runtime and IOO. Returns the
    /// IOO's identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::DuplicateSite`] / network errors.
    pub fn add_site(&mut self, node: NodeId) -> Result<ObjectId, HadasError> {
        if self.sites.contains_key(&node) {
            return Err(HadasError::DuplicateSite(node));
        }
        self.net.add_node(node)?;
        let mut runtime = Runtime::new(node);
        apply_admission(&runtime, self.admission);
        let ioo_obj = crate::ioo::build_ioo_as(runtime.ids_mut().next_id(), node);
        let ioo = ioo_obj.id();
        let mut depot = Depot::new(MemStore::new());
        // Write-ahead bootstrap image: a crashed site restores its IOO
        // (and everything else in the depot) from here. Best-effort — an
        // IOO with native bodies simply is not persistable.
        let _ = depot.save(&ioo_obj);
        runtime.adopt(ioo_obj).map_err(HadasError::Model)?;
        self.sites.insert(
            node,
            Site {
                runtime,
                ioo,
                apos: BTreeMap::new(),
                specs: BTreeMap::new(),
                policies: BTreeMap::new(),
                links: BTreeSet::new(),
                guests: BTreeMap::new(),
                deployed: BTreeMap::new(),
                depot,
                replies: BTreeMap::new(),
                in_doubt: BTreeMap::new(),
            },
        );
        Ok(ioo)
    }

    fn site(&self, node: NodeId) -> Result<&Site, HadasError> {
        self.sites.get(&node).ok_or(HadasError::UnknownSite(node))
    }

    fn site_mut(&mut self, node: NodeId) -> Result<&mut Site, HadasError> {
        self.sites
            .get_mut(&node)
            .ok_or(HadasError::UnknownSite(node))
    }

    /// The runtime hosting a site's objects.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn runtime(&self, node: NodeId) -> Result<&Runtime, HadasError> {
        Ok(&self.site(node)?.runtime)
    }

    /// Mutable runtime access (local administration, tests).
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn runtime_mut(&mut self, node: NodeId) -> Result<&mut Runtime, HadasError> {
        Ok(&mut self.site_mut(node)?.runtime)
    }

    /// A site's IOO identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn ioo_id(&self, node: NodeId) -> Result<ObjectId, HadasError> {
        Ok(self.site(node)?.ioo)
    }

    /// Simulator traffic statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// The recording thread's windowed telemetry across the whole
    /// federation: every object profile, the full site-to-site call
    /// matrix, and every link window. Empty (but schema-complete)
    /// unless [`mrom_obs::set_window`] configured a window and a
    /// recording mode is on.
    #[must_use]
    pub fn telemetry(&self) -> mrom_obs::TelemetrySnapshot {
        mrom_obs::telemetry_snapshot()
    }

    /// One site's slice of [`Federation::telemetry`]: objects hosted at
    /// `node` right now, plus the call-matrix rows and links touching
    /// it. This is the federation analogue of `Runtime::telemetry`, and
    /// like it folds only the site's rows: hosted objects × epochs plus
    /// one scan of the window's edges, not the whole federation.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn site_telemetry(&self, node: NodeId) -> Result<mrom_obs::TelemetrySnapshot, HadasError> {
        Ok(self.site(node)?.runtime.telemetry())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Mutable simulator configuration (partitions mid-run).
    pub fn net_config_mut(&mut self) -> &mut NetworkConfig {
        self.net.config_mut()
    }

    /// The nodes that have a site in this federation.
    pub fn site_nodes(&self) -> Vec<NodeId> {
        self.sites.keys().copied().collect()
    }

    /// Per-site summary.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn site_stats(&self, node: NodeId) -> Result<SiteStats, HadasError> {
        let site = self.site(node)?;
        Ok(SiteStats {
            node,
            apos: site.apos.len(),
            links: site.links.len(),
            guests: site.guests.len(),
            deployed: site.deployed.values().map(Vec::len).sum(),
        })
    }

    /// Integrates a pre-built APO object at `node` under `name`, with the
    /// default functionality split `spec` for its Ambassadors. Returns the
    /// APO's identity.
    ///
    /// # Errors
    ///
    /// Site/duplicate errors and model errors.
    pub fn integrate_apo(
        &mut self,
        node: NodeId,
        name: &str,
        apo: MromObject,
        spec: AmbassadorSpec,
    ) -> Result<ObjectId, HadasError> {
        let site = self.site_mut(node)?;
        if site.apos.contains_key(name) {
            return Err(HadasError::DuplicateApo(name.to_owned()));
        }
        let id = apo.id();
        // Best-effort write-ahead: a mobile APO survives a site crash;
        // one with native bodies simply is not persistable.
        let _ = site.depot.save(&apo);
        site.runtime.adopt(apo).map_err(HadasError::Model)?;
        site.apos.insert(name.to_owned(), id);
        site.specs.insert(name.to_owned(), spec);
        site.policies
            .insert(name.to_owned(), ExportPolicy::default());
        let ioo = site.ioo;
        if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
            map_insert(ioo_obj, "home", name, Value::ObjectRef(id));
        }
        Ok(id)
    }

    /// Sets the export policy for an APO.
    ///
    /// # Errors
    ///
    /// Site/APO lookup errors.
    pub fn set_export_policy(
        &mut self,
        node: NodeId,
        apo_name: &str,
        policy: ExportPolicy,
    ) -> Result<(), HadasError> {
        let site = self.site_mut(node)?;
        if !site.apos.contains_key(apo_name) {
            return Err(HadasError::UnknownApo(apo_name.to_owned()));
        }
        site.policies.insert(apo_name.to_owned(), policy);
        Ok(())
    }

    /// The identity of an APO registered at a site.
    ///
    /// # Errors
    ///
    /// Site/APO lookup errors.
    pub fn apo_id(&self, node: NodeId, name: &str) -> Result<ObjectId, HadasError> {
        self.site(node)?
            .apos
            .get(name)
            .copied()
            .ok_or_else(|| HadasError::UnknownApo(name.to_owned()))
    }

    /// Are two sites linked (in either direction)?
    pub fn is_linked(&self, a: NodeId, b: NodeId) -> bool {
        self.sites.get(&a).is_some_and(|s| s.links.contains(&b))
    }

    /// Guest info for a hosted Ambassador.
    ///
    /// # Errors
    ///
    /// Lookup errors.
    pub fn guest_info(&self, host: NodeId, amb: ObjectId) -> Result<&GuestInfo, HadasError> {
        self.site(host)?
            .guests
            .get(&amb)
            .ok_or(HadasError::UnknownAmbassador(amb))
    }

    /// Ambassadors deployed from an APO: `(host node, ambassador id)`.
    ///
    /// # Errors
    ///
    /// Lookup errors.
    pub fn deployed_ambassadors(
        &self,
        origin: NodeId,
        apo_name: &str,
    ) -> Result<Vec<(NodeId, ObjectId)>, HadasError> {
        let site = self.site(origin)?;
        let apo = site
            .apos
            .get(apo_name)
            .ok_or_else(|| HadasError::UnknownApo(apo_name.to_owned()))?;
        Ok(site.deployed.get(apo).cloned().unwrap_or_default())
    }

    // -- protocol engine -----------------------------------------------------

    fn fresh_req_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn post(&mut self, from: NodeId, to: NodeId, msg: &ProtocolMsg) -> Result<(), HadasError> {
        let bytes = msg.encode();
        mrom_obs::fed_send(from, to, msg.kind(), bytes.len());
        self.net.send(from, to, bytes)?;
        Ok(())
    }

    /// Sends a request and pumps the network until its reply arrives,
    /// re-posting it under the active [`RetryPolicy`] when the network
    /// goes quiet with the reply still missing. Every attempt reuses the
    /// request id, so the receiver's reply cache makes retries idempotent.
    fn request(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: ProtocolMsg,
    ) -> Result<ProtocolMsg, HadasError> {
        let max_attempts = self.retry.max_attempts();
        self.request_capped(from, to, msg, max_attempts)
    }

    /// [`Federation::request`] with an explicit attempt budget. The
    /// invocation path uses this to tighten (never widen) the policy's
    /// budget when the target method's effect signature does not prove
    /// it idempotent.
    fn request_capped(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: ProtocolMsg,
        max_attempts: u32,
    ) -> Result<ProtocolMsg, HadasError> {
        let req_id = msg.req_id();
        let started = self.net.now();
        self.pending.insert(req_id);
        let mut attempt = 1u32;
        let finish = |fed: &mut Federation, reply| {
            fed.pending.remove(&req_id);
            reply
        };
        loop {
            if let Err(e) = self.post(from, to, &msg) {
                return finish(self, Err(e));
            }
            match self.pump(&[req_id]) {
                PumpOutcome::Done => {
                    let reply = self
                        .completed
                        .remove(&req_id)
                        .expect("pump guarantees presence");
                    return finish(self, Ok(reply));
                }
                PumpOutcome::BoundExceeded => {
                    return finish(
                        self,
                        Err(HadasError::Timeout {
                            operation: format!("request {} (pump bound exceeded)", msg.kind()),
                            attempts: attempt,
                            elapsed: self.net.now().saturating_sub(started),
                        }),
                    );
                }
                PumpOutcome::Dry if attempt < max_attempts => {
                    attempt += 1;
                    mrom_obs::fed_retry(from, msg.kind(), attempt);
                    let delay = self.retry.backoff_delay(attempt, &mut self.retry_rng);
                    // Wait out the backoff in virtual time; anything that
                    // arrives meanwhile (a slow reply racing the retry) is
                    // handled before the re-post.
                    let deliveries = self.net.run_until(self.net.now() + delay);
                    for d in deliveries {
                        self.handle(d);
                    }
                    if let Some(reply) = self.completed.remove(&req_id) {
                        return finish(self, Ok(reply));
                    }
                }
                PumpOutcome::Dry => {
                    return finish(
                        self,
                        Err(HadasError::Timeout {
                            operation: format!("request {} #{req_id}", msg.kind()),
                            attempts: attempt,
                            elapsed: self.net.now().saturating_sub(started),
                        }),
                    );
                }
            }
        }
    }

    /// One pass of the protocol pump: processes deliveries until every
    /// listed reply is present, the network goes dry, or the safety bound
    /// trips.
    fn pump(&mut self, req_ids: &[u64]) -> PumpOutcome {
        let mut steps = 0;
        while !req_ids.iter().all(|id| self.completed.contains_key(id)) {
            let Some(delivery) = self.net.step() else {
                return PumpOutcome::Dry;
            };
            self.handle(delivery);
            steps += 1;
            if steps > self.max_pump {
                return PumpOutcome::BoundExceeded;
            }
        }
        PumpOutcome::Done
    }

    /// Processes deliveries until every listed reply has arrived,
    /// converting a dry network into a single-attempt timeout (used by
    /// multi-target operations that manage their own request ids).
    fn pump_until(&mut self, req_ids: &[u64], operation: &str) -> Result<(), HadasError> {
        let started = self.net.now();
        match self.pump(req_ids) {
            PumpOutcome::Done => Ok(()),
            PumpOutcome::Dry => Err(HadasError::Timeout {
                operation: operation.to_owned(),
                attempts: 1,
                elapsed: self.net.now().saturating_sub(started),
            }),
            PumpOutcome::BoundExceeded => Err(HadasError::Timeout {
                operation: format!("{operation} (pump bound exceeded)"),
                attempts: 1,
                elapsed: self.net.now().saturating_sub(started),
            }),
        }
    }

    /// Drains every in-flight message (fire-and-forget flows, tests).
    pub fn pump_all(&mut self) {
        while let Some(delivery) = self.net.step() {
            self.handle(delivery);
        }
    }

    /// Fault injection: puts raw bytes on the wire between two sites, as a
    /// hostile or broken peer would. Undecodable traffic must be dropped
    /// by the protocol engine without disturbing real operations.
    ///
    /// # Errors
    ///
    /// Network errors for unknown endpoints.
    pub fn inject_raw(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
    ) -> Result<(), HadasError> {
        self.net.send(from, to, bytes)?;
        Ok(())
    }

    /// Handles one delivery: requests produce replies, replies complete
    /// pending operations. Undecodable traffic is dropped (a hostile peer
    /// cannot wedge the engine).
    fn handle(&mut self, delivery: Delivery) {
        let Ok(msg) = ProtocolMsg::decode(&delivery.payload) else {
            return;
        };
        mrom_obs::fed_recv(delivery.src, delivery.dst, msg.kind());
        // Keep every site's virtual clock in step with the network.
        if let Some(site) = self.sites.get_mut(&delivery.dst) {
            site.runtime.set_now(delivery.at.as_millis());
        }
        // Receiver-side dedup: a request whose id was already served —
        // a network duplicate or a sender retry racing a slow reply — is
        // answered from the reply cache, never re-executed. This is what
        // makes a retried `dispatch_object` unable to double-adopt and a
        // retried invoke of a non-idempotent method exactly-once.
        if Self::is_request(&msg) {
            let cached = self
                .sites
                .get(&delivery.dst)
                .and_then(|site| site.replies.get(&msg.req_id()).cloned());
            if let Some(reply) = cached {
                mrom_obs::fed_dedup(delivery.dst, msg.kind());
                let _ = self.post(delivery.dst, delivery.src, &reply);
                return;
            }
        }
        match msg {
            ProtocolMsg::LinkReq {
                req_id,
                from,
                from_ioo,
            } => {
                let reply = self.handle_link_req(delivery.dst, from, from_ioo, req_id);
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            ProtocolMsg::ImportReq {
                req_id,
                from,
                from_ioo,
                apo_name,
            } => {
                let reply = self.handle_import_req(delivery.dst, from, from_ioo, &apo_name, req_id);
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            ProtocolMsg::InvokeReq {
                req_id,
                caller,
                target,
                method,
                args,
                trace,
                parent_span,
            } => {
                // Continue the sender's trace for the duration of the
                // remote invocation: both halves of the cross-site call
                // share one causally-linked timeline.
                let _scope = mrom_obs::continue_trace(trace, parent_span);
                let reply = match self
                    .sites
                    .get_mut(&delivery.dst)
                    .ok_or(HadasError::UnknownSite(delivery.dst))
                    .and_then(|site| {
                        site.runtime
                            .invoke(caller, target, &method, &args)
                            .map_err(HadasError::Model)
                    }) {
                    Ok(result) => ProtocolMsg::InvokeResp { req_id, result },
                    Err(e) => ProtocolMsg::Error {
                        req_id,
                        reason: e.to_string(),
                    },
                };
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            ProtocolMsg::UpdateReq {
                req_id,
                origin,
                target,
                ops,
            } => {
                let reply = match self.apply_update(delivery.dst, origin, target, &ops) {
                    Ok(applied) => ProtocolMsg::UpdateAck { req_id, applied },
                    Err(e) => ProtocolMsg::Error {
                        req_id,
                        reason: e.to_string(),
                    },
                };
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            ProtocolMsg::MoveObject {
                req_id,
                image,
                trace,
                parent_span,
            } => {
                // The migrating object's trace context travelled with it:
                // adoption and the arrival hook stay on the origin's trace.
                let _scope = mrom_obs::continue_trace(trace, parent_span);
                let reply = match self.handle_move(delivery.dst, delivery.src, &image) {
                    Ok(adopted) => ProtocolMsg::MoveAck { req_id, adopted },
                    Err(e) => ProtocolMsg::Error {
                        req_id,
                        reason: e.to_string(),
                    },
                };
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            ProtocolMsg::QueryObject { req_id, object } => {
                let hosted = self
                    .sites
                    .get(&delivery.dst)
                    .is_some_and(|site| site.runtime.object(object).is_some());
                let reply = ProtocolMsg::QueryAck { req_id, hosted };
                self.reply_to(delivery.dst, delivery.src, req_id, &reply);
            }
            reply @ (ProtocolMsg::LinkAck { .. }
            | ProtocolMsg::ExportAck { .. }
            | ProtocolMsg::InvokeResp { .. }
            | ProtocolMsg::UpdateAck { .. }
            | ProtocolMsg::MoveAck { .. }
            | ProtocolMsg::QueryAck { .. }
            | ProtocolMsg::Error { .. }) => {
                // Only replies someone is still waiting for complete an
                // operation; a duplicate of an already-consumed reply is
                // dropped here instead of leaking into `completed`.
                if self.pending.contains(&reply.req_id()) {
                    self.completed.insert(reply.req_id(), reply);
                }
            }
        }
    }

    /// Is this message a request (something that produces a reply)?
    fn is_request(msg: &ProtocolMsg) -> bool {
        matches!(
            msg,
            ProtocolMsg::LinkReq { .. }
                | ProtocolMsg::ImportReq { .. }
                | ProtocolMsg::InvokeReq { .. }
                | ProtocolMsg::UpdateReq { .. }
                | ProtocolMsg::MoveObject { .. }
                | ProtocolMsg::QueryObject { .. }
        )
    }

    /// Posts `reply` and remembers it in the replying site's dedup cache
    /// so a retransmitted request is answered without re-execution.
    fn reply_to(&mut self, at: NodeId, to: NodeId, req_id: u64, reply: &ProtocolMsg) {
        if let Some(site) = self.sites.get_mut(&at) {
            site.remember_reply(req_id, reply);
        }
        let _ = self.post(at, to, reply);
    }

    fn handle_link_req(
        &mut self,
        at: NodeId,
        from: NodeId,
        _from_ioo: ObjectId,
        req_id: u64,
    ) -> ProtocolMsg {
        let Some(site) = self.sites.get_mut(&at) else {
            return ProtocolMsg::Error {
                req_id,
                reason: format!("no site at {at}"),
            };
        };
        site.links.insert(from);
        // Build an IOO Ambassador: a small mobile object representing this
        // IOO abroad.
        let ioo = site.ioo;
        let amb = mrom_core::ObjectBuilder::new(site.runtime.ids_mut().next_id())
            .class("ioo-ambassador")
            .origin(ioo)
            .fixed_data(
                "represents_site",
                mrom_core::DataItem::public(Value::Int(at.0 as i64)),
            )
            .fixed_data(
                "represents_ioo",
                mrom_core::DataItem::public(Value::ObjectRef(ioo)),
            )
            .fixed_method(
                "site_info",
                mrom_core::Method::public(
                    mrom_core::MethodBody::script(
                        "return {\"site\": self.get(\"represents_site\"), \"ioo\": self.get(\"represents_ioo\")};",
                    )
                    .expect("site_info parses"),
                ),
            )
            .build();
        match amb.image_value().map(|v| mrom_value::wire::encode(&v)) {
            Ok(image) => ProtocolMsg::LinkAck {
                req_id,
                ioo,
                ambassador_image: image,
            },
            Err(e) => ProtocolMsg::Error {
                req_id,
                reason: e.to_string(),
            },
        }
    }

    fn handle_import_req(
        &mut self,
        at: NodeId,
        from: NodeId,
        _from_ioo: ObjectId,
        apo_name: &str,
        req_id: u64,
    ) -> ProtocolMsg {
        let deny = |reason: String| ProtocolMsg::Error { req_id, reason };
        let admission = self.admission;
        let Some(site) = self.sites.get_mut(&at) else {
            return deny(format!("no site at {at}"));
        };
        // Export phase 1: verify the requested APO is accessible to the
        // requesting IOO.
        let Some(&apo_id) = site.apos.get(apo_name) else {
            return deny(format!("no apo named {apo_name:?}"));
        };
        let allowed = match site.policies.get(apo_name).unwrap_or(&ExportPolicy::Linked) {
            ExportPolicy::Linked => site.links.contains(&from),
            ExportPolicy::Sites(set) => set.contains(&from),
            ExportPolicy::Nobody => false,
        };
        if !allowed {
            return deny(format!("export of {apo_name:?} denied to site {from}"));
        }
        // Export phase 2: instantiate the proper APO Ambassador.
        let spec = site.specs.get(apo_name).cloned().unwrap_or_default();
        let Some(apo) = site.runtime.object(apo_id) else {
            return deny(format!("apo object {apo_id} missing"));
        };
        let apo_clone = apo.clone();
        drop(apo);
        let amb_identity = site.runtime.ids_mut().next_id();
        let (ambassador, remote_methods) = match crate::ambassador::instantiate_ambassador_as(
            &apo_clone,
            apo_name,
            at,
            &spec,
            amb_identity,
            admission,
        ) {
            Ok(pair) => pair,
            Err(e) => return deny(e.to_string()),
        };
        let amb_id = ambassador.id();
        // Export phase 3: ship it as data.
        let image = match ambassador
            .image_value()
            .map(|v| mrom_value::wire::encode(&v))
        {
            Ok(bytes) => bytes,
            Err(e) => return deny(e.to_string()),
        };
        site.deployed
            .entry(apo_id)
            .or_default()
            .push((from, amb_id));
        ProtocolMsg::ExportAck {
            req_id,
            ambassador_image: image,
            origin_apo: apo_id,
            remote_methods,
        }
    }

    /// Receives a migrating object: unpack, adopt, run its `on_arrival`
    /// hook (if any) with an arrival context.
    fn handle_move(
        &mut self,
        at: NodeId,
        from: NodeId,
        image: &[u8],
    ) -> Result<ObjectId, HadasError> {
        let obj = self.admit_image(at, image)?;
        let id = obj.id();
        let now = self.net.now().as_millis();
        let site = self.sites.get_mut(&at).ok_or(HadasError::UnknownSite(at))?;
        let host_ioo = site.ioo;
        // Write-ahead: the arriving image goes to the depot before the
        // object runs, so a crash immediately after adoption still
        // restores it. The raw bytes are exactly the migration image.
        let _ = site.depot.store_mut().put(&id.to_string(), image);
        site.runtime.adopt(obj).map_err(HadasError::Model)?;
        mrom_obs::object_adopted(id, at);
        let has_hook = site
            .runtime
            .object(id)
            .is_some_and(|o| o.find_method("on_arrival").is_some());
        if has_hook {
            let context = Value::map([
                ("host_site", Value::Int(at.0 as i64)),
                ("came_from", Value::Int(from.0 as i64)),
                ("host_ioo", Value::ObjectRef(host_ioo)),
                ("arrived_at", Value::Int(now as i64)),
            ]);
            // A failing arrival hook evicts the object back into limbo
            // rather than leaving a half-installed guest.
            if let Err(e) = site.runtime.invoke(host_ioo, id, "on_arrival", &[context]) {
                let _ = site.runtime.evict(id);
                return Err(HadasError::Model(e));
            }
        }
        Ok(id)
    }

    fn apply_update(
        &mut self,
        at: NodeId,
        origin: ObjectId,
        target: ObjectId,
        ops: &[UpdateOp],
    ) -> Result<usize, HadasError> {
        let admission = self.admission;
        let site = self.sites.get_mut(&at).ok_or(HadasError::UnknownSite(at))?;
        if !site.guests.contains_key(&target) {
            return Err(HadasError::UnknownAmbassador(target));
        }
        let obj = site
            .runtime
            .object_mut(target)
            .ok_or(HadasError::Model(MromError::NoSuchObject(target)))?;
        let mut applied = 0;
        for op in ops {
            // Each op runs with the claimed origin principal; the object's
            // own ACLs decide whether that principal is honoured, so a
            // forged origin gains nothing it could not do anyway.
            match op {
                UpdateOp::AddMethod(name, desc) => {
                    let method =
                        mrom_core::Method::from_descriptor(desc).map_err(HadasError::Model)?;
                    obj.add_method_with_policy(origin, name, method, admission)
                        .map_err(|e| refused_at(at, e))?;
                }
                UpdateOp::SetMethod(name, desc) => {
                    obj.set_method_with_policy(origin, name, desc, admission)
                        .map_err(|e| refused_at(at, e))?;
                }
                UpdateOp::DeleteMethod(name) => {
                    obj.delete_method(origin, name).map_err(HadasError::Model)?;
                }
                UpdateOp::AddData(name, value) => {
                    obj.add_data(origin, name, value.clone())
                        .map_err(HadasError::Model)?;
                }
                UpdateOp::SetData(name, value) => {
                    obj.write_data(origin, name, value.clone())
                        .map_err(HadasError::Model)?;
                }
                UpdateOp::InstallMetaInvoke(name) => {
                    obj.install_meta_invoke(origin, name)
                        .map_err(HadasError::Model)?;
                }
                UpdateOp::UninstallMetaInvoke => {
                    obj.uninstall_meta_invoke(origin)
                        .map_err(HadasError::Model)?;
                }
            }
            applied += 1;
            // Migrated methods stop being relayed.
            if let UpdateOp::AddMethod(name, _) = op {
                if let Some(info) = site.guests.get_mut(&target) {
                    info.remote_methods.retain(|m| m != name);
                }
            }
        }
        Ok(applied)
    }

    // -- synchronous operations ----------------------------------------------

    /// Establishes a Link agreement: installs an Ambassador of `to`'s IOO
    /// in `from`'s Vicinity. "This operation is a prerequisite for any
    /// further cooperation between the two IOOs."
    ///
    /// # Errors
    ///
    /// Site errors, [`HadasError::Timeout`] under partition/loss, remote
    /// refusals.
    pub fn link(&mut self, from: NodeId, to: NodeId) -> Result<(), HadasError> {
        let from_ioo = self.ioo_id(from)?;
        self.site(to)?; // fail fast on unknown peer
        let req_id = self.fresh_req_id();
        let reply = self.request(
            from,
            to,
            ProtocolMsg::LinkReq {
                req_id,
                from,
                from_ioo,
            },
        )?;
        match reply {
            ProtocolMsg::LinkAck {
                ambassador_image, ..
            } => {
                let amb = self.admit_image(from, &ambassador_image)?;
                let amb_id = amb.id();
                let site = self.site_mut(from)?;
                site.runtime.adopt(amb).map_err(HadasError::Model)?;
                site.links.insert(to);
                let ioo = site.ioo;
                if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
                    map_insert(
                        ioo_obj,
                        "vicinity",
                        &to.to_string(),
                        Value::ObjectRef(amb_id),
                    );
                }
                Ok(())
            }
            ProtocolMsg::Error { reason, .. } => Err(HadasError::Remote(reason)),
            other => Err(HadasError::BadMessage(format!(
                "unexpected reply to link: {other:?}"
            ))),
        }
    }

    /// Imports an APO from `provider`: the Import/Export handshake. The
    /// Ambassador arrives as data, is unpacked, receives an installation
    /// context, installs itself, and is registered as a guest. Returns its
    /// identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::NotLinked`] without a prior [`Federation::link`];
    /// export denials; transport failures.
    pub fn import_apo(
        &mut self,
        requester: NodeId,
        provider: NodeId,
        apo_name: &str,
    ) -> Result<ObjectId, HadasError> {
        if !self.is_linked(requester, provider) {
            return Err(HadasError::NotLinked {
                from: requester,
                to: provider,
            });
        }
        let from_ioo = self.ioo_id(requester)?;
        let req_id = self.fresh_req_id();
        let reply = self.request(
            requester,
            provider,
            ProtocolMsg::ImportReq {
                req_id,
                from: requester,
                from_ioo,
                apo_name: apo_name.to_owned(),
            },
        )?;
        match reply {
            ProtocolMsg::ExportAck {
                ambassador_image,
                origin_apo,
                remote_methods,
                ..
            } => {
                // "When the Ambassador arrives (as data) the importing IOO
                // unpacks it, passes to it an installation context and
                // invokes the Ambassador, which in turn installs itself."
                let amb = self.admit_image(requester, &ambassador_image)?;
                let amb_id = amb.id();
                let now = self.net.now().as_millis();
                let site = self.site_mut(requester)?;
                let host_ioo = site.ioo;
                site.runtime.adopt(amb).map_err(HadasError::Model)?;
                let context = Value::map([
                    ("host_site", Value::Int(requester.0 as i64)),
                    ("host_ioo", Value::ObjectRef(host_ioo)),
                    ("arrived_at", Value::Int(now as i64)),
                ]);
                site.runtime
                    .invoke(host_ioo, amb_id, "install", &[context])
                    .map_err(HadasError::Model)?;
                site.guests.insert(
                    amb_id,
                    GuestInfo {
                        origin_node: provider,
                        origin_apo,
                        apo_name: apo_name.to_owned(),
                        remote_methods,
                    },
                );
                // Persist the installed guest so a crash here does not
                // silently lose it (best-effort, like any depot save).
                if let Some(guest) = site.runtime.object(amb_id) {
                    let _ = site.depot.save(&guest);
                }
                let ioo = site.ioo;
                if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
                    map_insert(
                        ioo_obj,
                        "guests",
                        &amb_id.to_string(),
                        Value::ObjectRef(origin_apo),
                    );
                }
                Ok(amb_id)
            }
            ProtocolMsg::Error { reason, .. } => Err(HadasError::Remote(reason)),
            other => Err(HadasError::BadMessage(format!(
                "unexpected reply to import: {other:?}"
            ))),
        }
    }

    /// Attempts allowed for one remote invocation under the active
    /// retry policy. [`RetryPolicy::IdempotentOnly`] consults the target
    /// method's interprocedural effect signature and re-posts only when
    /// the signature *proves* idempotence — a missing object, unknown
    /// method, or unprovable body all collapse to a single attempt. (The
    /// simulator owns both sites, so the lookup reads the destination
    /// runtime directly; a distributed deployment would carry the same
    /// signatures as export metadata.) The receiver's reply-dedup cache
    /// stays in place as the dynamic backstop either way.
    fn invoke_attempt_budget(&mut self, to: NodeId, target: ObjectId, method: &str) -> u32 {
        if !self.retry.gates_on_idempotence() {
            return self.retry.max_attempts();
        }
        let proven = self
            .sites
            .get_mut(&to)
            .and_then(|site| site.runtime.object_mut(target))
            .is_some_and(|obj| obj.effects().get(method).is_some_and(|sig| sig.idempotent));
        if proven {
            self.retry.max_attempts()
        } else {
            1
        }
    }

    /// Invokes a method on an object hosted at a remote site, as `caller`.
    ///
    /// # Errors
    ///
    /// Transport failures and remote invocation errors.
    pub fn remote_invoke(
        &mut self,
        from: NodeId,
        to: NodeId,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let span = mrom_obs::fed_op_start(from, "remote_invoke");
        let result = self.remote_invoke_inner(from, to, caller, target, method, args);
        mrom_obs::fed_op_end(span, "remote_invoke", result.is_ok());
        result
    }

    fn remote_invoke_inner(
        &mut self,
        from: NodeId,
        to: NodeId,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        self.site(from)?;
        self.site(to)?;
        mrom_obs::remote_invoke_requested(from, target);
        let attempts = self.invoke_attempt_budget(to, target, method);
        let req_id = self.fresh_req_id();
        let (trace, parent_span) = mrom_obs::current_trace_context();
        let reply = self.request_capped(
            from,
            to,
            ProtocolMsg::InvokeReq {
                req_id,
                caller,
                target,
                method: method.to_owned(),
                args: args.to_vec(),
                trace,
                parent_span,
            },
            attempts,
        )?;
        match reply {
            ProtocolMsg::InvokeResp { result, .. } => Ok(result),
            ProtocolMsg::Error { reason, .. } => Err(HadasError::Remote(reason)),
            other => Err(HadasError::BadMessage(format!(
                "unexpected reply to invoke: {other:?}"
            ))),
        }
    }

    /// Invokes through a hosted Ambassador: locally when the method has
    /// migrated with (or was later pushed to) the Ambassador, relayed to
    /// the origin APO when it stayed home.
    ///
    /// # Errors
    ///
    /// Unknown-ambassador errors, local invocation errors, relay errors,
    /// and [`HadasError::Remote`]/[`HadasError::Timeout`] on the relay
    /// path.
    pub fn call_through_ambassador(
        &mut self,
        host: NodeId,
        caller: ObjectId,
        ambassador: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let site = self.site(host)?;
        let info = site
            .guests
            .get(&ambassador)
            .ok_or(HadasError::UnknownAmbassador(ambassador))?
            .clone();
        // The Ambassador gets first say: if the method migrated with it, it
        // serves locally, and if a meta-invoke tower is installed (e.g. the
        // maintenance notice), the tower intercepts *every* invocation —
        // even of methods that normally relay.
        let try_local = site
            .runtime
            .object(ambassador)
            .is_some_and(|obj| obj.has_method(caller, method) || !obj.tower().is_empty());
        if try_local {
            let site = self.site_mut(host)?;
            match site.runtime.invoke(caller, ambassador, method, args) {
                Ok(v) => return Ok(v),
                // The tower was installed but descended to a method the
                // Ambassador does not carry: fall through to the relay.
                Err(MromError::NoSuchMethod { .. }) => {}
                Err(e) => return Err(HadasError::Model(e)),
            }
        }
        if info.remote_methods.iter().any(|m| m == method) {
            mrom_obs::ambassador_relay(host, ambassador, method);
            return self.remote_invoke(
                host,
                info.origin_node,
                caller,
                info.origin_apo,
                method,
                args,
            );
        }
        Err(HadasError::Model(MromError::NoSuchMethod {
            object: ambassador,
            name: method.to_owned(),
        }))
    }

    /// Pushes structural updates from an origin APO to **all** of its
    /// deployed Ambassadors (the §5 dynamic-update mechanism). Returns the
    /// number of Ambassadors updated.
    ///
    /// # Errors
    ///
    /// Lookup errors, [`HadasError::Timeout`] when some host is
    /// unreachable, [`HadasError::Remote`] when a host rejected the
    /// update.
    pub fn push_update(
        &mut self,
        origin: NodeId,
        apo_name: &str,
        ops: &[UpdateOp],
    ) -> Result<usize, HadasError> {
        let apo_id = self.apo_id(origin, apo_name)?;
        let targets = self.deployed_ambassadors(origin, apo_name)?;
        let mut req_ids = Vec::with_capacity(targets.len());
        let mut posted = Ok(());
        for (host, amb) in &targets {
            let req_id = self.fresh_req_id();
            let msg = ProtocolMsg::UpdateReq {
                req_id,
                origin: apo_id,
                target: *amb,
                ops: ops.to_vec(),
            };
            // Replies only count while their id is pending.
            self.pending.insert(req_id);
            req_ids.push(req_id);
            if let Err(e) = self.post(origin, *host, &msg) {
                posted = Err(e);
                break;
            }
        }
        let pumped = posted.and_then(|()| self.pump_until(&req_ids, "push_update"));
        for req_id in &req_ids {
            self.pending.remove(req_id);
        }
        pumped?;
        let mut updated = 0;
        for req_id in req_ids {
            match self.completed.remove(&req_id) {
                Some(ProtocolMsg::UpdateAck { .. }) => updated += 1,
                Some(ProtocolMsg::Error { reason, .. }) => return Err(HadasError::Remote(reason)),
                other => {
                    return Err(HadasError::BadMessage(format!(
                        "unexpected update reply: {other:?}"
                    )))
                }
            }
        }
        Ok(updated)
    }

    /// Dispatches a whole object to another site — the itinerant-agent
    /// move of the paper's introduction. The object is evicted locally,
    /// serializes itself, travels as data, is adopted at the destination,
    /// and — if it carries an `on_arrival` method — is invoked with an
    /// arrival context so it can install itself and decide its next move.
    ///
    /// Requires a Link agreement between the sites. On transport failure
    /// the object is restored locally (it never ceases to exist).
    ///
    /// # Errors
    ///
    /// Link/lookup errors, [`MromError::NotMobile`] for objects with
    /// native bodies, transport timeouts, and remote refusals.
    pub fn dispatch_object(
        &mut self,
        from: NodeId,
        to: NodeId,
        object: ObjectId,
    ) -> Result<(), HadasError> {
        let span = mrom_obs::fed_op_start(from, "dispatch_object");
        let result = self.dispatch_object_inner(from, to, object);
        mrom_obs::fed_op_end(span, "dispatch_object", result.is_ok());
        result
    }

    /// World calls whose meaning is pinned to the hosting site: `send`
    /// resolves peer `ObjectRef`s against the *local* object table and
    /// `spawn` instantiates from the *local* class registry — neither
    /// reference travels with a migration image. Ambient services
    /// (`log`, `time`, `node`) exist identically at every site and are
    /// migration-portable.
    const SITE_LOCAL_WORLD_CALLS: [&'static str; 2] = ["send", "spawn"];

    /// Under [`AdmissionPolicy::Strict`], refuses to dispatch an object
    /// whose interprocedural effect signatures prove some method
    /// (transitively) depends on site-local world calls — the static
    /// analogue of shipping an agent whose peer references would dangle
    /// on arrival. Signatures are read from the departing object's
    /// generation-stamped cache, so repeat dispatches of an unchanged
    /// object pay no re-analysis.
    fn check_migration_safety(&mut self, from: NodeId, object: ObjectId) -> Result<(), HadasError> {
        let site = self.site_mut(from)?;
        let Some(obj) = site.runtime.object_mut(object) else {
            return Ok(()); // evict reports NoSuchObject with more context
        };
        let effects = obj.effects();
        let site_bound = |sig: &mrom_core::EffectSignature| -> Vec<String> {
            sig.world_calls
                .iter()
                .filter(|c| Self::SITE_LOCAL_WORLD_CALLS.contains(&c.as_str()))
                .cloned()
                .collect()
        };
        // Report a method that *itself* resolves to the calls (not a
        // dynamic join like the `invoke` meta-method, which absorbs
        // every method's effects and would otherwise win by name order).
        let offender = effects
            .iter()
            .filter(|(_, sig)| !sig.dynamic)
            .chain(effects.iter())
            .find_map(|(method, sig)| {
                let bound = site_bound(sig);
                (!bound.is_empty()).then(|| (method.clone(), bound))
            });
        match offender {
            Some((method, world_calls)) => Err(HadasError::MigrationRefused {
                object,
                method,
                world_calls,
            }),
            None => Ok(()),
        }
    }

    fn dispatch_object_inner(
        &mut self,
        from: NodeId,
        to: NodeId,
        object: ObjectId,
    ) -> Result<(), HadasError> {
        if !self.is_linked(from, to) {
            return Err(HadasError::NotLinked { from, to });
        }
        if matches!(self.admission, AdmissionPolicy::Strict) {
            self.check_migration_safety(from, object)?;
        }
        let site = self.site_mut(from)?;
        let obj = site.runtime.evict(object).map_err(HadasError::Model)?;
        let image = match obj.image_value().map(|v| mrom_value::wire::encode(&v)) {
            Ok(bytes) => bytes,
            Err(e) => {
                // Not mobile: put it back, report.
                site.runtime.adopt(obj).expect("just evicted");
                return Err(HadasError::Model(e));
            }
        };
        // Write-ahead: the departing image is parked in the origin depot
        // until the move is acknowledged, so neither a local crash nor a
        // lost acknowledgement can lose the object.
        let _ = site.depot.store_mut().put(&object.to_string(), &image);
        let req_id = self.fresh_req_id();
        mrom_obs::object_dispatched(object, from, to);
        let (trace, parent_span) = mrom_obs::current_trace_context();
        let outcome = self.request(
            from,
            to,
            ProtocolMsg::MoveObject {
                req_id,
                image,
                trace,
                parent_span,
            },
        );
        match outcome {
            Ok(ProtocolMsg::MoveAck { adopted, .. }) if adopted == object => {
                // The destination owns it now: drop the parked image so a
                // later restart here cannot resurrect a second copy.
                let _ = self.site_mut(from)?.depot.remove(object);
                Ok(())
            }
            Ok(ProtocolMsg::Error { reason, .. }) => {
                self.restore_after_failed_move(from, obj)?;
                Err(HadasError::Remote(reason))
            }
            Ok(other) => {
                self.restore_after_failed_move(from, obj)?;
                Err(HadasError::BadMessage(format!(
                    "unexpected reply to move: {other:?}"
                )))
            }
            Err(e @ HadasError::Timeout { .. }) if !self.retry.is_off() => {
                // Every retry was exhausted and we still do not know
                // whether the destination adopted the object. Re-adopting
                // locally could *duplicate* it, so the object is parked
                // in-doubt: its image stays in the depot and
                // [`Federation::resolve_in_doubt`] settles ownership once
                // the network heals.
                self.site_mut(from)?.in_doubt.insert(object, to);
                Err(e)
            }
            Err(e) => {
                self.restore_after_failed_move(from, obj)?;
                Err(e)
            }
        }
    }

    /// Re-adopts an object whose move definitively failed (the peer
    /// refused it, so it cannot exist remotely) and keeps its depot image
    /// in step with the live copy.
    fn restore_after_failed_move(
        &mut self,
        from: NodeId,
        obj: MromObject,
    ) -> Result<(), HadasError> {
        self.site_mut(from)?
            .runtime
            .adopt(obj)
            .expect("identity unused after failed move");
        Ok(())
    }

    // -- crash and recovery --------------------------------------------------

    /// Simulates a fail-stop crash of a site: the network drops all of
    /// its traffic, every live object vanishes from its runtime, and the
    /// volatile reply cache is wiped. The depot — the site's
    /// self-contained persistent store (paper §9) — survives and is what
    /// [`Federation::restart_site`] bootstraps from.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`] / network errors.
    pub fn crash_site(&mut self, node: NodeId) -> Result<(), HadasError> {
        self.site(node)?;
        self.net.crash_node(node)?;
        let site = self.sites.get_mut(&node).expect("checked above");
        for id in site.runtime.object_ids() {
            let _ = site.runtime.evict(id);
        }
        site.replies.clear();
        mrom_obs::site_crash(node);
        Ok(())
    }

    /// Restarts a crashed site: reconnects it to the network and
    /// bootstraps every object in its depot back into the runtime — the
    /// paper's "objects write themselves to and bootstrap themselves
    /// back from persistent store" recovery model. Corrupt depot entries
    /// are quarantined rather than aborting the restart, and a lost IOO
    /// image degrades to a fresh (empty) IOO so the site stays operable.
    /// Returns `(restored, quarantined)` counts.
    ///
    /// Objects parked in-doubt by a failed migration are deliberately
    /// *not* re-adopted — their ownership is unknown until
    /// [`Federation::resolve_in_doubt`] settles it.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`] / network errors.
    pub fn restart_site(&mut self, node: NodeId) -> Result<(u64, u64), HadasError> {
        self.site(node)?;
        self.net.restart_node(node)?;
        let now = self.net.now().as_millis();
        let site = self.sites.get_mut(&node).expect("checked above");
        let (objects, failures) = site.depot.restore_all();
        let quarantined = failures.len() as u64;
        let mut restored = 0u64;
        for obj in objects {
            let id = obj.id();
            if site.in_doubt.contains_key(&id) || site.runtime.object(id).is_some() {
                continue;
            }
            if site.runtime.adopt(obj).is_ok() {
                restored += 1;
            }
        }
        if site.runtime.object(site.ioo).is_none() {
            let ioo_obj = crate::ioo::build_ioo_as(site.runtime.ids_mut().next_id(), node);
            let ioo = ioo_obj.id();
            let _ = site.depot.save(&ioo_obj);
            site.runtime.adopt(ioo_obj).map_err(HadasError::Model)?;
            site.ioo = ioo;
        }
        site.runtime.set_now(now);
        mrom_obs::site_restart(node, restored, quarantined);
        Ok((restored, quarantined))
    }

    /// Checkpoints every live *mobile* object at a site into its depot,
    /// refreshing any stale write-ahead images. Objects with native
    /// bodies cannot serialise and are skipped. Returns the number
    /// saved.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`]; [`HadasError::Persist`] on backend
    /// failures.
    pub fn checkpoint_site(&mut self, node: NodeId) -> Result<usize, HadasError> {
        let site = self.site_mut(node)?;
        let ids = site.runtime.object_ids();
        let objects = ids.iter().filter_map(|id| site.runtime.object(*id));
        let (saved, _pinned) = site
            .depot
            .checkpoint(objects)
            .map_err(|e| HadasError::Persist(e.to_string()))?;
        Ok(saved)
    }

    /// Settles every in-doubt migration parked at `node` by asking each
    /// intended destination whether the object landed: if it did, the
    /// local depot image is dropped (the destination owns it); if not,
    /// the object is bootstrapped back from the depot (we own it). A
    /// destination that is still unreachable leaves its entry parked for
    /// a later call. Returns the number of migrations resolved.
    ///
    /// # Errors
    ///
    /// Lookup errors, [`HadasError::Persist`] when a parked image cannot
    /// be restored, protocol errors.
    pub fn resolve_in_doubt(&mut self, node: NodeId) -> Result<usize, HadasError> {
        let parked: Vec<(ObjectId, NodeId)> = self
            .site(node)?
            .in_doubt
            .iter()
            .map(|(object, dest)| (*object, *dest))
            .collect();
        let mut resolved = 0;
        for (object, dest) in parked {
            let req_id = self.fresh_req_id();
            let reply = match self.request(node, dest, ProtocolMsg::QueryObject { req_id, object })
            {
                Ok(r) => r,
                Err(HadasError::Timeout { .. }) => continue,
                Err(e) => return Err(e),
            };
            match reply {
                ProtocolMsg::QueryAck { hosted: true, .. } => {
                    let site = self.site_mut(node)?;
                    let _ = site.depot.remove(object);
                    site.in_doubt.remove(&object);
                    resolved += 1;
                }
                ProtocolMsg::QueryAck { hosted: false, .. } => {
                    let site = self.site_mut(node)?;
                    let obj = site
                        .depot
                        .restore(object)
                        .map_err(|e| HadasError::Persist(e.to_string()))?;
                    site.runtime.adopt(obj).map_err(HadasError::Model)?;
                    site.in_doubt.remove(&object);
                    resolved += 1;
                }
                other => {
                    return Err(HadasError::BadMessage(format!(
                        "unexpected reply to query: {other:?}"
                    )))
                }
            }
        }
        Ok(resolved)
    }

    /// The migrations parked in-doubt at a site, as `(object, intended
    /// destination)` pairs.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn in_doubt(&self, node: NodeId) -> Result<Vec<(ObjectId, NodeId)>, HadasError> {
        Ok(self
            .site(node)?
            .in_doubt
            .iter()
            .map(|(object, dest)| (*object, *dest))
            .collect())
    }

    /// Is the site currently crashed?
    pub fn is_down(&self, node: NodeId) -> bool {
        self.net.is_down(node)
    }

    /// Messages currently on the wire (chaos invariant checks).
    pub fn in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Installs an *interoperability program* — a coordination-level
    /// script — into a site's IOO (Figure 2's **Interop** component).
    ///
    /// The program runs on the IOO object and may reach every object
    /// hosted at the site (local APOs and guest Ambassadors alike) through
    /// `self.send(ref, method, args)`; it is how "(dynamic) control- and
    /// data-flow between (integrated, interconnected and configured)
    /// components" is specified.
    ///
    /// # Errors
    ///
    /// Site errors, script parse errors, and duplicate program names.
    pub fn install_interop_program(
        &mut self,
        node: NodeId,
        name: &str,
        source: &str,
    ) -> Result<(), HadasError> {
        let site = self.site_mut(node)?;
        let ioo = site.ioo;
        let program = mrom_core::Method::public(
            mrom_core::MethodBody::script(source).map_err(HadasError::Model)?,
        );
        site.runtime
            .object_mut(ioo)
            .ok_or(HadasError::Model(MromError::NoSuchObject(ioo)))?
            .add_method(mrom_value::ObjectId::SYSTEM, name, program)
            .map_err(HadasError::Model)
    }

    /// Runs an installed interoperability program with the system
    /// principal, returning its result.
    ///
    /// # Errors
    ///
    /// Site errors and whatever the program raises.
    pub fn run_interop(
        &mut self,
        node: NodeId,
        name: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let site = self.site_mut(node)?;
        let ioo = site.ioo;
        site.runtime
            .invoke_as_system(ioo, name, args)
            .map_err(HadasError::Model)
    }

    /// The guest Ambassadors hosted at a site, as `(ambassador id, origin
    /// APO name)` pairs — what an interop program enumerates to find its
    /// components.
    ///
    /// # Errors
    ///
    /// Site errors.
    pub fn guests(&self, node: NodeId) -> Result<Vec<(ObjectId, String)>, HadasError> {
        Ok(self
            .site(node)?
            .guests
            .iter()
            .map(|(id, info)| (*id, info.apo_name.clone()))
            .collect())
    }

    /// Migrates a method from an APO to all of its deployed Ambassadors:
    /// "The dynamic migration of functionality (methods) and data from the
    /// APO to its ambassador ... can be done using the meta-methods."
    /// After migration the method is served locally at every hosting site.
    ///
    /// # Errors
    ///
    /// Lookup errors, non-mobile methods, transport failures.
    pub fn migrate_method(
        &mut self,
        origin: NodeId,
        apo_name: &str,
        method: &str,
    ) -> Result<usize, HadasError> {
        let apo_id = self.apo_id(origin, apo_name)?;
        // The APO reads its own method definition (full descriptor); scope
        // the object guard so the site borrow ends before push_update.
        let desc = {
            let site = self.site(origin)?;
            let apo = site
                .runtime
                .object(apo_id)
                .ok_or(HadasError::Model(MromError::NoSuchObject(apo_id)))?;
            apo.method_descriptor(apo_id, method)
                .map_err(HadasError::Model)?
        };
        // ... and pushes it to every Ambassador via addMethod.
        self.push_update(
            origin,
            apo_name,
            &[UpdateOp::AddMethod(method.to_owned(), desc)],
        )
    }

    /// Negotiates the import of one method from a provider's APO into
    /// the guest Ambassador hosted at `consumer` — the marketplace
    /// transaction: discovery via the advertised capability card,
    /// admission via the card's world-call listing, then a targeted
    /// functionality migration.
    ///
    /// The consumer first consults the Ambassador's `capability_card`
    /// data (see [`AmbassadorSpec::with_capability_card`]): under
    /// [`AdmissionPolicy::Strict`] a method whose card lists site-local
    /// world calls (`send`, `spawn` — references that would dangle away
    /// from the origin) is refused *before any bytes move*, the static
    /// [`HadasError::MigrationRefused`] contract of
    /// [`Federation::dispatch_object`] applied to functionality instead
    /// of whole objects. Otherwise the provider pushes the method
    /// descriptor to that one Ambassador (a targeted
    /// [`UpdateOp::AddMethod`]); from then on the importing site serves
    /// it locally and drops it from the relay set, and the method's
    /// effect signature is re-solved lazily *on the importing host* the
    /// first time anything asks — imported capability, local proof.
    ///
    /// Returns the guest Ambassador's identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::NotLinked`] without a Link agreement;
    /// [`HadasError::UnknownApo`] when no guest of that APO is hosted at
    /// `consumer`; [`HadasError::MigrationRefused`] under `Strict` for a
    /// card-flagged method; lookup, transport, and remote errors
    /// otherwise.
    pub fn negotiate_method_import(
        &mut self,
        consumer: NodeId,
        provider: NodeId,
        apo_name: &str,
        method: &str,
    ) -> Result<ObjectId, HadasError> {
        if !self.is_linked(consumer, provider) {
            return Err(HadasError::NotLinked {
                from: consumer,
                to: provider,
            });
        }
        let amb_id = self
            .site(consumer)?
            .guests
            .iter()
            .find(|(_, info)| info.origin_node == provider && info.apo_name == apo_name)
            .map(|(id, _)| *id)
            .ok_or_else(|| HadasError::UnknownApo(apo_name.to_owned()))?;

        // Admission by advertisement: the card travelled with the guest,
        // so the refusal is a local decision — no wire round-trip.
        if matches!(self.admission, AdmissionPolicy::Strict) {
            let offending: Vec<String> = self
                .site(consumer)?
                .runtime
                .object(amb_id)
                .and_then(|amb| amb.read_data(ObjectId::SYSTEM, "capability_card").ok())
                .as_ref()
                .and_then(Value::as_map)
                .and_then(|card| card.get(method))
                .and_then(Value::as_map)
                .and_then(|entry| entry.get("world"))
                .and_then(Value::as_list)
                .into_iter()
                .flatten()
                .filter_map(Value::as_str)
                .filter(|c| Self::SITE_LOCAL_WORLD_CALLS.contains(c))
                .map(str::to_owned)
                .collect();
            if !offending.is_empty() {
                return Err(HadasError::MigrationRefused {
                    object: amb_id,
                    method: method.to_owned(),
                    world_calls: offending,
                });
            }
        }

        // The provider reads its APO's full method definition and pushes
        // it to this one Ambassador.
        let apo_id = self.apo_id(provider, apo_name)?;
        let desc = {
            let site = self.site(provider)?;
            let apo = site
                .runtime
                .object(apo_id)
                .ok_or(HadasError::Model(MromError::NoSuchObject(apo_id)))?;
            apo.method_descriptor(apo_id, method)
                .map_err(HadasError::Model)?
        };
        let req_id = self.fresh_req_id();
        let msg = ProtocolMsg::UpdateReq {
            req_id,
            origin: apo_id,
            target: amb_id,
            ops: vec![UpdateOp::AddMethod(method.to_owned(), desc)],
        };
        self.pending.insert(req_id);
        let posted = self.post(provider, consumer, &msg);
        let pumped = posted.and_then(|()| self.pump_until(&[req_id], "negotiate_method_import"));
        self.pending.remove(&req_id);
        pumped?;
        match self.completed.remove(&req_id) {
            Some(ProtocolMsg::UpdateAck { .. }) => Ok(amb_id),
            Some(ProtocolMsg::Error { reason, .. }) => Err(HadasError::Remote(reason)),
            other => Err(HadasError::BadMessage(format!(
                "unexpected import-negotiation reply: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
    use mrom_net::LinkConfig;

    fn db_apo_class() -> ClassSpec {
        ClassSpec::new("employee-db")
            .fixed_data("rows", DataItem::public(Value::Int(3)))
            .fixed_method(
                "count",
                Method::public(MethodBody::script("return self.get(\"rows\");").unwrap()),
            )
            .fixed_method(
                "salary_of",
                Method::public(
                    MethodBody::script(
                        "param name; return {\"alice\": 100, \"bob\": 90, \"eve\": 80}[name];",
                    )
                    .unwrap(),
                ),
            )
    }

    fn two_site_federation() -> (Federation, NodeId, NodeId) {
        let cfg = NetworkConfig::new(3).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let a = NodeId(1);
        let b = NodeId(2);
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        (fed, a, b)
    }

    fn integrate_db(fed: &mut Federation, at: NodeId, export: &[&str]) -> ObjectId {
        let apo =
            db_apo_class().instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let spec = AmbassadorSpec::relay_only()
            .with_methods(export.iter().copied())
            .with_data(["rows"]);
        fed.integrate_apo(at, "db", apo, spec).unwrap()
    }

    #[test]
    fn link_installs_vicinity_ambassador() {
        let (mut fed, a, b) = two_site_federation();
        assert!(!fed.is_linked(a, b));
        fed.link(a, b).unwrap();
        assert!(fed.is_linked(a, b));
        assert!(fed.is_linked(b, a), "provider records the partner too");
        // The vicinity map holds the ambassador; the object answers.
        let ioo = fed.ioo_id(a).unwrap();
        let vicinity = fed
            .runtime(a)
            .unwrap()
            .object(ioo)
            .unwrap()
            .read_data(ObjectId::SYSTEM, "vicinity")
            .unwrap();
        let amb_ref = vicinity.as_map().unwrap()["n2"].as_object_ref().unwrap();
        let info = fed
            .runtime_mut(a)
            .unwrap()
            .invoke_as_system(amb_ref, "site_info", &[])
            .unwrap();
        assert_eq!(info.as_map().unwrap()["site"], Value::Int(2));
    }

    #[test]
    fn import_requires_link() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::NotLinked { .. })
        ));
    }

    #[test]
    fn import_export_ships_a_working_ambassador() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        // Installed itself with the context.
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();
        let installed = fed
            .runtime(a)
            .unwrap()
            .object(amb)
            .unwrap()
            .read_data(caller, "installed")
            .unwrap();
        assert_eq!(installed, Value::Bool(true));
        // Exported method runs locally at A.
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::Int(3));
        // Non-exported method relays to the origin at B.
        let out = fed
            .call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("alice")])
            .unwrap();
        assert_eq!(out, Value::Int(100));
        // Guest bookkeeping.
        let info = fed.guest_info(a, amb).unwrap();
        assert_eq!(info.origin_node, b);
        assert_eq!(info.apo_name, "db");
        assert!(info.remote_methods.contains(&"salary_of".to_owned()));
    }

    #[test]
    fn export_policy_denies_unauthorized_sites() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.set_export_policy(b, "db", ExportPolicy::Nobody)
            .unwrap();
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::Remote(reason)) if reason.contains("denied")
        ));
        fed.set_export_policy(b, "db", ExportPolicy::Sites([a].into()))
            .unwrap();
        assert!(fed.import_apo(a, b, "db").is_ok());
    }

    #[test]
    fn unknown_apo_import_fails_remotely() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        assert!(matches!(
            fed.import_apo(a, b, "ghost"),
            Err(HadasError::Remote(_))
        ));
    }

    #[test]
    fn migrate_method_moves_functionality_to_the_edge() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();

        let before_relay = fed.net_stats().messages_sent;
        fed.call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("bob")])
            .unwrap();
        assert!(
            fed.net_stats().messages_sent > before_relay,
            "relayed over the net"
        );

        // Migrate salary_of into the deployed ambassador.
        assert_eq!(fed.migrate_method(b, "db", "salary_of").unwrap(), 1);

        let before_local = fed.net_stats().messages_sent;
        let out = fed
            .call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("bob")])
            .unwrap();
        assert_eq!(out, Value::Int(90));
        assert_eq!(
            fed.net_stats().messages_sent,
            before_local,
            "served locally after migration"
        );
    }

    #[test]
    fn push_update_rewrites_remote_semantics() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();

        // The origin pushes a maintenance meta-invoke (the §5 example).
        let updated = fed
            .push_update(
                b,
                "db",
                &[
                    UpdateOp::AddMethod(
                        "maintenance_notice".into(),
                        Value::map([
                            (
                                "body",
                                Value::from("return \"database is down for maintenance\";"),
                            ),
                            ("invoke_acl", Value::from("public")),
                        ]),
                    ),
                    UpdateOp::InstallMetaInvoke("maintenance_notice".into()),
                ],
            )
            .unwrap();
        assert_eq!(updated, 1);
        // Every invocation on the ambassador now echoes the notice.
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::from("database is down for maintenance"));
        // Back to normal after the uninstall push.
        fed.push_update(b, "db", &[UpdateOp::UninstallMetaInvoke])
            .unwrap();
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::Int(3));
    }

    #[test]
    fn partition_times_out_cleanly() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.net_config_mut().partition(a, b);
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::Timeout { .. })
        ));
        fed.net_config_mut().heal(a, b);
        assert!(fed.import_apo(a, b, "db").is_ok());
    }

    #[test]
    fn hostile_host_cannot_update_a_guest_with_forged_origin() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        // Site A (the host) forges an update claiming some random origin.
        let forged = fed.runtime_mut(a).unwrap().ids_mut().next_id();
        let site_b_view = fed.apo_id(b, "db").unwrap();
        assert_ne!(forged, site_b_view);
        let err = fed
            .apply_update(
                a,
                forged,
                amb,
                &[UpdateOp::AddData("evil".into(), Value::Null)],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HadasError::Model(MromError::AccessDenied { .. })
        ));
    }

    #[test]
    fn site_stats_reflect_topology() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.import_apo(a, b, "db").unwrap();
        let sa = fed.site_stats(a).unwrap();
        let sb = fed.site_stats(b).unwrap();
        assert_eq!(sa.guests, 1);
        assert_eq!(sa.apos, 0);
        assert_eq!(sb.apos, 1);
        assert_eq!(sb.deployed, 1);
        assert_eq!(sa.links, 1);
        assert_eq!(sb.links, 1);
    }

    #[test]
    fn virtual_time_advances_with_traffic() {
        let (mut fed, a, b) = two_site_federation();
        assert_eq!(fed.now(), SimTime::ZERO);
        fed.link(a, b).unwrap();
        assert!(fed.now() > SimTime::ZERO);
    }

    /// A mobile object with a non-idempotent method: double-application
    /// is directly visible in its counter.
    fn counter_object(fed: &mut Federation, at: NodeId) -> ObjectId {
        let obj = ClassSpec::new("counter")
            .fixed_data("n", DataItem::public(Value::Int(0)))
            .fixed_method(
                "bump",
                Method::public(
                    MethodBody::script(
                        "self.set(\"n\", self.get(\"n\") + 1); return self.get(\"n\");",
                    )
                    .unwrap(),
                ),
            )
            .instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(at).unwrap().adopt(obj).unwrap();
        id
    }

    #[test]
    fn retry_recovers_operations_loss_would_fail() {
        // Same seed, same lossy link; the only variable is the policy.
        let run = |policy: crate::RetryPolicy| {
            let cfg = NetworkConfig::new(2).with_default_link(LinkConfig::lan());
            let mut fed = Federation::new(cfg);
            let (a, b) = (NodeId(1), NodeId(2));
            fed.add_site(a).unwrap();
            fed.add_site(b).unwrap();
            fed.link(a, b).unwrap();
            let id = counter_object(&mut fed, b);
            fed.set_retry_policy(policy);
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan().loss_probability(0.35));
            let caller = fed.ioo_id(a).unwrap();
            let mut ok = 0;
            for _ in 0..6 {
                if fed.remote_invoke(a, b, caller, id, "bump", &[]).is_ok() {
                    ok += 1;
                }
            }
            let n = fed
                .runtime(b)
                .unwrap()
                .object(id)
                .unwrap()
                .read_data(ObjectId::SYSTEM, "n")
                .unwrap()
                .as_int()
                .unwrap();
            (ok, n, fed.net_stats().messages_dropped)
        };
        let (ok_off, n_off, dropped_off) = run(crate::RetryPolicy::Off);
        let (ok_retry, n_retry, dropped_retry) = run(crate::RetryPolicy::standard());
        assert!(
            dropped_off > 0 && dropped_retry > 0,
            "the loss actually bit"
        );
        assert_eq!(ok_off, 2, "without retries most calls fail on this seed");
        assert_eq!(ok_retry, 6, "retries recover every call");
        // Exactly-once under retries: every acknowledged call applied
        // exactly once, no retransmission applied twice.
        assert_eq!(n_retry, 6);
        assert!(n_off >= i64::from(ok_off));
    }

    #[test]
    fn duplicated_delivery_cannot_double_adopt_or_double_apply() {
        let cfg = NetworkConfig::new(5).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b) = (NodeId(1), NodeId(2));
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.net_config_mut()
            .set_symmetric_link(a, b, LinkConfig::lan().duplicate_probability(1.0));
        // Every MoveObject arrives twice; the second must hit the reply
        // cache, not adopt a second copy.
        fed.dispatch_object(a, b, id).unwrap();
        fed.pump_all();
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        // Every InvokeReq arrives twice; bump must apply exactly once.
        let caller = fed.ioo_id(a).unwrap();
        let first = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        let second = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        assert_eq!(first, Value::Int(1));
        assert_eq!(second, Value::Int(2));
        fed.pump_all();
        assert!(fed.net_stats().messages_duplicated > 0);
        assert!(fed.net_stats().accounts_for_every_send(fed.in_flight()));
    }

    #[test]
    fn lost_acks_park_the_move_in_doubt_and_resolution_finds_it_landed() {
        let cfg = NetworkConfig::new(9).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b) = (NodeId(1), NodeId(2));
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.set_retry_policy(crate::RetryPolicy::standard());
        // Forward path intact, every acknowledgement lost.
        fed.net_config_mut()
            .set_link(b, a, LinkConfig::lan().loss_probability(1.0));
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        assert!(matches!(err, HadasError::Timeout { attempts: 5, .. }));
        // The move actually landed; the origin parked it instead of
        // re-adopting a duplicate.
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, b)]);
        // After the heal, resolution discovers the destination owns it.
        fed.net_config_mut().set_link(b, a, LinkConfig::lan());
        assert_eq!(fed.resolve_in_doubt(a).unwrap(), 1);
        assert!(fed.in_doubt(a).unwrap().is_empty());
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn partitioned_dispatch_parks_in_doubt_and_resolution_restores_it() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.set_retry_policy(crate::RetryPolicy::standard());
        fed.net_config_mut().partition(a, b);
        let text = fed.dispatch_object(a, b, id).unwrap_err().to_string();
        // The timeout names the request, not the migration image it carried.
        assert!(text.contains("move_object"), "{text}");
        assert!(text.len() < 200, "{} bytes: {text}", text.len());
        // Nobody hosts it, but the depot still does.
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_none());
        assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, b)]);
        fed.net_config_mut().heal(a, b);
        assert_eq!(fed.resolve_in_doubt(a).unwrap(), 1);
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        // The resumed move completes normally.
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn off_policy_failed_dispatch_restores_the_object_locally() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        assert!(fed.retry_policy().is_off(), "Off is the default");
        fed.net_config_mut().partition(a, b);
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        // Single attempt, historical restore-locally behaviour.
        assert!(matches!(err, HadasError::Timeout { attempts: 1, .. }));
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        assert!(fed.in_doubt(a).unwrap().is_empty());
    }

    /// Adopts a scripted object at `at` and returns its identity.
    fn scripted_object(fed: &mut Federation, at: NodeId, methods: &[(&str, &str)]) -> ObjectId {
        let mut spec = ClassSpec::new("fx").fixed_data("peer", DataItem::public(Value::Null));
        for (name, src) in methods {
            spec = spec.fixed_method(name, Method::public(MethodBody::script(src).unwrap()));
        }
        let obj = spec.instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(at).unwrap().adopt(obj).unwrap();
        id
    }

    #[test]
    fn invoke_attempt_budget_consults_signatures() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = scripted_object(
            &mut fed,
            b,
            &[
                ("bump", "self.set(\"n\", self.get(\"n\") + 1); return null;"),
                ("reset", "self.set(\"n\", 0); return null;"),
                ("peek", "return self.get(\"n\");"),
            ],
        );
        fed.set_retry_policy(crate::RetryPolicy::idempotent_only(
            5,
            SimTime::from_millis(10),
            2,
            0,
        ));
        // Provably idempotent (constant write / pure read): full budget.
        assert_eq!(fed.invoke_attempt_budget(b, id, "reset"), 5);
        assert_eq!(fed.invoke_attempt_budget(b, id, "peek"), 5);
        // Read-modify-write is not idempotent: one attempt.
        assert_eq!(fed.invoke_attempt_budget(b, id, "bump"), 1);
        // Unknown method or object: nothing provable, one attempt.
        assert_eq!(fed.invoke_attempt_budget(b, id, "absent"), 1);
        let ghost = ObjectId::from_parts(b, 9_999, 1);
        assert_eq!(fed.invoke_attempt_budget(b, ghost, "reset"), 1);
        // A plain backoff policy never gates.
        fed.set_retry_policy(crate::RetryPolicy::standard());
        assert_eq!(fed.invoke_attempt_budget(b, id, "bump"), 5);
    }

    #[test]
    fn strict_admission_refuses_dispatch_of_site_bound_objects() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = scripted_object(
            &mut fed,
            a,
            &[
                (
                    "relay",
                    "return self.send(self.get(\"peer\"), \"peek\", []);",
                ),
                ("note", "self.log(\"here\"); return null;"),
            ],
        );
        fed.set_admission_policy(AdmissionPolicy::Strict);
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        match err {
            HadasError::MigrationRefused {
                object,
                method,
                world_calls,
            } => {
                assert_eq!(object, id);
                assert_eq!(
                    method, "relay",
                    "the concrete offender, not the invoke join"
                );
                assert_eq!(world_calls, vec!["send".to_owned()]);
            }
            other => panic!("expected MigrationRefused, got {other}"),
        }
        // Refused before eviction: the object never left.
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        // Dropping back to Warn lets the same object travel.
        fed.set_admission_policy(AdmissionPolicy::Warn);
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn strict_admission_ships_portable_objects() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        // Ambient world services (`log`, `time`, `node`) exist at every
        // site: signatures naming only those stay migration-portable.
        let id = scripted_object(
            &mut fed,
            a,
            &[(
                "stamp",
                "self.set(\"peer\", self.time()); self.log(\"moved\"); return null;",
            )],
        );
        fed.set_admission_policy(AdmissionPolicy::Strict);
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn crash_and_restart_bootstrap_objects_from_the_depot() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.dispatch_object(a, b, id).unwrap();
        fed.crash_site(b).unwrap();
        assert!(fed.is_down(b));
        assert!(fed.runtime(b).unwrap().object(id).is_none());
        // Traffic to the crashed site fails cleanly.
        let caller = fed.ioo_id(a).unwrap();
        assert!(matches!(
            fed.remote_invoke(a, b, caller, id, "bump", &[]),
            Err(HadasError::Timeout { .. })
        ));
        let (restored, quarantined) = fed.restart_site(b).unwrap();
        assert!(!fed.is_down(b));
        assert_eq!(quarantined, 0);
        assert!(restored >= 1, "the migrated object came back");
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        // And it serves again.
        let out = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        assert_eq!(out, Value::Int(1));
    }

    #[test]
    fn checkpoint_preserves_state_across_a_crash() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.dispatch_object(a, b, id).unwrap();
        let caller = fed.ioo_id(a).unwrap();
        fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        // Without a checkpoint the depot still holds the arrival image;
        // checkpointing refreshes it to n = 2.
        assert!(fed.checkpoint_site(b).unwrap() >= 1);
        fed.crash_site(b).unwrap();
        fed.restart_site(b).unwrap();
        let n = fed
            .runtime(b)
            .unwrap()
            .object(id)
            .unwrap()
            .read_data(ObjectId::SYSTEM, "n")
            .unwrap();
        assert_eq!(n, Value::Int(2), "checkpointed state survived the crash");
    }

    #[test]
    fn retry_policy_off_by_default_and_swappable() {
        let (mut fed, _a, _b) = two_site_federation();
        assert!(fed.retry_policy().is_off());
        let prev = fed.set_retry_policy(crate::RetryPolicy::standard());
        assert!(prev.is_off());
        assert!(!fed.retry_policy().is_off());
    }
}
