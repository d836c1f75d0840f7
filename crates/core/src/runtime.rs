//! Node runtime: the per-node object table, safe to drive from many
//! threads at once.
//!
//! A [`Runtime`] owns every object hosted on one logical node, mints
//! identities through the node's generator, and implements the
//! `send`/`spawn`/`log`/`time` world operations for method bodies.
//! Cross-node communication is *not* here — it belongs to the network
//! substrate and HADAS, which wrap a runtime per simulated node.
//!
//! The object table is split into [`SHARD_COUNT`] hash-sharded maps, each
//! behind its own `RwLock`; an invocation **checks its target out** under
//! the shard's write lock (flipping the slot from `Present` to `Busy`),
//! executes the level-0 Lookup→Match→Apply **without holding any lock** —
//! the `Arc<str>` tower and `Arc`-backed method handles make all hot
//! dispatch state shareable — and checks the object back in when done.
//! Concurrent calls to the *same* object observe the `Busy` slot and
//! report [`MromError::ObjectBusy`]; calls to *different* objects proceed
//! truly in parallel. Holders of `&mut Runtime` get lock-free access to
//! the class registry and to hosted objects ([`Runtime::classes_mut`],
//! [`Runtime::object_mut`]).
//!
//! Why object granularity? In MROM, each object carries its own dispatch
//! state, generation stamp, and ACLs — security and encapsulation are the
//! same per-item mechanism — so the object is the natural unit of mutual
//! exclusion: no lock ordering between objects is ever needed, because no
//! invocation holds two objects at once (nested `send`s check the callee
//! out *after* the caller, and a cycle surfaces as `ObjectBusy`).
//!
//! ## Slot state machine
//!
//! ```text
//!            checkout               checkin
//!  Present ───────────▶ Busy ───────────────▶ Present
//!                        │
//!                        │ body panicked (caught via catch_unwind)
//!                        ▼
//!                     Poisoned(cause)   — surfaces as ObjectBusy;
//!                                         inspect via poison_cause(),
//!                                         reclaim via clear_poisoned()
//! ```
//!
//! A panicking method body must **never leak** the checked-out object:
//! the slot is poisoned (not removed), so later callers get a truthful
//! `ObjectBusy` with a structured, retrievable cause instead of a
//! mysterious `NoSuchObject`.
//!
//! ## Lock order
//!
//! `classes → ids → one shard`, and **nothing** is held while a method
//! body runs. At most one shard lock is ever held at a time; no code path
//! takes two shards. The `ids` generator holds its own short lock for one
//! mint only, and the virtual clock is atomic.
//!
//! ## Migration interlock
//!
//! [`Runtime::evict`] (the local half of migration) refuses `Busy`
//! and `Poisoned` slots with [`MromError::ObjectBusy`], so a `MoveObject`
//! can never capture an object mid-execution: the image is taken either
//! before checkout or after checkin, never in between.

use std::collections::HashMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use mrom_value::{AtomicIdGenerator, NodeId, ObjectId, Value};

use crate::class::ClassRegistry;
use crate::error::MromError;
use crate::invoke::{InvokeLimits, WorldHook};
use crate::object::MromObject;

/// Number of hash shards in the object table. A small power of two: large
/// enough that 8 workers rarely collide on a shard lock, small enough
/// that whole-table scans (`object_ids`) stay cheap.
pub const SHARD_COUNT: usize = 16;

/// Structured cause attached to a poisoned object-table entry when a method
/// body panics inside a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonCause {
    /// The method whose body panicked.
    pub method: String,
    /// The panic payload, downcast to a string where possible.
    pub message: String,
}

impl std::fmt::Display for PoisonCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "body of {:?} panicked: {}", self.method, self.message)
    }
}

/// One entry of the sharded object table.
///
/// Almost every slot is `Present` — `Busy`/`Poisoned` are transient —
/// so boxing the object to shrink the rare variants would put a pointer
/// chase on every read and checkout for no space win in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Slot {
    /// Hosted and at rest — available for checkout, reads, and eviction.
    Present(MromObject),
    /// Checked out by an in-flight invocation. A checkout stores nothing
    /// here (an empty `Vec` does not allocate); while observability is
    /// enabled, each caller that collides with the holder appends its
    /// incoming selector, and the holder classifies those collisions by
    /// effect-signature disjointness when it checks the object back in.
    Busy(Vec<String>),
    /// A body panicked while the object was checked out; the (possibly
    /// torn) object was discarded, the identity and cause retained.
    Poisoned(PoisonCause),
}

type Shard = HashMap<ObjectId, Slot>;

/// Read access to one hosted object, held open by a shard read guard.
///
/// Dereferences to [`MromObject`]. The guard pins the shard against
/// writers, so keep it short-lived — in particular, do not call back into
/// the runtime while holding one.
pub struct ObjectGuard<'a> {
    shard: RwLockReadGuard<'a, Shard>,
    id: ObjectId,
}

impl Deref for ObjectGuard<'_> {
    type Target = MromObject;

    fn deref(&self) -> &MromObject {
        match self.shard.get(&self.id) {
            Some(Slot::Present(obj)) => obj,
            // The guard is only constructed over a Present slot and holds
            // the shard read-locked for its whole lifetime.
            _ => unreachable!("ObjectGuard over a non-present slot"),
        }
    }
}

impl std::fmt::Debug for ObjectGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Read access to the class registry (see [`Runtime::classes`]).
pub struct ClassesGuard<'a> {
    inner: RwLockReadGuard<'a, ClassRegistry>,
}

impl Deref for ClassesGuard<'_> {
    type Target = ClassRegistry;

    fn deref(&self) -> &ClassRegistry {
        &self.inner
    }
}

impl std::fmt::Debug for ClassesGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The per-node object host.
///
/// Invocation, adoption, eviction and reads take `&self`, so a `Runtime`
/// can be driven from any number of worker threads (it is `Sync`); see
/// the module docs for the checkout protocol and lock order.
///
/// # Example
///
/// ```
/// use mrom_core::{ClassSpec, Method, MethodBody, Runtime};
/// use mrom_value::{NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let mut rt = Runtime::new(NodeId(1));
/// rt.classes_mut().register(ClassSpec::new("echo").fixed_method(
///     "say",
///     Method::public(MethodBody::script("param x; return x;")?),
/// ))?;
/// let id = rt.create("echo")?;
/// let rt = &rt;
/// std::thread::scope(|s| {
///     let worker = s.spawn(|| rt.invoke_as_system(id, "say", &[Value::from("hi")]));
///     assert_eq!(worker.join().unwrap().unwrap(), Value::from("hi"));
/// });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runtime {
    node: NodeId,
    ids: AtomicIdGenerator,
    shards: Box<[RwLock<Shard>]>,
    classes: RwLock<ClassRegistry>,
    limits: Mutex<InvokeLimits>,
    /// Virtual time surfaced to scripts via `self.time()`.
    now: AtomicU64,
}

impl Runtime {
    /// Creates an empty runtime for `node`.
    #[must_use]
    pub fn new(node: NodeId) -> Runtime {
        let shards = (0..SHARD_COUNT)
            .map(|_| RwLock::new(Shard::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Runtime {
            node,
            ids: AtomicIdGenerator::new(node),
            shards,
            classes: RwLock::new(ClassRegistry::new()),
            limits: Mutex::new(InvokeLimits::default()),
            now: AtomicU64::new(0),
        }
    }

    /// The node this runtime represents.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's identity generator (mints through `&self`).
    #[must_use]
    pub fn ids(&self) -> &AtomicIdGenerator {
        &self.ids
    }

    /// [`Runtime::ids`] through `&mut self`, for call sites that already
    /// hold exclusive access (`rt.ids_mut().next_id()`).
    pub fn ids_mut(&mut self) -> &AtomicIdGenerator {
        &self.ids
    }

    /// Read access to the class registry.
    ///
    /// The returned guard read-locks the registry; drop it before calling
    /// [`Runtime::with_classes_mut`] on the same thread.
    #[must_use]
    pub fn classes(&self) -> ClassesGuard<'_> {
        ClassesGuard {
            inner: read_guard(&self.classes),
        }
    }

    /// Runs `f` with exclusive access to the class registry (registration,
    /// class evolution). Writers block invocations only for the duration
    /// of the closure — keep it short.
    pub fn with_classes_mut<R>(&self, f: impl FnOnce(&mut ClassRegistry) -> R) -> R {
        f(&mut write(&self.classes))
    }

    /// Exclusive class-registry access through `&mut` (lock-free).
    pub fn classes_mut(&mut self) -> &mut ClassRegistry {
        self.classes.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces the invocation limits applied to every call on this node.
    pub fn set_limits(&self, limits: InvokeLimits) {
        *self
            .limits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = limits;
    }

    /// The current invocation limits.
    #[must_use]
    pub fn limits(&self) -> InvokeLimits {
        *self
            .limits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current virtual time (milliseconds by convention).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// Advances virtual time (driven by the simulation substrate).
    pub fn set_now(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
        // Keep the observability window on the same clock. Monotonic-max
        // semantics mean the simulator's finer microsecond stamp (set at
        // delivery) is never rewound by this millisecond-resolution one.
        mrom_obs::set_virtual_now_us(now.saturating_mul(1000));
    }

    /// The recording thread's windowed telemetry restricted to this
    /// node: profiles of objects hosted here plus the call-matrix rows
    /// and links touching this site, folded from the window directly
    /// ([`mrom_obs::site_telemetry_snapshot`]). The site-wide
    /// (unfiltered) view is [`mrom_obs::telemetry_snapshot`]; the
    /// reflective per-object door is the `getTelemetry` meta-method.
    #[must_use]
    pub fn telemetry(&self) -> mrom_obs::TelemetrySnapshot {
        mrom_obs::site_telemetry_snapshot(self.node, &self.object_ids())
    }

    /// Instantiates a registered class, adopting the object into the node.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] for unknown class names.
    pub fn create(&self, class: &str) -> Result<ObjectId, MromError> {
        // Lock order: classes → ids (atomic, non-blocking) → shard.
        let obj = {
            let classes = read_guard(&self.classes);
            classes
                .get(class)
                .ok_or_else(|| MromError::Class(format!("unknown class {class:?}")))?;
            classes.instantiate_with_id(class, self.ids.next_id())?
        };
        let id = obj.id();
        write(self.shard_of(id)).insert(id, Slot::Present(obj));
        Ok(id)
    }

    /// Adopts an externally constructed object (builder output, or an
    /// unpacked migration image).
    ///
    /// # Errors
    ///
    /// [`MromError::DuplicateItem`] if this identity is already hosted
    /// here — including checked-out and poisoned identities.
    pub fn adopt(&self, obj: MromObject) -> Result<ObjectId, MromError> {
        let id = obj.id();
        let mut shard = write(self.shard_of(id));
        if shard.contains_key(&id) {
            return Err(MromError::DuplicateItem {
                object: id,
                item: "object identity".to_owned(),
            });
        }
        shard.insert(id, Slot::Present(obj));
        Ok(id)
    }

    /// Removes an object from the node (the local half of migration),
    /// returning it.
    ///
    /// This is the **migration interlock**: an object that is checked out
    /// by an in-flight invocation (or poisoned by a panicked one) refuses
    /// eviction with [`MromError::ObjectBusy`], so a migration can never
    /// capture an object mid-execution.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`].
    pub fn evict(&self, id: ObjectId) -> Result<MromObject, MromError> {
        let mut shard = write(self.shard_of(id));
        match shard.get(&id) {
            Some(Slot::Present(_)) => match shard.remove(&id) {
                Some(Slot::Present(obj)) => Ok(obj),
                _ => unreachable!("slot changed under the shard write lock"),
            },
            Some(Slot::Busy(_) | Slot::Poisoned(_)) => Err(MromError::ObjectBusy(id)),
            None => Err(MromError::NoSuchObject(id)),
        }
    }

    /// Read access to a hosted object at rest. `None` for unknown,
    /// checked-out, and poisoned identities.
    #[must_use]
    pub fn object(&self, id: ObjectId) -> Option<ObjectGuard<'_>> {
        let shard = read_guard(self.shard_of(id));
        match shard.get(&id) {
            Some(Slot::Present(_)) => Some(ObjectGuard { shard, id }),
            _ => None,
        }
    }

    /// Exclusive access to a hosted object through `&mut` (lock-free;
    /// host-side administration).
    pub fn object_mut(&mut self, id: ObjectId) -> Option<&mut MromObject> {
        let idx = shard_index(id);
        let shard = self.shards[idx]
            .get_mut()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get_mut(&id) {
            Some(Slot::Present(obj)) => Some(obj),
            _ => None,
        }
    }

    /// Identities of all hosted objects (unordered), including checked-out
    /// and poisoned identities.
    #[must_use]
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(read_guard(shard).keys().copied());
        }
        out
    }

    /// Number of hosted identities, including checked-out and poisoned
    /// slots (an executing object is still hosted here).
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| read_guard(s).len()).sum()
    }

    /// The structured cause recorded when `id`'s slot was poisoned by a
    /// panicking method body, if it was.
    #[must_use]
    pub fn poison_cause(&self, id: ObjectId) -> Option<PoisonCause> {
        match read_guard(self.shard_of(id)).get(&id) {
            Some(Slot::Poisoned(cause)) => Some(cause.clone()),
            _ => None,
        }
    }

    /// Reclaims a poisoned identity: removes the slot and returns the
    /// cause. The object's state was discarded when the body panicked; the
    /// host may re-adopt a replacement under the same identity afterwards.
    #[must_use]
    pub fn clear_poisoned(&self, id: ObjectId) -> Option<PoisonCause> {
        let mut shard = write(self.shard_of(id));
        match shard.get(&id) {
            Some(Slot::Poisoned(_)) => match shard.remove(&id) {
                Some(Slot::Poisoned(cause)) => Some(cause),
                _ => unreachable!("slot changed under the shard write lock"),
            },
            _ => None,
        }
    }

    /// Invokes a method on a hosted object as `caller`.
    ///
    /// The target is checked out of its shard for the duration of the
    /// call — no lock is held while the body runs — so the body can invoke
    /// *other* objects on this node through the world hook. A concurrent
    /// or cyclic call into the executing object reports
    /// [`MromError::ObjectBusy`]. A panicking body is caught, the slot
    /// poisoned (see [`Runtime::poison_cause`]), and `ObjectBusy`
    /// returned.
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchObject`], [`MromError::ObjectBusy`], plus all
    /// invocation errors.
    pub fn invoke(
        &self,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        mrom_obs::runtime_invoke(self.node, target, method);
        let mut obj = self.checkout(target, method)?;
        let limits = self.limits();
        let mut world = RuntimeWorld { rt: self };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::invoke::invoke_with_limits(&mut obj, &mut world, caller, method, args, &limits)
        }));
        match outcome {
            Ok(result) => {
                self.checkin(obj, method, None);
                result
            }
            Err(payload) => {
                // The object may be torn mid-mutation: discard it and
                // poison the slot so the identity does not vanish.
                let cause = PoisonCause {
                    method: method.to_owned(),
                    message: panic_message(payload.as_ref()),
                };
                self.checkin(obj, method, Some(cause));
                Err(MromError::ObjectBusy(target))
            }
        }
    }

    /// [`Runtime::invoke`] with the system principal — host-initiated
    /// administration (bootstrap, tests, benches).
    ///
    /// # Errors
    ///
    /// As [`Runtime::invoke`].
    pub fn invoke_as_system(
        &self,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        self.invoke(ObjectId::SYSTEM, target, method, args)
    }

    /// Checks `target` out for a call of `incoming`: flips its slot from
    /// `Present` to `Busy` under the shard write lock and returns the
    /// object. A checkout records nothing. When the slot is already
    /// `Busy` and observability is enabled, the refused caller appends
    /// `incoming` to it, for the holder to classify at check-in.
    fn checkout(&self, target: ObjectId, incoming: &str) -> Result<MromObject, MromError> {
        let mut shard = write(self.shard_of(target));
        match shard.get_mut(&target) {
            Some(slot @ Slot::Present(_)) => {
                match std::mem::replace(slot, Slot::Busy(Vec::new())) {
                    Slot::Present(obj) => Ok(obj),
                    _ => unreachable!("matched Present above"),
                }
            }
            Some(Slot::Busy(refused)) => {
                if mrom_obs::enabled() {
                    refused.push(incoming.to_owned());
                }
                Err(MromError::ObjectBusy(target))
            }
            Some(Slot::Poisoned(_)) => Err(MromError::ObjectBusy(target)),
            None => Err(MromError::NoSuchObject(target)),
        }
    }

    /// Returns an object checked out for `method` to its slot: `Present`
    /// after the call completed, or `Poisoned` with `poisoned` as the
    /// cause (the object is then dropped).
    ///
    /// Callers refused while `method` held the object are classified
    /// here, because only the holder has both the object and its own
    /// selector: provably-disjoint effect signatures mean the
    /// serialization was a conservative loss, overlapping ones that it
    /// was required. So the effect table is solved only when a collision
    /// happened, and each one feeds the runtime disjointness counters and
    /// a `shared_collision` event.
    fn checkin(&self, mut obj: MromObject, method: &str, poisoned: Option<PoisonCause>) {
        let id = obj.id();
        let mut shard = write(self.shard_of(id));
        let slot = shard.entry(id).or_insert_with(|| Slot::Busy(Vec::new()));
        if let Slot::Busy(refused) = slot {
            if !refused.is_empty() && mrom_obs::enabled() {
                let effects = obj.effects();
                for incoming in refused.drain(..) {
                    let disjoint = match (effects.get(method), effects.get(incoming.as_str())) {
                        (Some(a), Some(b)) => Some(crate::effects::signatures_disjoint(a, b)),
                        _ => None,
                    };
                    mrom_obs::shared_collision(self.node, id, method, &incoming, disjoint);
                }
            }
        }
        *slot = match poisoned {
            None => Slot::Present(obj),
            Some(cause) => Slot::Poisoned(cause),
        };
    }

    fn shard_of(&self, id: ObjectId) -> &RwLock<Shard> {
        &self.shards[shard_index(id)]
    }
}

/// Maps an identity onto a shard: multiply-mix the 128-bit triple down to
/// the top bits of a u64 (Fibonacci hashing), then mask.
fn shard_index(id: ObjectId) -> usize {
    let folded = id.node().0 ^ (u64::from(id.seq()) << 32) ^ u64::from(id.entropy());
    let mixed = folded.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 59) as usize & (SHARD_COUNT - 1)
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Takes a read lock, shrugging off poisoning: no lock in this module is
/// ever held while user code runs (panics inside bodies are caught before
/// any lock is re-taken), so a poisoned lock only means a panic in
/// infallible map plumbing — the data is still coherent.
fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Takes a write lock; see [`read_guard`] on poisoning.
fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// World hook giving method bodies mediated access to node services, over
/// the runtime. Nested `send`s re-enter [`Runtime::invoke`],
/// which checks the callee out under its own shard lock — the hook itself
/// holds nothing.
///
/// Supported operations:
///
/// * `send(target_ref, method, args_list)` — invoke a method on another
///   object hosted on this node (caller principal = the sending object).
/// * `spawn(class_name)` — instantiate a registered class, adopting the
///   new object into this node; returns its reference.
/// * `log(message)` — append to the node log.
/// * `time()` — current virtual time.
/// * `node()` — the node id as an integer.
struct RuntimeWorld<'r> {
    rt: &'r Runtime,
}

impl WorldHook for RuntimeWorld<'_> {
    fn world_call(
        &mut self,
        caller: ObjectId,
        op: &str,
        args: &[Value],
    ) -> Result<Value, MromError> {
        match op {
            "send" => match args {
                [Value::ObjectRef(target), Value::Str(method), Value::List(inner)] => {
                    // An object currently executing sits in a Busy slot, so
                    // a cyclic call — and any concurrent call — reports
                    // ObjectBusy; genuinely unknown targets NoSuchObject.
                    self.rt.invoke(caller, *target, method, inner)
                }
                _ => Err(MromError::World(
                    "send expects (object_ref, method_name, args_list)".into(),
                )),
            },
            "spawn" => match args {
                [Value::Str(class)] => self.rt.create(class).map(Value::ObjectRef),
                _ => Err(MromError::World("spawn expects (class_name)".into())),
            },
            "log" => {
                let msg = args
                    .first()
                    .map(|v| match v {
                        Value::Str(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .unwrap_or_default();
                mrom_obs::log_line(self.rt.node, caller, &msg);
                Ok(Value::Null)
            }
            "time" => Ok(Value::Int(self.rt.now() as i64)),
            "node" => Ok(Value::Int(self.rt.node.0 as i64)),
            other => Err(MromError::World(format!(
                "unknown world operation {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use crate::item::DataItem;
    use crate::method::{Method, MethodBody};

    fn counter_class() -> ClassSpec {
        ClassSpec::new("counter")
            .fixed_data("acc", DataItem::public(Value::Int(0)))
            .fixed_method(
                "add",
                Method::public(
                    MethodBody::script(
                        "param x; self.set(\"acc\", self.get(\"acc\") + x); return self.get(\"acc\");",
                    )
                    .unwrap(),
                ),
            )
    }

    fn runtime_with_counter() -> Runtime {
        let rt = Runtime::new(NodeId(40));
        rt.with_classes_mut(|reg| reg.register(counter_class()))
            .unwrap();
        rt
    }

    #[test]
    fn create_invoke_and_read_through_guard() {
        let rt = runtime_with_counter();
        let id = rt.create("counter").unwrap();
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        let guard = rt.object(id).expect("present");
        assert_eq!(
            guard.read_data(ObjectId::SYSTEM, "acc").unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn parallel_invocations_on_disjoint_objects() {
        let rt = runtime_with_counter();
        let ids: Vec<_> = (0..8).map(|_| rt.create("counter").unwrap()).collect();
        std::thread::scope(|s| {
            for &id in &ids {
                let rt = &rt;
                s.spawn(move || {
                    for _ in 0..100 {
                        rt.invoke_as_system(id, "add", &[Value::Int(1)]).unwrap();
                    }
                });
            }
        });
        for id in ids {
            let obj = rt.object(id).unwrap();
            assert_eq!(
                obj.read_data(ObjectId::SYSTEM, "acc").unwrap(),
                Value::Int(100)
            );
        }
    }

    #[test]
    fn same_object_contention_is_ok_or_busy() {
        let rt = runtime_with_counter();
        let id = rt.create("counter").unwrap();
        let oks = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (rt, oks) = (&rt, &oks);
                s.spawn(move || {
                    for _ in 0..200 {
                        match rt.invoke_as_system(id, "add", &[Value::Int(1)]) {
                            Ok(_) => {
                                oks.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(MromError::ObjectBusy(busy)) => assert_eq!(busy, id),
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
        });
        let obj = rt.object(id).unwrap();
        assert_eq!(
            obj.read_data(ObjectId::SYSTEM, "acc").unwrap(),
            Value::Int(oks.load(Ordering::Relaxed) as i64)
        );
    }

    #[test]
    fn evict_refuses_checked_out_object() {
        let rt = Runtime::new(NodeId(41));
        rt.with_classes_mut(|reg| reg.register(counter_class()))
            .unwrap();
        // A native method that tries to evict... is not expressible from
        // scripts; simulate by poking the slot machinery directly.
        let id = rt.create("counter").unwrap();
        let obj = rt.checkout(id, "add").unwrap();
        assert!(matches!(rt.evict(id), Err(MromError::ObjectBusy(_))));
        assert!(rt.object(id).is_none(), "busy slot is not readable");
        assert_eq!(rt.object_count(), 1, "busy slot still counts as hosted");
        rt.checkin(obj, "add", None);
        assert!(rt.evict(id).is_ok());
    }

    #[test]
    fn panicking_body_poisons_slot_not_vanishes() {
        let rt = Runtime::new(NodeId(42));
        rt.with_classes_mut(|reg| {
            reg.register(ClassSpec::new("bomb").fixed_method(
                "boom",
                Method::public(MethodBody::native(|_env, _args| {
                    panic!("kaboom: deliberate test panic")
                })),
            ))
        })
        .unwrap();
        let id = rt.create("bomb").unwrap();
        let err = rt.invoke_as_system(id, "boom", &[]).unwrap_err();
        assert!(matches!(err, MromError::ObjectBusy(b) if b == id));
        // The identity did not vanish: later calls get ObjectBusy (not
        // NoSuchObject) and the cause is retrievable.
        let err = rt.invoke_as_system(id, "boom", &[]).unwrap_err();
        assert!(matches!(err, MromError::ObjectBusy(_)));
        let cause = rt.poison_cause(id).expect("structured cause");
        assert_eq!(cause.method, "boom");
        assert!(cause.message.contains("kaboom"), "{cause}");
        // Migration cannot capture it either.
        assert!(matches!(rt.evict(id), Err(MromError::ObjectBusy(_))));
        // Reclaim: the slot is removed and the cause handed back.
        let cause = rt.clear_poisoned(id).expect("reclaimed");
        assert!(cause.message.contains("kaboom"));
        assert!(matches!(
            rt.invoke_as_system(id, "boom", &[]),
            Err(MromError::NoSuchObject(_))
        ));
    }

    #[test]
    fn shard_index_spreads_and_is_stable() {
        let gen = AtomicIdGenerator::new(NodeId(7));
        let mut used = std::collections::HashSet::new();
        for _ in 0..1000 {
            let idx = shard_index(gen.next_id());
            assert!(idx < SHARD_COUNT);
            used.insert(idx);
        }
        assert!(used.len() > SHARD_COUNT / 2, "hash spreads over shards");
        let id = ObjectId::from_parts(NodeId(3), 9, 11);
        assert_eq!(shard_index(id), shard_index(id));
    }

    fn runtime_with_classes() -> Runtime {
        let mut rt = runtime_with_counter();
        rt.classes_mut()
            .register(
                ClassSpec::new("caller_class").fixed_method(
                    "relay",
                    Method::public(
                        MethodBody::script(
                            "param target; param x; return self.send(target, \"add\", [x]);",
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        rt
    }

    #[test]
    fn unknown_objects_and_classes() {
        let mut rt = runtime_with_classes();
        assert!(matches!(rt.create("nope"), Err(MromError::Class(_))));
        let ghost = rt.ids_mut().next_id();
        assert!(matches!(
            rt.invoke_as_system(ghost, "m", &[]),
            Err(MromError::NoSuchObject(_))
        ));
        assert!(matches!(rt.evict(ghost), Err(MromError::NoSuchObject(_))));
    }

    #[test]
    fn objects_invoke_each_other_through_send() {
        let rt = runtime_with_classes();
        let calc = rt.create("counter").unwrap();
        let relay = rt.create("caller_class").unwrap();
        let out = rt
            .invoke_as_system(relay, "relay", &[Value::ObjectRef(calc), Value::Int(40)])
            .unwrap();
        assert_eq!(out, Value::Int(40));
        // The calc object kept the state.
        assert_eq!(
            rt.object(calc)
                .unwrap()
                .read_data(ObjectId::SYSTEM, "acc")
                .unwrap(),
            Value::Int(40)
        );
    }

    #[test]
    fn send_to_self_reports_busy() {
        let mut rt = Runtime::new(NodeId(5));
        rt.classes_mut()
            .register(ClassSpec::new("selfish").fixed_method(
                "loopy",
                Method::public(
                    MethodBody::script("return self.send(self.id(), \"loopy\", []);").unwrap(),
                ),
            ))
            .unwrap();
        let id = rt.create("selfish").unwrap();
        let err = rt.invoke_as_system(id, "loopy", &[]).unwrap_err();
        assert!(
            matches!(err, MromError::Script(_)),
            "busy surfaces through the script layer: {err}"
        );
        // The object is back in the table afterwards.
        assert!(rt.object(id).is_some());
    }

    #[test]
    fn cyclic_cross_object_calls_report_busy() {
        let mut rt = Runtime::new(NodeId(6));
        rt.classes_mut()
            .register(
                ClassSpec::new("pingpong").fixed_method(
                    "ping",
                    Method::public(
                        MethodBody::script(
                            "param other; return self.send(other, \"ping\", [self.id()]);",
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        let a = rt.create("pingpong").unwrap();
        let b = rt.create("pingpong").unwrap();
        // a.ping(b) → b.ping(a) → a is checked out → busy error surfaces.
        let err = rt
            .invoke_as_system(a, "ping", &[Value::ObjectRef(b)])
            .unwrap_err();
        assert!(matches!(err, MromError::Script(_)), "{err}");
        assert_eq!(rt.object_count(), 2);
    }

    #[test]
    fn adopt_and_evict_round_trip() {
        let rt = runtime_with_classes();
        let id = rt.create("counter").unwrap();
        rt.invoke_as_system(id, "add", &[Value::Int(9)]).unwrap();
        let obj = rt.evict(id).unwrap();
        assert_eq!(rt.object_count(), 0);
        // Re-adopt (e.g. after a round trip through an image).
        let id2 = rt.adopt(obj).unwrap();
        assert_eq!(id2, id);
        assert_eq!(
            rt.invoke_as_system(id, "add", &[Value::Int(1)]).unwrap(),
            Value::Int(10)
        );
        // Double adoption rejected.
        let dup = rt.object(id).unwrap().clone();
        assert!(matches!(
            rt.adopt(dup),
            Err(MromError::DuplicateItem { .. })
        ));
    }

    #[test]
    fn log_and_time_world_ops() {
        let mut rt = Runtime::new(NodeId(9));
        rt.classes_mut()
            .register(ClassSpec::new("clock").fixed_method(
                "stamp",
                Method::public(
                    MethodBody::script("self.log(\"tick\"); return self.time();").unwrap(),
                ),
            ))
            .unwrap();
        let id = rt.create("clock").unwrap();
        rt.set_now(1234);
        assert_eq!(
            rt.invoke_as_system(id, "stamp", &[]).unwrap(),
            Value::Int(1234)
        );
        let lines = mrom_obs::log_lines_for(rt.node());
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].1, "tick");
        assert_eq!(lines[0].0, id);
    }

    #[test]
    fn objects_spawn_other_objects() {
        let mut rt = runtime_with_classes();
        rt.classes_mut()
            .register(
                ClassSpec::new("factory").fixed_method(
                    "make_counter",
                    Method::public(
                        MethodBody::script(
                            r#"
                        let child = self.spawn("counter");
                        self.send(child, "add", [41]);
                        return child;
                        "#,
                        )
                        .unwrap(),
                    ),
                ),
            )
            .unwrap();
        let factory = rt.create("factory").unwrap();
        let child_ref = rt.invoke_as_system(factory, "make_counter", &[]).unwrap();
        let child = child_ref.as_object_ref().expect("object ref");
        assert_eq!(rt.object_count(), 2);
        // The spawned object is real and kept the state the factory gave it.
        assert_eq!(
            rt.invoke_as_system(child, "add", &[Value::Int(1)]).unwrap(),
            Value::Int(42)
        );
        // Unknown classes fail cleanly through the script layer.
        rt.classes_mut()
            .register(ClassSpec::new("bad-factory").fixed_method(
                "make",
                Method::public(MethodBody::script(r#"return self.spawn("ghost-class");"#).unwrap()),
            ))
            .unwrap();
        let bad = rt.create("bad-factory").unwrap();
        assert!(rt.invoke_as_system(bad, "make", &[]).is_err());
    }

    #[test]
    fn migration_between_runtimes() {
        let rt_a = runtime_with_classes();
        let rt_b = Runtime::new(NodeId(22));
        let id = rt_a.create("counter").unwrap();
        rt_a.invoke_as_system(id, "add", &[Value::Int(3)]).unwrap();
        // Export from A...
        let obj = rt_a.evict(id).unwrap();
        let image = obj.image_value().unwrap();
        let bytes = mrom_value::wire::encode(&image);
        // ...import at B: the object keeps identity and state.
        let unpacked =
            MromObject::from_image_with_policy(&bytes, crate::AdmissionPolicy::Off).unwrap();
        let id_b = rt_b.adopt(unpacked).unwrap();
        assert_eq!(id_b, id);
        assert_eq!(
            rt_b.invoke_as_system(id, "add", &[Value::Int(4)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn limits_are_applied_per_node() {
        let mut rt = Runtime::new(NodeId(30));
        rt.set_limits(InvokeLimits {
            fuel: 1_000,
            ..InvokeLimits::default()
        });
        rt.classes_mut()
            .register(ClassSpec::new("hot").fixed_method(
                "spin",
                Method::public(MethodBody::script("while (true) { }").unwrap()),
            ))
            .unwrap();
        let id = rt.create("hot").unwrap();
        let err = rt.invoke_as_system(id, "spin", &[]).unwrap_err();
        assert!(matches!(err, MromError::Script(_)));
        assert_eq!(rt.limits().fuel, 1_000);
    }

    #[test]
    fn meta_acl_protects_against_hostile_host_principal() {
        // A host (arbitrary principal) must not be able to mutate an
        // object's structure through the runtime.
        let mut rt = runtime_with_classes();
        let id = rt.create("counter").unwrap();
        let hostile = rt.ids_mut().next_id();
        let err = rt
            .invoke(
                hostile,
                id,
                "addDataItem",
                &[Value::from("evil"), Value::Int(0)],
            )
            .unwrap_err();
        assert!(matches!(err, MromError::AccessDenied { .. }));
    }
}
