//! The MROM object: four item containers, identity, the invocation tower,
//! and the ACL-checked state/structure operations behind the meta-methods.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mrom_script::EffectSignature;
use mrom_value::{ObjectId, Value};

use crate::admission::AdmissionPolicy;
use crate::container::{ExtensibleContainer, FixedContainer, Section};
use crate::error::MromError;
use crate::item::DataItem;
use crate::method::{MetaOp, Method, MethodBody};
use crate::security::Acl;

/// Where a cached method resolution points: a sealed fixed slot (the index
/// is a "fixed offset" valid for the object's whole lifetime) or a shared
/// handle into the extensible section (valid only for the generation it
/// was stamped with).
#[derive(Debug, Clone)]
enum CachedSlot {
    Fixed(usize),
    Extensible(Method),
}

/// Per-object memo of name → method resolution used by the level-0
/// invocation fast path.
///
/// Entries for extensible methods carry the structural generation they
/// were recorded at; any `addMethod`/`setMethod`/`deleteMethod` or tower
/// change bumps the object's generation and thereby invalidates them
/// wholesale, with no per-entry bookkeeping on the mutation path. Fixed
/// entries never go stale — the fixed section is sealed at construction.
///
/// The cache is pure acceleration state: it is deliberately ignored by
/// `PartialEq` and carries no observable behaviour of its own.
#[derive(Debug, Clone, Default)]
struct DispatchCache {
    entries: HashMap<String, (CachedSlot, u64)>,
}

/// A mutable reflective mobile object.
///
/// State is split between a *fixed* section (sealed at construction; the
/// stable basis for specialization) and an *extensible* section (the
/// runtime adaptation surface). The nine reflective meta-methods are
/// bundled inside the object as ordinary [`Method`] entries with
/// [`MethodBody::Meta`] bodies — self-containment means there is no
/// external meta-object.
///
/// All state accessors on this type take the caller's [`ObjectId`]
/// *principal* and enforce the item ACLs — encapsulation and security are
/// one mechanism. Invocation lives in [`crate::invoke`].
///
/// # Example
///
/// ```
/// use mrom_core::{DataItem, Method, MethodBody, ObjectBuilder, Acl};
/// use mrom_value::{IdGenerator, NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let mut ids = IdGenerator::new(NodeId(1));
/// let mut obj = ObjectBuilder::new(ids.next_id())
///     .class("counter")
///     .fixed_data("count", DataItem::public(Value::Int(0)))
///     .build();
///
/// let me = obj.id();
/// assert_eq!(obj.read_data(me, "count")?, Value::Int(0));
/// // The object may extend itself at runtime:
/// obj.add_data(me, "note", Value::from("added later"))?;
/// assert!(obj.has_data(me, "note"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MromObject {
    id: ObjectId,
    origin: ObjectId,
    class_name: String,
    fixed_data: FixedContainer<DataItem>,
    fixed_methods: FixedContainer<Method>,
    ext_data: ExtensibleContainer<DataItem>,
    ext_methods: ExtensibleContainer<Method>,
    /// Names of installed meta-invoke methods; `tower[0]` is level 1, the
    /// last entry is the topmost level entered first (Figure 1). Entries
    /// are interned as `Arc<str>` so descending the tower clones handles,
    /// not strings.
    tower: Vec<Arc<str>>,
    /// Object-level policy for structural addition/removal and tower
    /// manipulation.
    meta_acl: Acl,
    /// Structural generation of the extensible method section and tower;
    /// bumped by every mutation that can change method resolution.
    generation: u64,
    /// Generation-stamped name → method memo for the dispatch fast path.
    dispatch_cache: DispatchCache,
    /// Generation-stamped memo of the interprocedural effect-signature
    /// table ([`crate::effects::object_effects`]). Like the dispatch
    /// cache, pure acceleration state: ignored by `PartialEq`, shed on
    /// clone-through-migration, recomputed on first use after any
    /// structural change.
    effects_cache: Option<(u64, Arc<BTreeMap<String, EffectSignature>>)>,
}

/// Equality is structural: the dispatch cache and its generation stamp are
/// derived acceleration state and do not participate.
impl PartialEq for MromObject {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.origin == other.origin
            && self.class_name == other.class_name
            && self.fixed_data == other.fixed_data
            && self.fixed_methods == other.fixed_methods
            && self.ext_data == other.ext_data
            && self.ext_methods == other.ext_methods
            && self.tower == other.tower
            && self.meta_acl == other.meta_acl
    }
}

impl MromObject {
    /// This object's decentralized identity.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The origin principal — for deployed objects (Ambassadors) this is
    /// the identity that owns and maintains the object, which may differ
    /// from `id`.
    pub fn origin(&self) -> ObjectId {
        self.origin
    }

    /// Rebinds the origin (used when an origin APO instantiates an
    /// Ambassador it will own). Only the current origin may do this.
    ///
    /// # Errors
    ///
    /// [`MromError::AccessDenied`] for any other caller.
    pub fn set_origin(&mut self, caller: ObjectId, new_origin: ObjectId) -> Result<(), MromError> {
        if caller != self.origin {
            return Err(self.denied("origin", "meta", caller));
        }
        self.origin = new_origin;
        Ok(())
    }

    /// The class this object was stamped from.
    pub fn class_name(&self) -> &str {
        &self.class_name
    }

    /// The object-level meta ACL.
    pub fn meta_acl(&self) -> &Acl {
        &self.meta_acl
    }

    /// Replaces the object-level meta ACL (origin only).
    ///
    /// # Errors
    ///
    /// [`MromError::AccessDenied`] unless `caller` passes the *current*
    /// meta ACL.
    pub fn set_meta_acl(&mut self, caller: ObjectId, acl: Acl) -> Result<(), MromError> {
        self.check_meta(caller, "meta_acl")?;
        self.meta_acl = acl;
        Ok(())
    }

    /// The single permission predicate used by every check in the model:
    /// the object *itself* is implicitly allowed by every policy except
    /// [`Acl::Nobody`] (self-containment — a deployed Ambassador whose
    /// origin is its remote APO must still reach its own items), and the
    /// origin principal is handled by [`Acl::permits`].
    #[inline]
    pub fn acl_allows(&self, acl: &Acl, caller: ObjectId) -> bool {
        (caller == self.id && !matches!(acl, Acl::Nobody)) || acl.permits(caller, self.origin)
    }

    fn denied(&self, item: &str, operation: &'static str, caller: ObjectId) -> MromError {
        MromError::AccessDenied {
            object: self.id,
            item: item.to_owned(),
            operation,
            caller,
        }
    }

    fn check_meta(&self, caller: ObjectId, item: &str) -> Result<(), MromError> {
        if self.acl_allows(&self.meta_acl, caller) {
            Ok(())
        } else {
            Err(self.denied(item, "meta", caller))
        }
    }

    /// Marks a structural change — method resolution (extensible method
    /// set or tower) or the extensible data section's shape (item set,
    /// ACLs, constraints) — invalidating every stamped cache entry at
    /// once: the dispatch cache and the script inline caches. Plain value
    /// writes are *not* structural and never bump the generation.
    fn touch_structure(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// The structural generation of the extensible method section and
    /// tower. Monotonic under mutation; exposed so callers (and tests) can
    /// observe when cached resolutions become stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    // -- effect signatures ---------------------------------------------------

    /// The interprocedural effect-signature table for every method this
    /// object carries, memoized behind the structural generation stamp:
    /// the first call after construction or any structural mutation runs
    /// the fixpoint ([`crate::effects::object_effects`]); subsequent
    /// calls return the shared table. This is what the `getEffects`
    /// meta-method serves, and what retry/migration policies consult.
    pub fn effects(&mut self) -> Arc<BTreeMap<String, EffectSignature>> {
        if let Some((stamp, table)) = &self.effects_cache {
            if *stamp == self.generation {
                return Arc::clone(table);
            }
        }
        let table = Arc::new(crate::effects::object_effects(self));
        self.effects_cache = Some((self.generation, Arc::clone(&table)));
        table
    }

    /// The effect table already memoized for the *current* structural
    /// generation, if any — a read-only probe for callers holding `&self`
    /// (e.g. a runtime deciding whether a retry is safe without forcing
    /// an analysis on the hot path).
    pub fn effects_if_cached(&self) -> Option<Arc<BTreeMap<String, EffectSignature>>> {
        match &self.effects_cache {
            Some((stamp, table)) if *stamp == self.generation => Some(Arc::clone(table)),
            _ => None,
        }
    }

    // -- data items ---------------------------------------------------------

    /// Finds a data item and its section, fixed first.
    pub fn find_data(&self, name: &str) -> Option<(&DataItem, Section)> {
        if let Some(item) = self.fixed_data.get(name) {
            return Some((item, Section::Fixed));
        }
        self.ext_data.get(name).map(|i| (i, Section::Extensible))
    }

    fn find_data_checked(
        &self,
        caller: ObjectId,
        name: &str,
        want_write: bool,
    ) -> Result<(&DataItem, Section), MromError> {
        let (item, section) = self
            .find_data(name)
            .ok_or_else(|| MromError::NoSuchDataItem {
                object: self.id,
                name: name.to_owned(),
            })?;
        let acl = if want_write {
            item.write_acl()
        } else {
            item.read_acl()
        };
        if !self.acl_allows(acl, caller) {
            return Err(self.denied(name, if want_write { "write" } else { "read" }, caller));
        }
        Ok((item, section))
    }

    /// `true` when `caller` can see a data item of this name
    /// (encapsulation == security: invisible and forbidden coincide).
    pub fn has_data(&self, caller: ObjectId, name: &str) -> bool {
        self.find_data_checked(caller, name, false).is_ok()
    }

    /// Reads a data item's value (the ordinary `get`).
    ///
    /// # Errors
    ///
    /// [`MromError::NoSuchDataItem`] / [`MromError::AccessDenied`].
    pub fn read_data(&self, caller: ObjectId, name: &str) -> Result<Value, MromError> {
        self.find_data_checked(caller, name, false)
            .map(|(item, _)| item.value().clone())
    }

    /// Writes a data item's value (the ordinary `set`). Writing the value
    /// of a **fixed** data item is allowed — the fixed section freezes
    /// *structure*, not state.
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors, or [`MromError::TypeConstraint`] when the item's
    /// dynamic type rejects the value.
    pub fn write_data(
        &mut self,
        caller: ObjectId,
        name: &str,
        value: Value,
    ) -> Result<(), MromError> {
        // Check ACL on the shared view first to keep the borrow simple.
        self.find_data_checked(caller, name, true)?;
        let item = self
            .fixed_data
            .get_mut(name)
            .or_else(|| self.ext_data.get_mut(name))
            .expect("checked above");
        item.write(value).map_err(|e| MromError::TypeConstraint {
            item: name.to_owned(),
            detail: e.to_string(),
        })
    }

    /// The `getDataItem` meta-operation: the item's property descriptor
    /// plus its section. Guarded by the read ACL.
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors.
    pub fn data_descriptor(&self, caller: ObjectId, name: &str) -> Result<Value, MromError> {
        let (item, section) = self.find_data_checked(caller, name, false)?;
        let mut desc = item.descriptor();
        if let Some(m) = desc.as_map_mut() {
            m.insert("section".to_owned(), Value::from(section.name()));
        }
        Ok(desc)
    }

    // -- inline-cache fast paths (crate-internal) ---------------------------
    //
    // The script bridge caches `self.get`/`self.set`/`getDataItem` sites
    // that resolved to *fixed-section* items. Fixed indices and ACLs are
    // immutable for the object's lifetime (`set_data_item` refuses the
    // fixed section), so a slow-path success proves the access verdict for
    // every later hit; only the value-dependent work (clone, type
    // constraint) re-runs per hit.

    /// Fixed-section index of a data item, for inline caches.
    pub(crate) fn fixed_data_index(&self, name: &str) -> Option<usize> {
        self.fixed_data.index_of(name)
    }

    /// Reads a fixed data item's value by index (IC hit path of `self.get`).
    pub(crate) fn fixed_data_value(&self, index: usize) -> Option<Value> {
        self.fixed_data
            .get_by_index(index)
            .map(|item| item.value().clone())
    }

    /// Writes a fixed data item's value by index (IC hit path of
    /// `self.set`), with the same type-constraint mapping as `write_data`.
    pub(crate) fn fixed_data_write(
        &mut self,
        index: usize,
        name: &str,
        value: Value,
    ) -> Result<(), MromError> {
        let item = self
            .fixed_data
            .get_by_index_mut(index)
            .expect("inline-cached fixed index in range");
        item.write(value).map_err(|e| MromError::TypeConstraint {
            item: name.to_owned(),
            detail: e.to_string(),
        })
    }

    /// A fixed data item's descriptor by index (IC hit path of
    /// `getDataItem`), identical in shape to [`MromObject::data_descriptor`].
    pub(crate) fn fixed_data_descriptor(&self, index: usize) -> Option<Value> {
        self.fixed_data.get_by_index(index).map(|item| {
            let mut desc = item.descriptor();
            if let Some(m) = desc.as_map_mut() {
                m.insert("section".to_owned(), Value::from(Section::Fixed.name()));
            }
            desc
        })
    }

    /// The `setDataItem` meta-operation: changes an item's properties
    /// (ACLs, dynamic type, value, or — with the `rename` key — its name).
    /// Structural property changes are only legal on extensible items;
    /// guarded by the item's write ACL.
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors, [`MromError::FixedSectionViolation`] for fixed
    /// items, [`MromError::BadDescriptor`] for malformed descriptors, and
    /// [`MromError::DuplicateItem`] when a rename collides.
    pub fn set_data_item(
        &mut self,
        caller: ObjectId,
        name: &str,
        desc: &Value,
    ) -> Result<(), MromError> {
        let (_, section) = self.find_data_checked(caller, name, true)?;
        if section == Section::Fixed {
            return Err(MromError::FixedSectionViolation {
                object: self.id,
                item: name.to_owned(),
            });
        }
        let m = desc.as_map().ok_or_else(|| {
            MromError::BadDescriptor(format!("descriptor must be a map, got {}", desc.kind()))
        })?;
        let rename = match m.get("rename") {
            None => None,
            Some(Value::Str(new_name)) => Some(new_name.clone()),
            Some(other) => {
                return Err(MromError::BadDescriptor(format!(
                    "rename must be a string, got {}",
                    other.kind()
                )))
            }
        };
        let mut rest = m.clone();
        rest.remove("rename");
        let desc_rest = Value::Map(rest);

        // Apply property changes on a copy so a failure leaves the item
        // untouched.
        let mut item = self
            .ext_data
            .get(name)
            .expect("section checked extensible")
            .clone();
        item.apply_descriptor(&desc_rest)
            .map_err(|e| MromError::BadDescriptor(e.to_string()))?;
        if let Some(new_name) = rename {
            if new_name != name
                && (self.fixed_data.contains(&new_name) || self.ext_data.contains(&new_name))
            {
                return Err(MromError::DuplicateItem {
                    object: self.id,
                    item: new_name,
                });
            }
            self.ext_data.remove(name);
            self.ext_data.insert(new_name, item);
        } else {
            self.ext_data.replace(name, item);
        }
        self.touch_structure();
        Ok(())
    }

    /// The `addDataItem` meta-operation (plain-value form). Extensible
    /// section only; guarded by the object meta ACL.
    ///
    /// # Errors
    ///
    /// ACL errors, [`MromError::DuplicateItem`] on name collisions
    /// (including with fixed items).
    pub fn add_data(
        &mut self,
        caller: ObjectId,
        name: &str,
        value: Value,
    ) -> Result<(), MromError> {
        self.add_data_item(caller, name, DataItem::new(value))
    }

    /// The `addDataItem` meta-operation (full-item form).
    ///
    /// # Errors
    ///
    /// Same as [`MromObject::add_data`].
    pub fn add_data_item(
        &mut self,
        caller: ObjectId,
        name: &str,
        item: DataItem,
    ) -> Result<(), MromError> {
        self.check_meta(caller, name)?;
        if self.fixed_data.contains(name) {
            return Err(MromError::DuplicateItem {
                object: self.id,
                item: name.to_owned(),
            });
        }
        if !self.ext_data.insert(name.to_owned(), item) {
            return Err(MromError::DuplicateItem {
                object: self.id,
                item: name.to_owned(),
            });
        }
        self.touch_structure();
        Ok(())
    }

    /// The `deleteDataItem` meta-operation. Extensible only; guarded by
    /// the object meta ACL.
    ///
    /// # Errors
    ///
    /// ACL errors, [`MromError::FixedSectionViolation`] for fixed items,
    /// [`MromError::NoSuchDataItem`] when absent.
    pub fn delete_data(&mut self, caller: ObjectId, name: &str) -> Result<(), MromError> {
        self.check_meta(caller, name)?;
        if self.fixed_data.contains(name) {
            return Err(MromError::FixedSectionViolation {
                object: self.id,
                item: name.to_owned(),
            });
        }
        match self.ext_data.remove(name) {
            Some(_) => {
                self.touch_structure();
                Ok(())
            }
            None => Err(MromError::NoSuchDataItem {
                object: self.id,
                name: name.to_owned(),
            }),
        }
    }

    /// Names of the data items visible to `caller` (readable under their
    /// ACLs), each with its section. Self-representation is itself subject
    /// to security: what you may not read, you cannot see listed.
    pub fn list_data(&self, caller: ObjectId) -> Vec<(String, Section)> {
        let mut out = Vec::new();
        for (name, item) in self.fixed_data.iter() {
            if self.acl_allows(item.read_acl(), caller) {
                out.push((name.to_owned(), Section::Fixed));
            }
        }
        for (name, item) in self.ext_data.iter() {
            if self.acl_allows(item.read_acl(), caller) {
                out.push((name.to_owned(), Section::Extensible));
            }
        }
        out
    }

    // -- methods ------------------------------------------------------------

    /// Finds a method and its section, fixed first.
    pub fn find_method(&self, name: &str) -> Option<(&Method, Section)> {
        if let Some(m) = self.fixed_methods.get(name) {
            return Some((m, Section::Fixed));
        }
        self.ext_methods.get(name).map(|m| (m, Section::Extensible))
    }

    /// Resolves a method for dispatch through the generation-stamped
    /// cache, returning an owned (cheap, `Arc`-backed) handle.
    ///
    /// Cache hits for fixed methods go straight to the sealed slot via
    /// [`FixedContainer::get_by_index`] — the paper's "fixed offset" —
    /// skipping the name probe entirely; hits for extensible methods are
    /// honoured only when their stamp matches the current
    /// [`MromObject::generation`], so no structural mutation can ever be
    /// served a stale handle. Misses fall back to [`MromObject::find_method`]
    /// and stamp the result.
    ///
    /// This performs *no* ACL check: it is the Lookup phase, and Match
    /// (ACL) stays with the caller exactly as in the uncached path.
    pub fn lookup_method(&mut self, name: &str) -> Option<(Method, Section)> {
        self.lookup_method_traced(name, mrom_obs::enabled())
    }

    /// [`MromObject::lookup_method`] with the observability gate already
    /// read: the invocation machinery checks the thread-local mode byte
    /// once per application and passes the verdict down, so a disabled
    /// recorder costs nothing on the cache-hit path.
    pub(crate) fn lookup_method_traced(
        &mut self,
        name: &str,
        obs: bool,
    ) -> Option<(Method, Section)> {
        if let Some((slot, stamp)) = self.dispatch_cache.entries.get(name) {
            match slot {
                // Fixed slots are sealed at construction; the index can
                // never go stale, whatever the generation says.
                CachedSlot::Fixed(i) => {
                    let m = self.fixed_methods.get_by_index(*i).expect("sealed slot");
                    if obs {
                        mrom_obs::lookup(self.id, name, true, true);
                    }
                    return Some((m.clone(), Section::Fixed));
                }
                CachedSlot::Extensible(m) if *stamp == self.generation => {
                    let m = m.clone();
                    if obs {
                        mrom_obs::lookup(self.id, name, true, true);
                    }
                    return Some((m, Section::Extensible));
                }
                CachedSlot::Extensible(_) => {} // stale: re-resolve below
            }
        }
        if let Some(i) = self.fixed_methods.index_of(name) {
            let m = self
                .fixed_methods
                .get_by_index(i)
                .expect("index just probed")
                .clone();
            self.dispatch_cache
                .entries
                .insert(name.to_owned(), (CachedSlot::Fixed(i), self.generation));
            if obs {
                mrom_obs::lookup(self.id, name, false, true);
            }
            return Some((m, Section::Fixed));
        }
        if let Some(m) = self.ext_methods.get(name) {
            let m = m.clone();
            self.dispatch_cache.entries.insert(
                name.to_owned(),
                (CachedSlot::Extensible(m.clone()), self.generation),
            );
            if obs {
                mrom_obs::lookup(self.id, name, false, true);
            }
            return Some((m, Section::Extensible));
        }
        if obs {
            mrom_obs::lookup(self.id, name, false, false);
        }
        None
    }

    /// `true` when `caller` can see (i.e. is allowed to invoke) a method of
    /// this name.
    pub fn has_method(&self, caller: ObjectId, name: &str) -> bool {
        self.find_method(name)
            .is_some_and(|(m, _)| self.acl_allows(m.invoke_acl(), caller))
    }

    /// The `getMethod` meta-operation. Guarded by the invoke ACL; the body
    /// (the method's implementation) is additionally guarded by the
    /// method's meta ACL and redacted for callers that may invoke but not
    /// inspect.
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors.
    pub fn method_descriptor(&self, caller: ObjectId, name: &str) -> Result<Value, MromError> {
        let (method, section) = self
            .find_method(name)
            .ok_or_else(|| MromError::NoSuchMethod {
                object: self.id,
                name: name.to_owned(),
            })?;
        if !self.acl_allows(method.invoke_acl(), caller) {
            return Err(self.denied(name, "read", caller));
        }
        let mut desc = method.descriptor();
        if !self.acl_allows(method.meta_acl(), caller) {
            if let Some(m) = desc.as_map_mut() {
                m.insert("body".to_owned(), Value::Null);
                m.insert("pre".to_owned(), Value::Null);
                m.insert("post".to_owned(), Value::Null);
                m.insert("redacted".to_owned(), Value::Bool(true));
            }
        }
        if let Some(m) = desc.as_map_mut() {
            m.insert("section".to_owned(), Value::from(section.name()));
        }
        Ok(desc)
    }

    /// The `setMethod` meta-operation: replaces the body, attaches or
    /// detaches pre-/post-procedures, changes ACLs, or renames (via the
    /// `rename` key). Extensible only; guarded by the method's meta ACL.
    ///
    /// Host-side administration: the new body is installed without
    /// admission analysis. Mobile-code boundaries use
    /// [`MromObject::set_method_with_policy`].
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors, [`MromError::FixedSectionViolation`] for fixed
    /// methods, descriptor errors, rename collisions.
    pub fn set_method(
        &mut self,
        caller: ObjectId,
        name: &str,
        desc: &Value,
    ) -> Result<(), MromError> {
        self.set_method_with_policy(caller, name, desc, AdmissionPolicy::Off)
    }

    /// [`MromObject::set_method`] with the resulting method admitted under
    /// `policy` (checked after ACL and rename-collision checks).
    ///
    /// # Errors
    ///
    /// As [`MromObject::set_method`], plus
    /// [`MromError::AdmissionRejected`] when `policy` is strict and the
    /// new method fails static admission analysis.
    pub fn set_method_with_policy(
        &mut self,
        caller: ObjectId,
        name: &str,
        desc: &Value,
        policy: AdmissionPolicy,
    ) -> Result<(), MromError> {
        let (method, section) = self
            .find_method(name)
            .ok_or_else(|| MromError::NoSuchMethod {
                object: self.id,
                name: name.to_owned(),
            })?;
        if !self.acl_allows(method.meta_acl(), caller) {
            return Err(self.denied(name, "meta", caller));
        }
        if section == Section::Fixed {
            return Err(MromError::FixedSectionViolation {
                object: self.id,
                item: name.to_owned(),
            });
        }
        let m = desc.as_map().ok_or_else(|| {
            MromError::BadDescriptor(format!("descriptor must be a map, got {}", desc.kind()))
        })?;
        let rename = match m.get("rename") {
            None => None,
            Some(Value::Str(new_name)) => Some(new_name.clone()),
            Some(other) => {
                return Err(MromError::BadDescriptor(format!(
                    "rename must be a string, got {}",
                    other.kind()
                )))
            }
        };
        let mut rest = m.clone();
        rest.remove("rename");
        let desc_rest = Value::Map(rest);

        let mut method = self
            .ext_methods
            .get(name)
            .expect("section checked extensible")
            .clone();
        method.apply_descriptor(&desc_rest)?;
        if let Some(new_name) = &rename {
            if new_name != name
                && (self.fixed_methods.contains(new_name) || self.ext_methods.contains(new_name))
            {
                return Err(MromError::DuplicateItem {
                    object: self.id,
                    item: new_name.clone(),
                });
            }
        }
        crate::admission::admit_method(
            policy,
            self,
            rename.as_deref().unwrap_or(name),
            &method,
            "set_method",
        )?;
        if let Some(new_name) = rename {
            // Keep the tower consistent across renames.
            let interned: Arc<str> = Arc::from(new_name.as_str());
            for entry in &mut self.tower {
                if entry.as_ref() == name {
                    *entry = Arc::clone(&interned);
                }
            }
            self.ext_methods.remove(name);
            self.ext_methods.insert(new_name, method);
        } else {
            self.ext_methods.replace(name, method);
        }
        self.touch_structure();
        Ok(())
    }

    /// The `addMethod` meta-operation. Extensible only; guarded by the
    /// object meta ACL.
    ///
    /// Host-side administration: the body is installed without admission
    /// analysis. Mobile-code boundaries use
    /// [`MromObject::add_method_with_policy`].
    ///
    /// # Errors
    ///
    /// ACL errors, [`MromError::DuplicateItem`] on collisions.
    pub fn add_method(
        &mut self,
        caller: ObjectId,
        name: &str,
        method: Method,
    ) -> Result<(), MromError> {
        self.add_method_with_policy(caller, name, method, AdmissionPolicy::Off)
    }

    /// [`MromObject::add_method`] with the candidate admitted under
    /// `policy` (checked after ACL and duplicate checks).
    ///
    /// # Errors
    ///
    /// As [`MromObject::add_method`], plus
    /// [`MromError::AdmissionRejected`] when `policy` is strict and the
    /// candidate fails static admission analysis.
    pub fn add_method_with_policy(
        &mut self,
        caller: ObjectId,
        name: &str,
        method: Method,
        policy: AdmissionPolicy,
    ) -> Result<(), MromError> {
        self.check_meta(caller, name)?;
        if self.fixed_methods.contains(name) || self.ext_methods.contains(name) {
            return Err(MromError::DuplicateItem {
                object: self.id,
                item: name.to_owned(),
            });
        }
        crate::admission::admit_method(policy, self, name, &method, "add_method")?;
        self.ext_methods.insert(name.to_owned(), method);
        self.touch_structure();
        Ok(())
    }

    /// The `deleteMethod` meta-operation. Extensible only; guarded by the
    /// method's meta ACL *and* the object meta ACL.
    ///
    /// # Errors
    ///
    /// Lookup/ACL errors, [`MromError::FixedSectionViolation`] for fixed
    /// methods.
    pub fn delete_method(&mut self, caller: ObjectId, name: &str) -> Result<(), MromError> {
        let (method, section) = self
            .find_method(name)
            .ok_or_else(|| MromError::NoSuchMethod {
                object: self.id,
                name: name.to_owned(),
            })?;
        if !self.acl_allows(method.meta_acl(), caller) {
            return Err(self.denied(name, "meta", caller));
        }
        self.check_meta(caller, name)?;
        if section == Section::Fixed {
            return Err(MromError::FixedSectionViolation {
                object: self.id,
                item: name.to_owned(),
            });
        }
        self.ext_methods.remove(name);
        // An uninstalled body cannot serve as a tower level.
        self.tower.retain(|entry| entry.as_ref() != name);
        self.touch_structure();
        Ok(())
    }

    /// Every method the object carries, fixed section first (admission
    /// analysis needs the full set regardless of ACLs).
    pub(crate) fn methods_iter(&self) -> impl Iterator<Item = (&str, &Method)> {
        self.fixed_methods.iter().chain(self.ext_methods.iter())
    }

    /// Every method the object carries, fixed section first, ignoring
    /// ACLs. For host-side tooling (admission reports, bytecode dumps) —
    /// in-language code sees only the ACL-filtered [`Self::list_methods`].
    pub fn all_methods(&self) -> impl Iterator<Item = (&str, &Method)> {
        self.methods_iter()
    }

    /// Names of the methods invocable by `caller`, each with its section.
    pub fn list_methods(&self, caller: ObjectId) -> Vec<(String, Section)> {
        let mut out = Vec::new();
        for (name, m) in self.fixed_methods.iter() {
            if self.acl_allows(m.invoke_acl(), caller) {
                out.push((name.to_owned(), Section::Fixed));
            }
        }
        for (name, m) in self.ext_methods.iter() {
            if self.acl_allows(m.invoke_acl(), caller) {
                out.push((name.to_owned(), Section::Extensible));
            }
        }
        out
    }

    // -- invocation tower ----------------------------------------------------

    /// The installed meta-invoke chain, level 1 first. Entries are interned
    /// `Arc<str>` handles; descending the tower clones a handle per level,
    /// never a string.
    pub fn tower(&self) -> &[Arc<str>] {
        &self.tower
    }

    /// Installs `method_name` as the new topmost meta-invoke level
    /// (Figure 1's `meta_invoke`). The method must exist in the extensible
    /// section. Guarded by the object meta ACL.
    ///
    /// # Errors
    ///
    /// ACL errors; [`MromError::NoSuchMethod`] when absent;
    /// [`MromError::FixedSectionViolation`] when the named method is fixed
    /// (tower levels must remain replaceable, which is their point).
    pub fn install_meta_invoke(
        &mut self,
        caller: ObjectId,
        method_name: &str,
    ) -> Result<(), MromError> {
        self.check_meta(caller, method_name)?;
        match self.find_method(method_name) {
            None => Err(MromError::NoSuchMethod {
                object: self.id,
                name: method_name.to_owned(),
            }),
            Some((_, Section::Fixed)) => Err(MromError::FixedSectionViolation {
                object: self.id,
                item: method_name.to_owned(),
            }),
            Some((_, Section::Extensible)) => {
                self.tower.push(Arc::from(method_name));
                self.touch_structure();
                Ok(())
            }
        }
    }

    /// Removes the topmost meta-invoke level, returning its method name.
    /// Guarded by the object meta ACL.
    ///
    /// # Errors
    ///
    /// ACL errors.
    pub fn uninstall_meta_invoke(&mut self, caller: ObjectId) -> Result<Option<String>, MromError> {
        self.check_meta(caller, "tower")?;
        let popped = self.tower.pop().map(|entry| entry.to_string());
        if popped.is_some() {
            self.touch_structure();
        }
        Ok(popped)
    }

    // -- introspective summary ----------------------------------------------

    /// A self-representation summary: identity, class, and the items
    /// visible to `caller`. This is what a host environment uses to
    /// "interrogate the newcomer object".
    pub fn describe(&self, caller: ObjectId) -> Value {
        Value::map([
            ("id", Value::ObjectRef(self.id)),
            ("origin", Value::ObjectRef(self.origin)),
            ("class", Value::from(self.class_name.as_str())),
            (
                "data",
                Value::List(
                    self.list_data(caller)
                        .into_iter()
                        .map(|(n, s)| {
                            Value::map([
                                ("name", Value::Str(n)),
                                ("section", Value::from(s.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "methods",
                Value::List(
                    self.list_methods(caller)
                        .into_iter()
                        .map(|(n, s)| {
                            Value::map([
                                ("name", Value::Str(n)),
                                ("section", Value::from(s.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tower",
                Value::List(
                    self.tower
                        .iter()
                        .map(|n| Value::Str(n.as_ref().to_owned()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Counts all items (data + methods, both sections).
    pub fn item_count(&self) -> usize {
        self.fixed_data.len()
            + self.fixed_methods.len()
            + self.ext_data.len()
            + self.ext_methods.len()
    }

    /// `true` when every method (and procedure) in the object is mobile.
    pub fn is_mobile(&self) -> bool {
        self.fixed_methods.iter().all(|(_, m)| m.is_mobile())
            && self.ext_methods.iter().all(|(_, m)| m.is_mobile())
    }

    // -- crate-internal raw access (migration, class stamping) ---------------

    pub(crate) fn raw_parts(
        &self,
    ) -> (
        &FixedContainer<DataItem>,
        &FixedContainer<Method>,
        &ExtensibleContainer<DataItem>,
        &ExtensibleContainer<Method>,
    ) {
        (
            &self.fixed_data,
            &self.fixed_methods,
            &self.ext_data,
            &self.ext_methods,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        id: ObjectId,
        origin: ObjectId,
        class_name: String,
        fixed_data: FixedContainer<DataItem>,
        fixed_methods: FixedContainer<Method>,
        ext_data: ExtensibleContainer<DataItem>,
        ext_methods: ExtensibleContainer<Method>,
        tower: Vec<Arc<str>>,
        meta_acl: Acl,
    ) -> MromObject {
        MromObject {
            id,
            origin,
            class_name,
            fixed_data,
            fixed_methods,
            ext_data,
            ext_methods,
            tower,
            meta_acl,
            generation: 0,
            dispatch_cache: DispatchCache::default(),
            effects_cache: None,
        }
    }
}

/// Builder for [`MromObject`]s constructed directly (tests, substrates);
/// applications usually instantiate through [`crate::ClassRegistry`].
///
/// The nine meta-methods are registered automatically at [`ObjectBuilder::build`]
/// time — in the fixed section by default, or the extensible section for
/// classes that opt into *meta-mutability* via
/// [`ObjectBuilder::meta_section`].
#[derive(Debug)]
pub struct ObjectBuilder {
    id: ObjectId,
    origin: ObjectId,
    class_name: String,
    fixed_data: Vec<(String, DataItem)>,
    fixed_methods: Vec<(String, Method)>,
    ext_data: Vec<(String, DataItem)>,
    ext_methods: Vec<(String, Method)>,
    meta_acl: Acl,
    meta_section: Section,
    register_meta: bool,
}

impl ObjectBuilder {
    /// Starts a builder for an object with the given identity.
    pub fn new(id: ObjectId) -> ObjectBuilder {
        ObjectBuilder {
            id,
            origin: id,
            class_name: "object".to_owned(),
            fixed_data: Vec::new(),
            fixed_methods: Vec::new(),
            ext_data: Vec::new(),
            ext_methods: Vec::new(),
            meta_acl: Acl::Origin,
            meta_section: Section::Fixed,
            register_meta: true,
        }
    }

    /// Sets the class name recorded on the object.
    pub fn class(mut self, name: &str) -> ObjectBuilder {
        self.class_name = name.to_owned();
        self
    }

    /// Sets the origin principal (defaults to the object's own id).
    pub fn origin(mut self, origin: ObjectId) -> ObjectBuilder {
        self.origin = origin;
        self
    }

    /// Adds a fixed data item.
    pub fn fixed_data(mut self, name: &str, item: DataItem) -> ObjectBuilder {
        self.fixed_data.push((name.to_owned(), item));
        self
    }

    /// Adds a fixed method.
    pub fn fixed_method(mut self, name: &str, method: Method) -> ObjectBuilder {
        self.fixed_methods.push((name.to_owned(), method));
        self
    }

    /// Adds an initial extensible data item.
    pub fn ext_data(mut self, name: &str, item: DataItem) -> ObjectBuilder {
        self.ext_data.push((name.to_owned(), item));
        self
    }

    /// Adds an initial extensible method.
    pub fn ext_method(mut self, name: &str, method: Method) -> ObjectBuilder {
        self.ext_methods.push((name.to_owned(), method));
        self
    }

    /// Sets the object-level meta ACL.
    pub fn meta_acl(mut self, acl: Acl) -> ObjectBuilder {
        self.meta_acl = acl;
        self
    }

    /// Chooses the section the meta-methods are registered in.
    /// [`Section::Extensible`] enables meta-mutability: the reflective
    /// machinery itself becomes subject to `setMethod`/`deleteMethod`.
    pub fn meta_section(mut self, section: Section) -> ObjectBuilder {
        self.meta_section = section;
        self
    }

    /// Skips automatic meta-method registration entirely (used by the
    /// migration decoder, which restores them from the image).
    pub fn without_meta_methods(mut self) -> ObjectBuilder {
        self.register_meta = false;
        self
    }

    /// Finalizes the object, sealing the fixed section.
    pub fn build(self) -> MromObject {
        let mut fixed_methods = self.fixed_methods;
        let mut ext_methods = self.ext_methods;
        if self.register_meta {
            for op in MetaOp::ALL {
                let name = op.method_name().to_owned();
                let already = fixed_methods.iter().any(|(n, _)| *n == name)
                    || ext_methods.iter().any(|(n, _)| *n == name);
                if already {
                    continue;
                }
                // Introspective + invoke meta-methods are publicly callable
                // (their per-item checks still apply inside); mutating ones
                // default to origin-only.
                let acl = if op.is_mutating() {
                    Acl::Origin
                } else {
                    Acl::Public
                };
                let method = Method::new(MethodBody::Meta(op)).with_invoke_acl(acl);
                match self.meta_section {
                    Section::Fixed => fixed_methods.push((name, method)),
                    Section::Extensible => ext_methods.push((name, method)),
                }
            }
        }
        MromObject {
            id: self.id,
            origin: self.origin,
            class_name: self.class_name,
            fixed_data: self.fixed_data.into_iter().collect(),
            fixed_methods: fixed_methods.into_iter().collect(),
            ext_data: self.ext_data.into_iter().collect(),
            ext_methods: ext_methods.into_iter().collect(),
            tower: Vec::new(),
            meta_acl: self.meta_acl,
            generation: 0,
            dispatch_cache: DispatchCache::default(),
            effects_cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_value::{IdGenerator, NodeId};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(1))
    }

    fn basic_object(gen: &mut IdGenerator) -> MromObject {
        ObjectBuilder::new(gen.next_id())
            .class("test")
            .fixed_data("core", DataItem::public(Value::Int(1)))
            .fixed_method(
                "m_fixed",
                Method::public(MethodBody::script("return 1;").unwrap()),
            )
            .ext_data("soft", DataItem::public(Value::from("x")))
            .ext_method(
                "m_ext",
                Method::public(MethodBody::script("return 2;").unwrap()),
            )
            .build()
    }

    #[test]
    fn meta_methods_are_registered_in_fixed_by_default() {
        let mut gen = ids();
        let obj = basic_object(&mut gen);
        for op in MetaOp::ALL {
            let (_, section) = obj.find_method(op.method_name()).expect("registered");
            assert_eq!(section, Section::Fixed, "{op:?}");
        }
    }

    #[test]
    fn meta_section_extensible_enables_meta_mutability() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .meta_section(Section::Extensible)
            .build();
        let (_, section) = obj.find_method("invoke").unwrap();
        assert_eq!(section, Section::Extensible);
    }

    #[test]
    fn read_write_data_with_acls() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        // Public read works for anyone; write is origin-only by default.
        assert_eq!(obj.read_data(stranger, "core").unwrap(), Value::Int(1));
        assert!(matches!(
            obj.write_data(stranger, "core", Value::Int(2)),
            Err(MromError::AccessDenied { .. })
        ));
        obj.write_data(me, "core", Value::Int(2)).unwrap();
        assert_eq!(obj.read_data(me, "core").unwrap(), Value::Int(2));
        // Missing items.
        assert!(matches!(
            obj.read_data(me, "ghost"),
            Err(MromError::NoSuchDataItem { .. })
        ));
    }

    #[test]
    fn fixed_data_values_are_writable_but_structure_is_not() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.write_data(me, "core", Value::Int(10)).unwrap();
        assert!(matches!(
            obj.delete_data(me, "core"),
            Err(MromError::FixedSectionViolation { .. })
        ));
        assert!(matches!(
            obj.set_data_item(
                me,
                "core",
                &Value::map([("read_acl", Value::from("public"))])
            ),
            Err(MromError::FixedSectionViolation { .. })
        ));
    }

    #[test]
    fn add_and_delete_extensible_data() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        obj.add_data(me, "n", Value::Int(5)).unwrap();
        assert_eq!(obj.read_data(me, "n").unwrap(), Value::Int(5));
        // Strangers cannot mutate structure (meta ACL).
        assert!(matches!(
            obj.add_data(stranger, "w", Value::Null),
            Err(MromError::AccessDenied { .. })
        ));
        assert!(matches!(
            obj.delete_data(stranger, "n"),
            Err(MromError::AccessDenied { .. })
        ));
        // Duplicate names rejected across sections.
        assert!(matches!(
            obj.add_data(me, "core", Value::Null),
            Err(MromError::DuplicateItem { .. })
        ));
        assert!(matches!(
            obj.add_data(me, "n", Value::Null),
            Err(MromError::DuplicateItem { .. })
        ));
        obj.delete_data(me, "n").unwrap();
        assert!(!obj.has_data(me, "n"));
        assert!(matches!(
            obj.delete_data(me, "n"),
            Err(MromError::NoSuchDataItem { .. })
        ));
    }

    #[test]
    fn set_data_item_changes_properties_and_renames() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let friend = gen.next_id();
        // Make `soft` readable+writable by friend via descriptor.
        obj.set_data_item(
            me,
            "soft",
            &Value::map([("write_acl", Value::list([Value::Str(friend.to_string())]))]),
        )
        .unwrap();
        obj.write_data(friend, "soft", Value::from("by friend"))
            .unwrap();
        // Rename.
        obj.set_data_item(me, "soft", &Value::map([("rename", Value::from("firm"))]))
            .unwrap();
        assert!(obj.has_data(me, "firm"));
        assert!(!obj.has_data(me, "soft"));
        // Rename collision.
        obj.add_data(me, "other", Value::Null).unwrap();
        assert!(matches!(
            obj.set_data_item(me, "other", &Value::map([("rename", Value::from("firm"))])),
            Err(MromError::DuplicateItem { .. })
        ));
        // Rename to the same name is a no-op.
        obj.set_data_item(me, "firm", &Value::map([("rename", Value::from("firm"))]))
            .unwrap();
        assert!(obj.has_data(me, "firm"));
    }

    #[test]
    fn descriptor_failure_leaves_item_untouched() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let before = obj.data_descriptor(me, "soft").unwrap();
        let err = obj.set_data_item(
            me,
            "soft",
            &Value::map([
                ("read_acl", Value::from("public")),
                ("constraint", Value::from("exact:int")), // "x" violates
            ]),
        );
        assert!(err.is_err());
        assert_eq!(obj.data_descriptor(me, "soft").unwrap(), before);
    }

    #[test]
    fn method_lifecycle() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        obj.add_method(
            me,
            "new_m",
            Method::public(MethodBody::script("return 3;").unwrap()),
        )
        .unwrap();
        assert!(obj.has_method(stranger, "new_m"));
        // setMethod guarded by meta ACL (origin-only by default).
        assert!(matches!(
            obj.set_method(
                stranger,
                "new_m",
                &Value::map([("invoke_acl", Value::from("origin"))])
            ),
            Err(MromError::AccessDenied { .. })
        ));
        obj.set_method(
            me,
            "new_m",
            &Value::map([("invoke_acl", Value::from("origin"))]),
        )
        .unwrap();
        assert!(!obj.has_method(stranger, "new_m"));
        // Fixed methods cannot be set or deleted.
        assert!(matches!(
            obj.set_method(
                me,
                "m_fixed",
                &Value::map([("invoke_acl", Value::from("origin"))])
            ),
            Err(MromError::FixedSectionViolation { .. })
        ));
        assert!(matches!(
            obj.delete_method(me, "m_fixed"),
            Err(MromError::FixedSectionViolation { .. })
        ));
        obj.delete_method(me, "new_m").unwrap();
        assert!(obj.find_method("new_m").is_none());
    }

    #[test]
    fn method_rename_updates_tower() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.add_method(
            me,
            "mi",
            Method::public(MethodBody::script("return self.invoke(args[0], args[1]);").unwrap()),
        )
        .unwrap();
        obj.install_meta_invoke(me, "mi").unwrap();
        obj.set_method(me, "mi", &Value::map([("rename", Value::from("mi2"))]))
            .unwrap();
        assert_eq!(obj.tower(), [Arc::<str>::from("mi2")]);
    }

    #[test]
    fn deleting_a_tower_method_removes_the_level() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.add_method(
            me,
            "mi",
            Method::new(MethodBody::script("return 0;").unwrap()),
        )
        .unwrap();
        obj.install_meta_invoke(me, "mi").unwrap();
        assert_eq!(obj.tower().len(), 1);
        obj.delete_method(me, "mi").unwrap();
        assert!(obj.tower().is_empty());
    }

    #[test]
    fn tower_requires_extensible_methods() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        assert!(matches!(
            obj.install_meta_invoke(me, "m_fixed"),
            Err(MromError::FixedSectionViolation { .. })
        ));
        assert!(matches!(
            obj.install_meta_invoke(me, "ghost"),
            Err(MromError::NoSuchMethod { .. })
        ));
        assert!(matches!(
            obj.install_meta_invoke(stranger, "m_ext"),
            Err(MromError::AccessDenied { .. })
        ));
        obj.install_meta_invoke(me, "m_ext").unwrap();
        assert_eq!(obj.uninstall_meta_invoke(me).unwrap(), Some("m_ext".into()));
        assert_eq!(obj.uninstall_meta_invoke(me).unwrap(), None);
    }

    #[test]
    fn method_descriptor_redacts_body_for_non_meta_callers() {
        let mut gen = ids();
        let obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        let full = obj.method_descriptor(me, "m_ext").unwrap();
        assert!(!full.as_map().unwrap()["body"].is_null());
        let redacted = obj.method_descriptor(stranger, "m_ext").unwrap();
        let m = redacted.as_map().unwrap();
        assert!(m["body"].is_null());
        assert_eq!(m["redacted"], Value::Bool(true));
        // invoke_acl must still be visible so callers know they may call.
        assert_eq!(m["invoke_acl"], Value::from("public"));
    }

    #[test]
    fn listing_respects_visibility() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let stranger = gen.next_id();
        obj.add_data_item(me, "secret", DataItem::new(Value::Int(0)))
            .unwrap();
        let visible: Vec<String> = obj
            .list_data(stranger)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(visible.contains(&"core".to_owned()));
        assert!(!visible.contains(&"secret".to_owned()));
        let mine: Vec<String> = obj.list_data(me).into_iter().map(|(n, _)| n).collect();
        assert!(mine.contains(&"secret".to_owned()));
        // Methods: stranger sees public ones plus non-mutating metas.
        let methods: Vec<String> = obj
            .list_methods(stranger)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(methods.contains(&"m_fixed".to_owned()));
        assert!(methods.contains(&"invoke".to_owned()));
        assert!(!methods.contains(&"addMethod".to_owned()));
    }

    #[test]
    fn describe_summarizes_visible_surface() {
        let mut gen = ids();
        let obj = basic_object(&mut gen);
        let stranger = gen.next_id();
        let desc = obj.describe(stranger);
        let m = desc.as_map().unwrap();
        assert_eq!(m["id"], Value::ObjectRef(obj.id()));
        assert_eq!(m["class"], Value::from("test"));
        assert!(m["methods"].as_list().unwrap().len() >= 2);
    }

    #[test]
    fn origin_rebinding() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let new_origin = gen.next_id();
        let stranger = gen.next_id();
        assert!(obj.set_origin(stranger, new_origin).is_err());
        obj.set_origin(me, new_origin).unwrap();
        assert_eq!(obj.origin(), new_origin);
        // Now the new origin holds the keys.
        assert!(obj.set_origin(me, me).is_err());
    }

    #[test]
    fn meta_acl_can_be_tightened_to_nobody() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.set_meta_acl(me, Acl::Nobody).unwrap();
        // Even the origin is now locked out of structural mutation.
        assert!(matches!(
            obj.add_data(me, "x", Value::Null),
            Err(MromError::AccessDenied { .. })
        ));
        assert!(obj.set_meta_acl(me, Acl::Origin).is_err());
    }

    #[test]
    fn mobility_flag() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        assert!(obj.is_mobile());
        let me = obj.id();
        obj.add_method(
            me,
            "native",
            Method::new(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .unwrap();
        assert!(!obj.is_mobile());
    }

    #[test]
    fn lookup_method_caches_without_changing_resolution() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        // Cold and warm lookups agree with find_method for both sections,
        // and pure lookups never bump the structural generation.
        let g0 = obj.generation();
        for name in ["m_fixed", "m_ext", "invoke", "ghost"] {
            let via_find = obj.find_method(name).map(|(m, s)| (m.clone(), s));
            let cold = obj.lookup_method(name);
            let warm = obj.lookup_method(name);
            assert_eq!(cold, via_find, "{name}");
            assert_eq!(warm, via_find, "{name}");
        }
        assert_eq!(obj.generation(), g0);
    }

    #[test]
    fn set_method_invalidates_cached_handles() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let (before, _) = obj.lookup_method("m_ext").unwrap();
        let g0 = obj.generation();
        obj.set_method(
            me,
            "m_ext",
            &Value::map([("body", Value::from("return 99;"))]),
        )
        .unwrap();
        assert!(obj.generation() > g0);
        let (after, _) = obj.lookup_method("m_ext").unwrap();
        assert_ne!(after, before, "stale handle served after setMethod");
        assert_eq!(
            after.descriptor().as_map().unwrap()["body"],
            obj.find_method("m_ext")
                .unwrap()
                .0
                .descriptor()
                .as_map()
                .unwrap()["body"]
        );
    }

    #[test]
    fn delete_and_add_method_invalidate_cached_handles() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.lookup_method("m_ext").unwrap(); // warm the cache
        obj.delete_method(me, "m_ext").unwrap();
        assert!(
            obj.lookup_method("m_ext").is_none(),
            "stale hit after deleteMethod"
        );
        let replacement = Method::public(MethodBody::script("return 7;").unwrap());
        obj.add_method(me, "m_ext", replacement.clone()).unwrap();
        let (found, section) = obj.lookup_method("m_ext").unwrap();
        assert_eq!(section, Section::Extensible);
        assert_eq!(found, replacement);
    }

    #[test]
    fn tower_changes_bump_generation() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        let g0 = obj.generation();
        obj.install_meta_invoke(me, "m_ext").unwrap();
        let g1 = obj.generation();
        assert!(g1 > g0);
        assert_eq!(obj.uninstall_meta_invoke(me).unwrap(), Some("m_ext".into()));
        assert!(obj.generation() > g1);
        // Popping an empty tower is a no-op, not a structural change.
        let g2 = obj.generation();
        assert_eq!(obj.uninstall_meta_invoke(me).unwrap(), None);
        assert_eq!(obj.generation(), g2);
    }

    #[test]
    fn cloned_objects_diverge_without_sharing_staleness() {
        let mut gen = ids();
        let mut obj = basic_object(&mut gen);
        let me = obj.id();
        obj.lookup_method("m_ext").unwrap(); // warm the cache
        let mut copy = obj.clone();
        assert_eq!(copy, obj);
        // Mutating the original must not leak into the copy's resolution
        // (and vice versa) even though the warm cache was cloned along.
        obj.delete_method(me, "m_ext").unwrap();
        assert!(obj.lookup_method("m_ext").is_none());
        assert!(copy.lookup_method("m_ext").is_some());
        assert_ne!(copy, obj);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let mut gen = ids();
        let mut warm = basic_object(&mut gen);
        let cold = warm.clone();
        warm.lookup_method("m_fixed").unwrap();
        warm.lookup_method("m_ext").unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn item_count_counts_everything() {
        let mut gen = ids();
        let obj = basic_object(&mut gen);
        // 2 data + 2 own methods + 12 meta-methods (the paper's nine
        // plus the getStats/getEffects/getTelemetry reproduction
        // extensions).
        assert_eq!(obj.item_count(), 16);
    }
}
