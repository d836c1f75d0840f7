//! The self-persistence protocol: objects write themselves into
//! host-allocated space; hosts bootstrap them back.

use mrom_core::{AdmissionPolicy, MromObject};
use mrom_value::ObjectId;

use crate::error::PersistError;
use crate::store::BlobStore;

/// Binds a [`BlobStore`] to the object self-persistence protocol.
///
/// `save` asks the *object* to serialize itself (its migration image) and
/// stores the bytes under the object's identity; `restore` is the paper's
/// "bootstrap procedure initiated by the host environment": the host
/// fetches the bytes and the object's own deserializer rebuilds it.
#[derive(Debug)]
pub struct Depot<S> {
    store: S,
}

impl<S: BlobStore> Depot<S> {
    /// Wraps a store.
    pub fn new(store: S) -> Depot<S> {
        Depot { store }
    }

    /// Access to the underlying store (inspection, maintenance).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the depot, returning the store.
    pub fn into_inner(self) -> S {
        self.store
    }

    /// Persists `obj`: the object serializes itself and the image is
    /// stored under its identity.
    ///
    /// # Errors
    ///
    /// [`PersistError::Model`] when the object is not mobile (native
    /// bodies) and backend I/O failures.
    pub fn save(&mut self, obj: &MromObject) -> Result<(), PersistError> {
        // The object acts with its own authority when persisting itself.
        let image = obj.migration_image(obj.id())?;
        mrom_obs::depot_save(obj.id(), image.len());
        self.store.put(&obj.id().to_string(), &image)
    }

    /// `true` when an image for `id` is stored.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.store.keys().iter().any(|k| k == &id.to_string())
    }

    /// Bootstraps the object stored under `id`.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotFound`], [`PersistError::Corrupt`], or image
    /// validation failures.
    pub fn restore(&self, id: ObjectId) -> Result<MromObject, PersistError> {
        let result = self.restore_inner(id);
        let corrupt = matches!(result, Err(PersistError::Corrupt { .. }));
        mrom_obs::depot_restore(result.is_ok(), corrupt);
        result
    }

    fn restore_inner(&self, id: ObjectId) -> Result<MromObject, PersistError> {
        let bytes = self
            .store
            .get(&id.to_string())?
            .ok_or(PersistError::NotFound(id))?;
        Ok(MromObject::from_image_with_policy(
            &bytes,
            AdmissionPolicy::Off,
        )?)
    }

    /// Removes the stored image for `id`; `true` if one existed.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn remove(&mut self, id: ObjectId) -> Result<bool, PersistError> {
        self.store.delete(&id.to_string())
    }

    /// Checkpoints every mobile object a node hosts: each object writes
    /// itself; objects the model layer refuses to image — native bodies,
    /// or a meta ACL that withholds the object's own migration image
    /// (system ambassadors do this) — are reported (not persisted) so
    /// the host can decide what to do about them. Returns the number of
    /// objects persisted.
    ///
    /// # Errors
    ///
    /// Backend I/O failures abort the checkpoint (already-written objects
    /// remain stored — the log is append-only, so a partial checkpoint is
    /// still a consistent set of images).
    pub fn checkpoint<I>(&mut self, objects: I) -> Result<(usize, Vec<ObjectId>), PersistError>
    where
        I: IntoIterator,
        I::Item: std::ops::Deref<Target = MromObject>,
    {
        let mut saved = 0;
        let mut pinned = Vec::new();
        for obj in objects {
            if !obj.is_mobile() {
                pinned.push(obj.id());
                continue;
            }
            match self.save(&obj) {
                Ok(()) => saved += 1,
                Err(PersistError::Model(_)) => pinned.push(obj.id()),
                Err(e) => return Err(e),
            }
        }
        Ok((saved, pinned))
    }

    /// Bootstraps every stored object (node restart). Corrupt or invalid
    /// images are returned separately so a host can quarantine them
    /// without losing healthy objects.
    pub fn restore_all(&self) -> (Vec<MromObject>, Vec<(String, PersistError)>) {
        let mut ok = Vec::new();
        let mut failed = Vec::new();
        for key in self.store.keys() {
            match self.store.get(&key).and_then(|bytes| match bytes {
                Some(b) => MromObject::from_image_with_policy(&b, AdmissionPolicy::Off)
                    .map_err(PersistError::from),
                None => Err(PersistError::Corrupt {
                    key: key.clone(),
                    detail: "key vanished during restore".into(),
                }),
            }) {
                Ok(obj) => {
                    mrom_obs::depot_restore(true, false);
                    ok.push(obj);
                }
                Err(e) => {
                    mrom_obs::depot_restore(false, matches!(e, PersistError::Corrupt { .. }));
                    failed.push((key, e));
                }
            }
        }
        (ok, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use mrom_core::{DataItem, Method, MethodBody, ObjectBuilder};
    use mrom_value::{IdGenerator, NodeId, Value};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(15))
    }

    fn persistent_object(gen: &mut IdGenerator, marker: i64) -> MromObject {
        ObjectBuilder::new(gen.next_id())
            .class("persistent")
            .fixed_data("marker", DataItem::public(Value::Int(marker)))
            .fixed_method(
                "marker",
                Method::public(MethodBody::script("return self.get(\"marker\");").unwrap()),
            )
            .build()
    }

    #[test]
    fn save_restore_round_trip() {
        let mut gen = ids();
        let obj = persistent_object(&mut gen, 1);
        let mut depot = Depot::new(MemStore::new());
        assert!(!depot.contains(obj.id()));
        depot.save(&obj).unwrap();
        assert!(depot.contains(obj.id()));
        let back = depot.restore(obj.id()).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn restore_missing_is_not_found() {
        let mut gen = ids();
        let depot = Depot::new(MemStore::new());
        let ghost = gen.next_id();
        assert!(matches!(
            depot.restore(ghost),
            Err(PersistError::NotFound(id)) if id == ghost
        ));
    }

    #[test]
    fn non_mobile_objects_refuse_to_persist() {
        let mut gen = ids();
        let mut obj = persistent_object(&mut gen, 2);
        let me = obj.id();
        obj.add_method(
            me,
            "rooted",
            Method::new(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .unwrap();
        let mut depot = Depot::new(MemStore::new());
        assert!(matches!(
            depot.save(&obj),
            Err(PersistError::Model(mrom_core::MromError::NotMobile { .. }))
        ));
    }

    #[test]
    fn corrupted_image_is_reported_not_loaded() {
        let mut gen = ids();
        let obj = persistent_object(&mut gen, 3);
        let mut depot = Depot::new(MemStore::new());
        depot.save(&obj).unwrap();
        depot.store_mut().corrupt(&obj.id().to_string(), 40);
        assert!(matches!(
            depot.restore(obj.id()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn restore_all_quarantines_bad_images() {
        let mut gen = ids();
        let good_a = persistent_object(&mut gen, 10);
        let good_b = persistent_object(&mut gen, 11);
        let bad = persistent_object(&mut gen, 12);
        let mut depot = Depot::new(MemStore::new());
        depot.save(&good_a).unwrap();
        depot.save(&good_b).unwrap();
        depot.save(&bad).unwrap();
        depot.store_mut().corrupt(&bad.id().to_string(), 10);

        let (ok, failed) = depot.restore_all();
        assert_eq!(ok.len(), 2);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].0.contains(&bad.id().to_string()));
        let restored: Vec<_> = ok.iter().map(MromObject::id).collect();
        assert!(restored.contains(&good_a.id()));
        assert!(restored.contains(&good_b.id()));
    }

    #[test]
    fn remove_then_restore_fails() {
        let mut gen = ids();
        let obj = persistent_object(&mut gen, 5);
        let mut depot = Depot::new(MemStore::new());
        depot.save(&obj).unwrap();
        assert!(depot.remove(obj.id()).unwrap());
        assert!(!depot.remove(obj.id()).unwrap());
        assert!(matches!(
            depot.restore(obj.id()),
            Err(PersistError::NotFound(_))
        ));
    }

    #[test]
    fn mutated_state_survives_persistence() {
        let mut gen = ids();
        let mut obj = persistent_object(&mut gen, 0);
        let me = obj.id();
        obj.add_data(me, "journey", Value::list([Value::from("created")]))
            .unwrap();
        obj.write_data(me, "marker", Value::Int(99)).unwrap();
        let mut depot = Depot::new(MemStore::new());
        depot.save(&obj).unwrap();
        let back = depot.restore(me).unwrap();
        assert_eq!(back.read_data(me, "marker").unwrap(), Value::Int(99));
        assert_eq!(
            back.read_data(me, "journey").unwrap(),
            Value::list([Value::from("created")])
        );
    }
}
