//! The InterOperability Object (IOO) — Figure 2's per-site root object.
//!
//! The IOO is itself an MROM object: its *Home* and *Vicinity* components
//! are data items holding name→reference maps, and *Interop* programs are
//! methods added to its extensible section at runtime. The federation
//! driver updates Home/Vicinity with the system principal as the protocol
//! handlers run.

use mrom_core::{Acl, DataItem, Method, MethodBody, MromObject, ObjectBuilder};
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

/// Builds a fresh IOO for `node`.
///
/// Layout:
///
/// * `site` — the node id (fixed, public read);
/// * `home` — map of APO name → object ref (fixed item, mutable value);
/// * `vicinity` — map of remote node id (as string) → IOO-Ambassador
///   object ref;
/// * `guests` — map of hosted APO-Ambassador id → origin APO ref;
/// * `describe_site` — a fixed introspection method any newcomer may call.
///
/// Interop programs (coordination level) are added later via `addMethod`.
pub fn build_ioo(ids: &mut IdGenerator, node: NodeId) -> MromObject {
    build_ioo_as(ids.next_id(), node)
}

/// [`build_ioo`] with a pre-minted identity (the runtime path,
/// where ids are minted through `&self`).
pub fn build_ioo_as(id: ObjectId, node: NodeId) -> MromObject {
    let system_writable = Acl::only([ObjectId::SYSTEM]);
    ObjectBuilder::new(id)
        .class("ioo")
        .meta_acl(Acl::only([ObjectId::SYSTEM]))
        .fixed_data(
            "site",
            DataItem::public(Value::Int(node.0 as i64)).with_write_acl(Acl::Nobody),
        )
        .fixed_data(
            "home",
            DataItem::public(Value::map::<String, _>([])).with_write_acl(system_writable.clone()),
        )
        .fixed_data(
            "vicinity",
            DataItem::public(Value::map::<String, _>([])).with_write_acl(system_writable.clone()),
        )
        .fixed_data(
            "guests",
            DataItem::public(Value::map::<String, _>([])).with_write_acl(system_writable),
        )
        .fixed_method(
            "describe_site",
            Method::public(
                MethodBody::script(
                    r#"
                    return {
                        "site": self.get("site"),
                        "home": keys(self.get("home")),
                        "vicinity": keys(self.get("vicinity")),
                        "guests": len(self.get("guests"))
                    };
                    "#,
                )
                .expect("describe_site script parses"),
            ),
        )
        .build()
}

/// Inserts `name → reference` into one of the IOO's map items with the
/// system principal.
pub(crate) fn map_insert(ioo: &mut MromObject, item: &str, key: &str, reference: Value) {
    let mut map = ioo
        .read_data(ObjectId::SYSTEM, item)
        .expect("ioo map item exists");
    if let Some(m) = map.as_map_mut() {
        m.insert(key.to_owned(), reference);
    }
    ioo.write_data(ObjectId::SYSTEM, item, map)
        .expect("system may write ioo maps");
}

/// Removes `key` from one of the IOO's map items.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn map_remove(ioo: &mut MromObject, item: &str, key: &str) {
    let mut map = ioo
        .read_data(ObjectId::SYSTEM, item)
        .expect("ioo map item exists");
    if let Some(m) = map.as_map_mut() {
        m.remove(key);
    }
    ioo.write_data(ObjectId::SYSTEM, item, map)
        .expect("system may write ioo maps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_core::{invoke, NoWorld};

    #[test]
    fn ioo_exposes_its_components() {
        let mut ids = IdGenerator::new(NodeId(50));
        let mut ioo = build_ioo(&mut ids, NodeId(50));
        let newcomer = ids.next_id();
        let mut world = NoWorld;
        let desc = invoke(&mut ioo, &mut world, newcomer, "describe_site", &[]).unwrap();
        let m = desc.as_map().unwrap();
        assert_eq!(m["site"], Value::Int(50));
        assert_eq!(m["home"], Value::list([]));
        assert_eq!(m["guests"], Value::Int(0));
    }

    #[test]
    fn system_updates_maps_strangers_cannot() {
        let mut ids = IdGenerator::new(NodeId(51));
        let mut ioo = build_ioo(&mut ids, NodeId(51));
        let apo_ref = Value::ObjectRef(ids.next_id());
        map_insert(&mut ioo, "home", "db", apo_ref.clone());
        let stranger = ids.next_id();
        let home = ioo.read_data(stranger, "home").unwrap();
        assert_eq!(home.as_map().unwrap()["db"], apo_ref);
        // Strangers cannot write the maps.
        assert!(ioo
            .write_data(stranger, "home", Value::map::<String, _>([]))
            .is_err());
        map_remove(&mut ioo, "home", "db");
        let home = ioo.read_data(stranger, "home").unwrap();
        assert!(home.as_map().unwrap().is_empty());
    }

    #[test]
    fn interop_programs_attach_at_runtime() {
        let mut ids = IdGenerator::new(NodeId(52));
        let mut ioo = build_ioo(&mut ids, NodeId(52));
        // The federation (system principal) installs a coordination
        // program into the extensible section.
        ioo.add_method(
            ObjectId::SYSTEM,
            "count_partners",
            Method::public(MethodBody::script("return len(self.get(\"vicinity\"));").unwrap()),
        )
        .unwrap();
        map_insert(&mut ioo, "vicinity", "n60", Value::ObjectRef(ids.next_id()));
        let mut world = NoWorld;
        let caller = ids.next_id();
        assert_eq!(
            invoke(&mut ioo, &mut world, caller, "count_partners", &[]).unwrap(),
            Value::Int(1)
        );
    }
}
