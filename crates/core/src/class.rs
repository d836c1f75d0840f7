//! Classes and static specialization.
//!
//! The paper implements static specialization with Java subclassing: "the
//! subclass constructor copies the containers of the super-class ... as
//! well as adding items". Here a [`ClassSpec`] is an explicit template —
//! fixed and extensible item lists plus meta-method placement — and
//! [`ClassSpec::specialize`] performs the copy-then-extend. Dynamic
//! (runtime) specialization needs no class machinery at all: it is the
//! object mutating itself, prototype-style (Self/Cecil in the paper's
//! comparison).

use std::collections::BTreeMap;

use mrom_value::{IdGenerator, ObjectId};

use crate::container::Section;
use crate::error::MromError;
use crate::item::DataItem;
use crate::method::Method;
use crate::object::{MromObject, ObjectBuilder};
use crate::security::Acl;

/// A template from which objects are stamped.
///
/// # Example
///
/// ```
/// use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
/// use mrom_value::{IdGenerator, NodeId, Value};
///
/// # fn main() -> Result<(), mrom_core::MromError> {
/// let spec = ClassSpec::new("sensor")
///     .fixed_data("reading", DataItem::public(Value::Float(0.0)))
///     .fixed_method(
///         "read",
///         Method::public(MethodBody::script("return self.get(\"reading\");")?),
///     );
/// let mut ids = IdGenerator::new(NodeId(4));
/// let obj = spec.instantiate(&mut ids);
/// assert_eq!(obj.class_name(), "sensor");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClassSpec {
    name: String,
    fixed_data: Vec<(String, DataItem)>,
    fixed_methods: Vec<(String, Method)>,
    ext_data: Vec<(String, DataItem)>,
    ext_methods: Vec<(String, Method)>,
    meta_acl: Acl,
    meta_section: Section,
}

impl ClassSpec {
    /// Starts an empty class template.
    pub fn new(name: &str) -> ClassSpec {
        ClassSpec {
            name: name.to_owned(),
            fixed_data: Vec::new(),
            fixed_methods: Vec::new(),
            ext_data: Vec::new(),
            ext_methods: Vec::new(),
            meta_acl: Acl::Origin,
            meta_section: Section::Fixed,
        }
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a fixed data item to the template.
    pub fn fixed_data(mut self, name: &str, item: DataItem) -> ClassSpec {
        self.fixed_data.push((name.to_owned(), item));
        self
    }

    /// Adds a fixed method.
    pub fn fixed_method(mut self, name: &str, method: Method) -> ClassSpec {
        self.fixed_methods.push((name.to_owned(), method));
        self
    }

    /// Adds an initial extensible data item.
    pub fn ext_data(mut self, name: &str, item: DataItem) -> ClassSpec {
        self.ext_data.push((name.to_owned(), item));
        self
    }

    /// Adds an initial extensible method.
    pub fn ext_method(mut self, name: &str, method: Method) -> ClassSpec {
        self.ext_methods.push((name.to_owned(), method));
        self
    }

    /// Sets the object-level meta ACL instances start with.
    pub fn meta_acl(mut self, acl: Acl) -> ClassSpec {
        self.meta_acl = acl;
        self
    }

    /// Chooses where instances carry their meta-methods;
    /// [`Section::Extensible`] opts the class into meta-mutability.
    pub fn meta_section(mut self, section: Section) -> ClassSpec {
        self.meta_section = section;
        self
    }

    /// Static specialization: a new class that copies this class's
    /// containers and then applies its own additions (later entries
    /// override same-name parent entries, like a subclass redefining a
    /// method).
    pub fn specialize(&self, name: &str) -> ClassSpec {
        let mut child = self.clone();
        child.name = name.to_owned();
        child
    }

    /// Stamps an instance with a fresh identity from `ids`.
    pub fn instantiate(&self, ids: &mut IdGenerator) -> MromObject {
        self.instantiate_with_origin(ids, None)
    }

    /// Stamps an instance owned by an explicit origin principal (how an
    /// APO instantiates an Ambassador it will own).
    pub fn instantiate_with_origin(
        &self,
        ids: &mut IdGenerator,
        origin: Option<ObjectId>,
    ) -> MromObject {
        self.instantiate_as(ids.next_id(), origin)
    }

    /// Stamps an instance with a pre-minted identity (the runtime
    /// path, where ids come from an [`mrom_value::AtomicIdGenerator`]).
    pub fn instantiate_as(&self, id: ObjectId, origin: Option<ObjectId>) -> MromObject {
        let mut b = ObjectBuilder::new(id)
            .class(&self.name)
            .origin(origin.unwrap_or(id))
            .meta_acl(self.meta_acl.clone())
            .meta_section(self.meta_section);
        for (n, item) in &self.fixed_data {
            b = b.fixed_data(n, item.clone());
        }
        for (n, m) in &self.fixed_methods {
            b = b.fixed_method(n, m.clone());
        }
        for (n, item) in &self.ext_data {
            b = b.ext_data(n, item.clone());
        }
        for (n, m) in &self.ext_methods {
            b = b.ext_method(n, m.clone());
        }
        b.build()
    }
}

/// A per-node registry of class templates.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    classes: BTreeMap<String, ClassSpec>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Registers a class.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] when the name is already registered.
    pub fn register(&mut self, spec: ClassSpec) -> Result<(), MromError> {
        if self.classes.contains_key(spec.name()) {
            return Err(MromError::Class(format!(
                "class {:?} is already registered",
                spec.name()
            )));
        }
        self.classes.insert(spec.name().to_owned(), spec);
        Ok(())
    }

    /// Looks a class up by name.
    pub fn get(&self, name: &str) -> Option<&ClassSpec> {
        self.classes.get(name)
    }

    /// Registered class names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    /// Instantiates a registered class.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] for unknown names.
    pub fn instantiate(&self, name: &str, ids: &mut IdGenerator) -> Result<MromObject, MromError> {
        // Look the class up before minting, so a failed create does not
        // consume an identity.
        self.get(name)
            .ok_or_else(|| MromError::Class(format!("unknown class {name:?}")))?;
        self.instantiate_with_id(name, ids.next_id())
    }

    /// Instantiates a registered class with a pre-minted identity.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] for unknown names.
    pub fn instantiate_with_id(&self, name: &str, id: ObjectId) -> Result<MromObject, MromError> {
        self.get(name)
            .map(|spec| spec.instantiate_as(id, None))
            .ok_or_else(|| MromError::Class(format!("unknown class {name:?}")))
    }

    /// Replaces a registered class definition — *class evolution* in the
    /// schema-evolution sense the paper cites (Banerjee & Kim \[4\]) and
    /// deliberately contrasts with MROM's object-level mutability: a
    /// redefinition here shapes **future** instances only; objects already
    /// stamped keep their structure and change exclusively through their
    /// own meta-methods.
    ///
    /// # Errors
    ///
    /// [`MromError::Class`] when the name was never registered (use
    /// [`ClassRegistry::register`] for new classes) or when the new spec's
    /// name does not match.
    pub fn redefine(&mut self, spec: ClassSpec) -> Result<(), MromError> {
        match self.classes.get_mut(spec.name()) {
            Some(slot) => {
                *slot = spec;
                Ok(())
            }
            None => Err(MromError::Class(format!(
                "cannot redefine unregistered class {:?}",
                spec.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::{invoke, NoWorld};
    use crate::method::MethodBody;
    use mrom_value::{NodeId, Value};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(3))
    }

    fn base_class() -> ClassSpec {
        ClassSpec::new("account")
            .fixed_data("balance", DataItem::public(Value::Int(100)))
            .fixed_method(
                "balance",
                Method::public(MethodBody::script("return self.get(\"balance\");").unwrap()),
            )
            .fixed_method(
                "describe_kind",
                Method::public(MethodBody::script("return \"plain\";").unwrap()),
            )
    }

    #[test]
    fn instantiation_stamps_independent_objects() {
        let mut gen = ids();
        let spec = base_class();
        let mut a = spec.instantiate(&mut gen);
        let b = spec.instantiate(&mut gen);
        assert_ne!(a.id(), b.id());
        let a_id = a.id();
        a.write_data(a_id, "balance", Value::Int(5)).unwrap();
        assert_eq!(b.read_data(b.id(), "balance").unwrap(), Value::Int(100));
    }

    #[test]
    fn specialization_copies_then_overrides() {
        let mut gen = ids();
        let child = base_class()
            .specialize("savings")
            // Override an inherited method...
            .fixed_method(
                "describe_kind",
                Method::public(MethodBody::script("return \"savings\";").unwrap()),
            )
            // ...and add a new one.
            .fixed_method(
                "interest",
                Method::public(MethodBody::script("return self.get(\"balance\") / 10;").unwrap()),
            );
        let mut obj = child.instantiate(&mut gen);
        let caller = gen.next_id();
        let mut world = NoWorld;
        assert_eq!(obj.class_name(), "savings");
        // Inherited method still present.
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "balance", &[]).unwrap(),
            Value::Int(100)
        );
        // Override wins.
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "describe_kind", &[]).unwrap(),
            Value::from("savings")
        );
        // Extension works.
        assert_eq!(
            invoke(&mut obj, &mut world, caller, "interest", &[]).unwrap(),
            Value::Int(10)
        );
        // Parent unaffected.
        let mut parent = base_class().instantiate(&mut gen);
        assert_eq!(
            invoke(&mut parent, &mut world, caller, "describe_kind", &[]).unwrap(),
            Value::from("plain")
        );
    }

    #[test]
    fn instantiate_with_origin_binds_ownership() {
        let mut gen = ids();
        let owner = gen.next_id();
        let obj = base_class().instantiate_with_origin(&mut gen, Some(owner));
        assert_eq!(obj.origin(), owner);
        assert_ne!(obj.id(), owner);
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = ClassRegistry::new();
        reg.register(base_class()).unwrap();
        reg.register(base_class().specialize("savings")).unwrap();
        assert_eq!(reg.names(), ["account", "savings"]);
        assert!(reg.get("account").is_some());
        let mut gen = ids();
        let obj = reg.instantiate("savings", &mut gen).unwrap();
        assert_eq!(obj.class_name(), "savings");
        assert!(matches!(
            reg.instantiate("ghost", &mut gen),
            Err(MromError::Class(_))
        ));
        assert!(matches!(
            reg.register(base_class()),
            Err(MromError::Class(_))
        ));
    }

    #[test]
    fn class_redefinition_shapes_future_instances_only() {
        let mut reg = ClassRegistry::new();
        reg.register(base_class()).unwrap();
        let mut gen = ids();
        let mut old_instance = reg.instantiate("account", &mut gen).unwrap();
        // Evolve the class: different default balance, a new method.
        reg.redefine(
            base_class()
                .fixed_data("balance", DataItem::public(Value::Int(500)))
                .fixed_method(
                    "currency",
                    Method::public(MethodBody::script("return \"ILS\";").unwrap()),
                ),
        )
        .unwrap();
        let mut new_instance = reg.instantiate("account", &mut gen).unwrap();
        let caller = gen.next_id();
        let mut world = NoWorld;
        // New instances see the evolved shape...
        assert_eq!(
            invoke(&mut new_instance, &mut world, caller, "balance", &[]).unwrap(),
            Value::Int(500)
        );
        assert_eq!(
            invoke(&mut new_instance, &mut world, caller, "currency", &[]).unwrap(),
            Value::from("ILS")
        );
        // ...while the pre-evolution object is untouched (object-level
        // mutability is the only way *it* changes).
        assert_eq!(
            invoke(&mut old_instance, &mut world, caller, "balance", &[]).unwrap(),
            Value::Int(100)
        );
        assert!(invoke(&mut old_instance, &mut world, caller, "currency", &[]).is_err());
        // Redefining an unknown class is an error.
        assert!(matches!(
            reg.redefine(ClassSpec::new("ghost")),
            Err(MromError::Class(_))
        ));
    }

    #[test]
    fn dynamic_specialization_mimics_prototypes() {
        // Runtime specialization without any class: the object extends
        // itself, giving the prototype-language effect the paper cites.
        let mut gen = ids();
        let mut obj = base_class().instantiate(&mut gen);
        let me = obj.id();
        obj.add_method(
            me,
            "bonus",
            Method::public(MethodBody::script("return self.get(\"balance\") + 1;").unwrap()),
        )
        .unwrap();
        let mut world = NoWorld;
        assert_eq!(
            invoke(&mut obj, &mut world, me, "bonus", &[]).unwrap(),
            Value::Int(101)
        );
    }
}
