//! # mrom-core
//!
//! A Rust reproduction of **MROM** — the Mutable Reflective Object Model of
//! Holder & Ben-Shaul, *A Reflective Model for Mobile Software Objects*
//! (ICDCS 1997).
//!
//! ## The model in one paragraph
//!
//! An [`MromObject`] is an autonomous computational entity built from four
//! item containers: **fixed** data and methods (sealed at construction; the
//! stable basis for specialization) and **extensible** data and methods
//! (mutable at runtime; the adaptation surface for foreign environments).
//! Nine reflective **meta-methods** — `get/set/add/deleteDataItem`,
//! `get/set/add/deleteMethod`, and `invoke` — are bundled *inside* every
//! object, so a mobile object carries its own reflection. Invocation runs a
//! three-phase base mechanism (**Lookup → Match → Apply**) where Match is a
//! per-item [`Acl`] check — security and encapsulation are the same
//! mechanism — and Apply wraps the body in optional pre-/post-procedures.
//! `invoke` itself can be wrapped by installed *meta-invoke* levels (the
//! invocation tower of the paper's Figure 1), enabling semantics such as
//! charging, approval, and maintenance cut-offs to be attached at runtime.
//!
//! ## Substitutions relative to the paper
//!
//! The paper's implementation substrate is Java (bytecode mobility, runtime
//! reflection). Rust offers neither, so method bodies are either *native*
//! Rust closures (fast, not mobile) or *script* programs in the
//! [`mrom_script`] language (data: serializable, shippable, executable on
//! any node). Migration images ([`MromObject::migration_image`]) are fully
//! self-contained byte strings in the hand-rolled wire format of
//! [`mrom_value`].
//!
//! ## Quick start
//!
//! ```
//! use mrom_core::{invoke, Acl, DataItem, Method, MethodBody, NoWorld, ObjectBuilder};
//! use mrom_value::{IdGenerator, NodeId, Value};
//!
//! # fn main() -> Result<(), mrom_core::MromError> {
//! let mut ids = IdGenerator::new(NodeId(1));
//! let mut obj = ObjectBuilder::new(ids.next_id())
//!     .class("greeter")
//!     .fixed_data("greeting", DataItem::public(Value::from("hello")))
//!     .fixed_method(
//!         "greet",
//!         Method::public(MethodBody::script(
//!             "param who; return self.get(\"greeting\") + \", \" + who;",
//!         )?),
//!     )
//!     .build();
//!
//! let caller = ids.next_id();
//! let mut world = NoWorld;
//! let out = invoke(&mut obj, &mut world, caller, "greet", &[Value::from("world")])?;
//! assert_eq!(out, Value::from("hello, world"));
//!
//! // Runtime mutability: the object grows a method after construction.
//! let me = obj.id();
//! obj.add_method(me, "shout", Method::public(MethodBody::script(
//!     "return upper(self.get(\"greeting\"));",
//! )?))?;
//! assert_eq!(invoke(&mut obj, &mut world, caller, "shout", &[])?, Value::from("HELLO"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod class;
mod container;
mod effects;
mod error;
mod invoke;
mod item;
mod method;
mod migrate;
mod object;
mod runtime;
mod security;

pub use admission::AdmissionPolicy;
pub use class::{ClassRegistry, ClassSpec};
pub use container::{ExtensibleContainer, FixedContainer, Section};
pub use effects::{effects_value, object_effects, signatures_disjoint};
pub use error::MromError;
pub use invoke::{invoke, invoke_with_limits, CallEnv, InvokeLimits, NoWorld, WorldHook};
pub use item::DataItem;
pub use method::{MetaOp, Method, MethodBody, NativeFn};
pub use migrate::IMAGE_FORMAT;
pub use mrom_script::analyze::{
    analyze_program, AnalysisReport, Diagnostic, DiagnosticKind, HostManifest, ResourceBudget,
    Severity,
};
pub use mrom_script::{EffectSignature, LocalEffects};
pub use object::{MromObject, ObjectBuilder};
pub use runtime::{ClassesGuard, ObjectGuard, PoisonCause, Runtime, SHARD_COUNT};
pub use security::{Acl, TypeConstraint};

/// Crate-local result alias over [`MromError`].
pub type Result<T> = std::result::Result<T, MromError>;
