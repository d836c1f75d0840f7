//! The admission pipeline: static verification of mobile code at every
//! trust boundary.
//!
//! `mrom-script`'s analyzer checks a [`Program`] in isolation (scope,
//! host-call surface, resource shape). This module supplies the
//! object-level **cross-check** — pass 4 of the pipeline — which validates
//! every method body's [`HostManifest`] against the owning object's
//! *actual* data items, methods, and ACLs:
//!
//! * a `self.get("x")` where the object has no item `"x"` (and no body
//!   creates it) is a [`DiagnosticKind::DanglingDataItem`];
//! * a `self.invoke("m", ...)` naming a method the object lacks is a
//!   [`DiagnosticKind::DanglingMethodCall`] — or, when `"m"` is one of the
//!   nine reflective meta-method names, a
//!   [`DiagnosticKind::UnknownMetaMethod`] (the object was built without
//!   its bundled meta-methods);
//! * a call gated by [`Acl::Nobody`] can never succeed for *any*
//!   principal, the executing object included —
//!   [`DiagnosticKind::AclUnsatisfiable`].
//!
//! Admission is also where script bodies are **compiled**: the
//! script-level pass (pass 1) lowers every error-free body to register
//! bytecode as a side effect, caching the result on the [`Program`]
//! itself — "analyze" means *verify + compile*, so the invocation path
//! never pays compilation. The cache never serializes; a migrated body
//! is recompiled here, on the admitting host, where it is re-verified.
//!
//! An [`AdmissionPolicy`] decides what happens at each boundary:
//! `Off` skips analysis entirely (byte-for-byte today's behaviour),
//! `Warn` pays the analysis cost but always admits, and `Strict` rejects
//! error-severity findings with [`MromError::AdmissionRejected`]. There
//! is no process-wide policy: the admitting host names its policy at every
//! boundary — image decoding ([`MromObject::from_image_with_policy`]),
//! structural mutation ([`MromObject::add_method_with_policy`],
//! [`MromObject::set_method_with_policy`]), and meta-operations reached
//! through `invoke`, which read the hosting node's
//! [`InvokeLimits::admission`](crate::InvokeLimits::admission).

use mrom_script::analyze::{
    analyze_with_budget, Diagnostic, DiagnosticKind, HostManifest, ResourceBudget,
};
use mrom_script::Program;

use crate::error::MromError;
use crate::method::{MetaOp, Method, MethodBody};
use crate::object::MromObject;
use crate::security::Acl;

/// How much checking a trust boundary performs before accepting mobile
/// code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AdmissionPolicy {
    /// No analysis at all — the pre-admission behaviour, byte for byte.
    #[default]
    Off,
    /// Analyze (the cost is paid, diagnostics are computable via
    /// [`MromObject::analyze`]) but always admit.
    Warn,
    /// Reject error-severity findings with
    /// [`MromError::AdmissionRejected`]. Warnings never block.
    Strict,
}

/// Host-surface names whose implementation goes through the *object* meta
/// ACL (`check_meta` / tower manipulation): statically unsatisfiable when
/// that ACL is [`Acl::Nobody`].
const OBJECT_META_GATED: &[&str] = &[
    "add_data_item",
    "delete_data_item",
    "add_method",
    "delete_method",
];

impl MromObject {
    /// Runs the full admission analysis over every script body this object
    /// carries (method bodies, pre-, and post-procedures in both
    /// sections), cross-checking each body's `self.*` manifest against the
    /// object's actual items and ACLs. Diagnostic paths are prefixed
    /// `"<method>.<part>"`.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        self.analyze_with_budget(&ResourceBudget::default())
    }

    /// [`MromObject::analyze`] under an explicit resource budget.
    pub fn analyze_with_budget(&self, budget: &ResourceBudget) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (name, method) in self.methods_iter() {
            analyze_method_parts(self, None, name, method, budget, &mut out);
        }
        out
    }

    /// Analyzes a *candidate* method (not yet installed) against this
    /// object, as `add_method`/`set_method` admission does. The candidate's
    /// own `name` counts as present, so self-recursion is admissible.
    pub fn analyze_method(&self, name: &str, method: &Method) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        analyze_method_parts(
            self,
            Some(name),
            name,
            method,
            &ResourceBudget::default(),
            &mut out,
        );
        out
    }
}

/// Analyzes every script part of one method, appending contextualized
/// diagnostics. `candidate` names a method considered present even though
/// it is not installed yet.
fn analyze_method_parts(
    obj: &MromObject,
    candidate: Option<&str>,
    name: &str,
    method: &Method,
    budget: &ResourceBudget,
    out: &mut Vec<Diagnostic>,
) {
    let parts = [
        ("body", Some(method.body())),
        ("pre", method.pre()),
        ("post", method.post()),
    ];
    for (part, body) in parts {
        if let Some(MethodBody::Script(program)) = body {
            check_program(
                obj,
                candidate,
                program,
                &format!("{name}.{part}"),
                budget,
                out,
            );
        }
    }
}

/// Passes 1–3 (delegated to `mrom-script`) plus pass 4: the object
/// cross-check.
fn check_program(
    obj: &MromObject,
    candidate: Option<&str>,
    program: &Program,
    context: &str,
    budget: &ResourceBudget,
    out: &mut Vec<Diagnostic>,
) {
    let report = analyze_with_budget(program, budget);
    out.extend(
        report
            .diagnostics
            .into_iter()
            .map(|d| d.in_context(context)),
    );
    cross_check_manifest(obj, candidate, &report.manifest, context, out);
}

fn cross_check_manifest(
    obj: &MromObject,
    candidate: Option<&str>,
    manifest: &HostManifest,
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    let diag = |kind: DiagnosticKind, message: String| Diagnostic::new(kind, context, message);

    // Data items: reads, writes, and deletes must name items the object
    // carries or the same body creates; Nobody-gated access can never be
    // permitted (a script runs with its own object as principal, and even
    // `self` fails an `Acl::Nobody` check).
    let data_checks = [
        (&manifest.data_read, "read", true),
        (&manifest.data_written, "write", false),
        (&manifest.data_deleted, "delete", false),
    ];
    for (names, op, is_read) in data_checks {
        for n in names {
            if manifest.data_created.contains(n) {
                continue;
            }
            match obj.find_data(n) {
                None => out.push(diag(
                    DiagnosticKind::DanglingDataItem,
                    format!("self.{op} of data item {n:?}, which this object does not carry"),
                )),
                Some((item, _)) => {
                    let acl = if is_read {
                        item.read_acl()
                    } else {
                        item.write_acl()
                    };
                    // Deletion is gated by the object meta ACL, not the
                    // item's write ACL.
                    if op != "delete" && matches!(acl, Acl::Nobody) {
                        out.push(diag(
                            DiagnosticKind::AclUnsatisfiable,
                            format!(
                                "data item {n:?} has an Acl::Nobody {op} ACL: no principal \
                                 can ever {op} it"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Methods: invocations and structural references must resolve.
    let method_present = |n: &str| {
        obj.find_method(n).is_some() || manifest.methods_created.contains(n) || candidate == Some(n)
    };
    for n in &manifest.methods_invoked {
        if !method_present(n) {
            out.push(missing_method(n, "self.invoke", context));
            continue;
        }
        if let Some((m, _)) = obj.find_method(n) {
            if matches!(m.invoke_acl(), Acl::Nobody) {
                out.push(diag(
                    DiagnosticKind::AclUnsatisfiable,
                    format!(
                        "method {n:?} has an Acl::Nobody invoke ACL: no principal can \
                         ever invoke it"
                    ),
                ));
            }
        }
    }
    for n in &manifest.methods_referenced {
        if !method_present(n) {
            out.push(missing_method(n, "a reference to", context));
        }
    }

    // Structural mutation through the object meta ACL: statically dead
    // when that ACL is Nobody.
    if matches!(obj.meta_acl(), Acl::Nobody) {
        for op in &manifest.meta_used {
            if OBJECT_META_GATED.contains(&op.as_str()) {
                out.push(diag(
                    DiagnosticKind::AclUnsatisfiable,
                    format!(
                        "self.{op} needs the object meta ACL, which is Acl::Nobody: no \
                         principal can ever satisfy it"
                    ),
                ));
            }
        }
    }
}

/// Classifies a missing method name: the nine reflective meta-methods get
/// their own kind (the object travels without its bundled reflection),
/// anything else is a plain dangling reference.
fn missing_method(name: &str, via: &str, context: &str) -> Diagnostic {
    if MetaOp::from_method_name(name).is_some() {
        Diagnostic::new(
            DiagnosticKind::UnknownMetaMethod,
            context,
            format!(
                "{via} meta-method {name:?}, but this object does not carry its \
                 bundled meta-methods"
            ),
        )
    } else {
        Diagnostic::new(
            DiagnosticKind::DanglingMethodCall,
            context,
            format!("{via} method {name:?}, which this object does not carry"),
        )
    }
}

/// Enforces a policy over a fully-built object (migration / persistence
/// admission).
pub(crate) fn admit_object(
    policy: AdmissionPolicy,
    obj: &MromObject,
    boundary: &str,
) -> Result<(), MromError> {
    enforce(policy, obj, boundary, MromObject::analyze)
}

/// Enforces a policy over a candidate method (`add_method`/`set_method`
/// admission).
pub(crate) fn admit_method(
    policy: AdmissionPolicy,
    obj: &MromObject,
    name: &str,
    method: &Method,
    boundary: &str,
) -> Result<(), MromError> {
    enforce(policy, obj, boundary, |o| o.analyze_method(name, method))
}

fn enforce(
    policy: AdmissionPolicy,
    obj: &MromObject,
    boundary: &str,
    analyze: impl FnOnce(&MromObject) -> Vec<Diagnostic>,
) -> Result<(), MromError> {
    match policy {
        AdmissionPolicy::Off => Ok(()),
        AdmissionPolicy::Warn => {
            let diagnostics = analyze(obj);
            mrom_obs::admission_verdict(boundary, true, diagnostics.len());
            Ok(())
        }
        AdmissionPolicy::Strict => {
            let diagnostics = analyze(obj);
            let rejected = diagnostics
                .iter()
                .any(|d| d.severity == mrom_script::analyze::Severity::Error);
            mrom_obs::admission_verdict(boundary, !rejected, diagnostics.len());
            if rejected {
                Err(MromError::AdmissionRejected {
                    object: obj.id(),
                    context: boundary.to_owned(),
                    diagnostics,
                })
            } else {
                Ok(())
            }
        }
    }
}
