//! `mrom-lint` — the admission analyzer as a standalone tool.
//!
//! Runs the same multi-pass static analysis the runtime applies at trust
//! boundaries (scope/def-use, host-call manifest, object cross-check,
//! resource shape) over script files or whole object images, and prints
//! every diagnostic:
//!
//! ```text
//! mrom-lint <file>...                  analyze script sources (.mrs) and/or object images
//! mrom-lint --dump-bytecode <file>...  also disassemble each script body's register bytecode
//! mrom-lint --effects <file>...        also print interprocedural effect signatures
//! mrom-lint --json <file>...           machine-readable output, one JSON object per line
//! ```
//!
//! A file that decodes as a wire buffer is analyzed as a migration image
//! (every method body cross-checked against the object that carries it);
//! anything else is treated as script source and analyzed in isolation.
//!
//! `--dump-bytecode` prints the compiled form the VM executes at admission
//! time — the instruction stream, per-block fuel charges, constant pool and
//! name pool — so a host operator can audit exactly what an admitted body
//! will run.
//!
//! `--effects` prints the effect signature of every method (for images:
//! the interprocedural fixpoint over the object's call graph; for loose
//! scripts: the body analyzed as a single-method object) — reads, writes,
//! world calls, and the purity/idempotence/migration-safety verdicts the
//! runtime's retry and dispatch policies consult.
//!
//! `--json` replaces the human-readable report with newline-delimited
//! JSON: each diagnostic is one object with stable `kind` strings (the
//! same kebab-case names `DiagnosticKind::as_str` defines), inputs that
//! cannot be analyzed at all surface as a single `input-error` record,
//! and `--effects` adds one `effects` record per file. CI greps this
//! stream instead of parsing prose.
//!
//! Exit code 0 when everything is clean or carries only warnings, 1 when
//! any file is unreadable/unparsable, any error-severity diagnostic
//! fires, or standard output cannot be written, 2 on usage errors.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;

use mrom::core::{AdmissionPolicy, Diagnostic, MethodBody, MromObject, Severity};
use mrom::obs::to_json;
use mrom::script::analyze::analyze_program;
use mrom::script::{solve_effects, EffectSignature, LocalEffects, Program};
use mrom::value::{wire, Value};

/// Command-line switches (everything that is not a file path).
#[derive(Clone, Copy, Default)]
struct Options {
    dump: bool,
    json: bool,
    effects: bool,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options {
        dump: args.iter().any(|a| a == "--dump-bytecode"),
        json: args.iter().any(|a| a == "--json"),
        effects: args.iter().any(|a| a == "--effects"),
    };
    args.retain(|a| !matches!(a.as_str(), "--dump-bytecode" | "--json" | "--effects"));
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("usage: mrom-lint [--dump-bytecode] [--effects] [--json] <file>...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    let mut out = io::stdout().lock();
    for path in &args {
        let outcome = match std::fs::read(path) {
            Ok(bytes) => lint_bytes(&bytes, opts),
            Err(e) => Outcome::Unreadable(format!("cannot read: {e}")),
        };
        match print_outcome(&mut out, path, &outcome, opts) {
            Ok(file_failed) => failed |= file_failed,
            Err(e) => {
                eprintln!("mrom-lint: cannot write output: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Everything one input produced.
enum Outcome {
    Report {
        diagnostics: Vec<Diagnostic>,
        /// Bytecode disassembly lines (`--dump-bytecode`).
        extra: Vec<String>,
        /// Per-method signatures (`--effects`).
        effects: Option<BTreeMap<String, EffectSignature>>,
    },
    /// The input could not be analyzed at all (unreadable, unparsable,
    /// or a malformed image).
    Unreadable(String),
}

/// Writes one file's outcome to `out` in the selected format; returns
/// `true` when the file fails the lint (any error-severity diagnostic, or
/// no analysis at all).
fn print_outcome(
    out: &mut impl Write,
    path: &str,
    outcome: &Outcome,
    opts: Options,
) -> io::Result<bool> {
    match outcome {
        Outcome::Report {
            diagnostics,
            extra,
            effects,
        } => {
            if opts.json {
                for d in diagnostics {
                    writeln!(out, "{}", to_json(&diagnostic_value(path, d)))?;
                }
                if let Some(table) = effects {
                    let record = Value::map([
                        ("record", Value::from("effects")),
                        ("path", Value::from(path)),
                        ("methods", mrom::core::effects_value(table)),
                    ]);
                    writeln!(out, "{}", to_json(&record))?;
                }
            } else {
                for d in diagnostics {
                    writeln!(out, "{path}: {d}")?;
                }
                for line in extra {
                    writeln!(out, "{path}: {line}")?;
                }
                if let Some(table) = effects {
                    for (name, sig) in table {
                        writeln!(
                            out,
                            "{path}: effects of {name:?}: {}",
                            to_json(&sig.to_value())
                        )?;
                    }
                }
                if diagnostics.is_empty() {
                    writeln!(out, "{path}: clean")?;
                }
            }
            Ok(diagnostics.iter().any(|d| d.severity == Severity::Error))
        }
        Outcome::Unreadable(msg) => {
            if opts.json {
                let record = Value::map([
                    ("record", Value::from("diagnostic")),
                    ("path", Value::from(path)),
                    ("kind", Value::from("input-error")),
                    ("severity", Value::from("error")),
                    ("message", Value::from(msg.as_str())),
                ]);
                writeln!(out, "{}", to_json(&record))?;
            } else {
                eprintln!("mrom-lint: {path}: {msg}");
            }
            Ok(true)
        }
    }
}

/// Lowers one diagnostic to the stable JSON record shape.
fn diagnostic_value(path: &str, d: &Diagnostic) -> Value {
    Value::map([
        ("record", Value::from("diagnostic")),
        ("path", Value::from(path)),
        ("kind", Value::from(d.kind.as_str())),
        ("severity", Value::from(d.severity.to_string())),
        ("at", Value::from(d.path.as_str())),
        ("message", Value::from(d.message.as_str())),
    ])
}

/// Analyzes one input under `opts`, producing diagnostics plus the
/// requested extras.
fn lint_bytes(bytes: &[u8], opts: Options) -> Outcome {
    // A framed wire buffer is an object image; anything else is script.
    if let Ok(v) = wire::decode(bytes) {
        return match MromObject::from_image_value_with_policy(&v, AdmissionPolicy::Off) {
            Ok(obj) => {
                let mut extra = Vec::new();
                if opts.dump {
                    for (name, method) in obj.all_methods() {
                        if let MethodBody::Script(p) = method.body() {
                            extra.push(format!("bytecode of method {name:?}:"));
                            push_disassembly(&mut extra, p);
                        }
                    }
                }
                Outcome::Report {
                    diagnostics: obj.analyze(),
                    extra,
                    effects: opts.effects.then(|| mrom::core::object_effects(&obj)),
                }
            }
            Err(e) => Outcome::Unreadable(format!("not a valid object image: {e}")),
        };
    }
    let Ok(source) = std::str::from_utf8(bytes) else {
        return Outcome::Unreadable("neither a wire buffer nor UTF-8 script source".to_owned());
    };
    match Program::parse(source) {
        Ok(p) => {
            let mut extra = Vec::new();
            if opts.dump {
                push_disassembly(&mut extra, &p);
            }
            let effects = opts.effects.then(|| {
                // A loose script is a single-method object: solve the
                // one-entry graph so the verdict fields are filled in.
                let locals = BTreeMap::from([("script".to_owned(), LocalEffects::of_program(&p))]);
                solve_effects(&locals)
            });
            Outcome::Report {
                diagnostics: analyze_program(&p).diagnostics,
                extra,
                effects,
            }
        }
        Err(e) => Outcome::Unreadable(format!("parse failed: {e}")),
    }
}

fn push_disassembly(lines: &mut Vec<String>, p: &Program) {
    for line in p.compiled().disassemble().lines() {
        lines.push(line.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom::core::{Acl, DataItem, Method, MethodBody, ObjectBuilder};
    use mrom::value::{IdGenerator, NodeId, Value};

    fn lint(bytes: &[u8], opts: Options) -> (Vec<String>, Result<usize, String>) {
        match lint_bytes(bytes, opts) {
            Outcome::Report {
                diagnostics,
                mut extra,
                effects,
            } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                let mut lines: Vec<String> =
                    diagnostics.iter().map(Diagnostic::to_string).collect();
                lines.append(&mut extra);
                if let Some(table) = effects {
                    for (name, sig) in &table {
                        lines.push(format!("effects of {name:?}: {}", to_json(&sig.to_value())));
                    }
                }
                (lines, Ok(errors))
            }
            Outcome::Unreadable(msg) => (Vec::new(), Err(msg)),
        }
    }

    fn dump() -> Options {
        Options {
            dump: true,
            ..Options::default()
        }
    }

    fn effects() -> Options {
        Options {
            effects: true,
            ..Options::default()
        }
    }

    #[test]
    fn clean_script_is_clean() {
        let (lines, errors) = lint(b"param a; return a + 1;", Options::default());
        assert!(lines.is_empty());
        assert_eq!(errors, Ok(0));
    }

    #[test]
    fn script_defects_are_reported() {
        let (lines, errors) = lint(b"return ghost;", Options::default());
        assert_eq!(errors, Ok(1));
        assert!(lines[0].contains("undefined-variable"));
        // Warnings do not count as errors.
        let (lines, errors) = lint(b"param spare; return 1;", Options::default());
        assert_eq!(errors, Ok(0));
        assert!(lines[0].contains("unused-param"));
    }

    #[test]
    fn unparsable_input_is_an_error() {
        assert!(lint(b"return (;", Options::default()).1.is_err());
        assert!(lint(&[0xff, 0xfe, 0x00], Options::default()).1.is_err());
    }

    #[test]
    fn dump_bytecode_appends_disassembly() {
        let (lines, errors) = lint(b"param a; return a + 1;", dump());
        assert_eq!(errors, Ok(0));
        assert!(lines.iter().any(|l| l.contains("instrs")));
        assert!(lines.iter().any(|l| l.contains("return")));
    }

    #[test]
    fn dump_bytecode_covers_image_method_bodies() {
        let mut ids = IdGenerator::new(NodeId(6));
        let mut obj = ObjectBuilder::new(ids.next_id()).class("probe").build();
        let me = obj.id();
        obj.add_method(
            me,
            "work",
            Method::public(MethodBody::script("return 2 * 3;").unwrap()),
        )
        .unwrap();
        let image = obj.migration_image(me).unwrap();
        let (lines, errors) = lint(&image, dump());
        assert_eq!(errors, Ok(0));
        assert!(lines
            .iter()
            .any(|l| l.contains("bytecode of method \"work\"")));
        assert!(lines.iter().any(|l| l.contains("instrs")));
    }

    #[test]
    fn images_are_cross_checked() {
        let mut ids = IdGenerator::new(NodeId(5));
        let mut obj = ObjectBuilder::new(ids.next_id())
            .class("shady")
            .fixed_data("present", DataItem::public(Value::Int(1)))
            .fixed_data(
                "sealed",
                DataItem::public(Value::Int(2)).with_read_acl(Acl::Nobody),
            )
            .build();
        let me = obj.id();
        obj.add_method(
            me,
            "bad",
            Method::public(
                MethodBody::script("return self.get(\"absent\") + self.get(\"sealed\");").unwrap(),
            ),
        )
        .unwrap();
        let image = obj.migration_image(me).unwrap();
        let (lines, errors) = lint(&image, Options::default());
        assert_eq!(errors, Ok(2));
        assert!(lines.iter().any(|l| l.contains("dangling-data-item")));
        assert!(lines.iter().any(|l| l.contains("acl-unsatisfiable")));
        assert!(lines.iter().all(|l| l.contains("bad.body")));
    }

    #[test]
    fn effects_flag_reports_signatures_for_scripts_and_images() {
        let (lines, errors) = lint(b"return self.get(\"x\");", effects());
        assert_eq!(errors, Ok(0));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("effects of \"script\"") && l.contains("\"pure\":true")),
            "{lines:?}"
        );

        let mut ids = IdGenerator::new(NodeId(8));
        let mut obj = ObjectBuilder::new(ids.next_id())
            .class("fx")
            .fixed_data("x", DataItem::public(Value::Int(0)))
            .build();
        let me = obj.id();
        obj.add_method(
            me,
            "poke",
            Method::public(MethodBody::script("self.set(\"x\", 1); return null;").unwrap()),
        )
        .unwrap();
        let image = obj.migration_image(me).unwrap();
        let (lines, errors) = lint(&image, effects());
        assert_eq!(errors, Ok(0));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("effects of \"poke\"") && l.contains("\"idempotent\":true")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("effects of \"invoke\"")));
    }

    #[test]
    fn json_records_carry_stable_kinds() {
        let v = diagnostic_value(
            "probe.mrs",
            &Diagnostic::new(
                mrom::core::DiagnosticKind::UndefinedVariable,
                "body[0]",
                "x is undefined",
            ),
        );
        let line = to_json(&v);
        assert!(line.contains("\"kind\":\"undefined-variable\""));
        assert!(line.contains("\"severity\":\"error\""));
        assert!(line.contains("\"path\":\"probe.mrs\""));
        assert!(line.contains("\"at\":\"body[0]\""));
    }
}
