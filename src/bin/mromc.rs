//! `mromc` — developer tooling for mobile objects, the "tools ... to aid
//! in the design and implementation of applications" the paper lists as
//! future work (§6).
//!
//! ```text
//! mromc check <file>      parse a script method body; report errors with lines
//! mromc fmt <file>        parse and pretty-print a script (canonical form)
//! mromc inspect <image>   describe a migration image (identity, sections, tower)
//! mromc wire <image>      dump the raw value tree of any wire buffer
//! ```
//!
//! Exit code 0 on success, 1 on bad input or an unwritable standard
//! output, 2 on usage errors.

use std::io::Write;
use std::process::ExitCode;

use mrom::core::{AdmissionPolicy, MromObject};
use mrom::script::Program;
use mrom::value::{wire, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match args.as_slice() {
        [cmd, path] => (cmd.as_str(), path.as_str()),
        _ => {
            eprintln!("usage: mromc <check|fmt|inspect|wire> <file>");
            return ExitCode::from(2);
        }
    };
    let run = match cmd {
        "check" => cmd_check(path),
        "fmt" => cmd_fmt(path),
        "inspect" => cmd_inspect(path),
        "wire" => cmd_wire(path),
        other => {
            eprintln!("mromc: unknown command {other:?}");
            return ExitCode::from(2);
        }
    };
    let written = run.and_then(|output| {
        writeln!(std::io::stdout(), "{output}").map_err(|e| format!("cannot write output: {e}"))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mromc: {msg}");
            ExitCode::from(1)
        }
    }
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_check(path: &str) -> Result<String, String> {
    let source = read_text(path)?;
    check_source(&source)
}

/// Parses a script and reports a summary (split out for testing).
fn check_source(source: &str) -> Result<String, String> {
    match Program::parse(source) {
        Ok(p) => Ok(format!(
            "ok: {} parameter(s), {} top-level statement(s), {} ast node(s)",
            p.params().len(),
            p.body().len(),
            p.node_count()
        )),
        Err(e) => Err(format!("parse failed: {e}")),
    }
}

fn cmd_fmt(path: &str) -> Result<String, String> {
    let source = read_text(path)?;
    fmt_source(&source)
}

/// Pretty-prints a script in canonical form (split out for testing).
fn fmt_source(source: &str) -> Result<String, String> {
    let p = Program::parse(source).map_err(|e| format!("parse failed: {e}"))?;
    Ok(p.to_string())
}

fn cmd_inspect(path: &str) -> Result<String, String> {
    let bytes = read_bytes(path)?;
    inspect_image(&bytes)
}

/// Describes a migration image (split out for testing).
fn inspect_image(bytes: &[u8]) -> Result<String, String> {
    let obj = MromObject::from_image_with_policy(bytes, AdmissionPolicy::Off)
        .map_err(|e| format!("not a valid image: {e}"))?;
    let me = obj.id();
    let mut out = String::new();
    out.push_str(&format!("object   {}\n", obj.id()));
    out.push_str(&format!("origin   {}\n", obj.origin()));
    out.push_str(&format!("class    {}\n", obj.class_name()));
    out.push_str(&format!("mobile   {}\n", obj.is_mobile()));
    out.push_str(&format!("items    {}\n", obj.item_count()));
    out.push_str("data:\n");
    for (name, section) in obj.list_data(me) {
        let value = obj
            .read_data(me, &name)
            .map_or_else(|_| "<unreadable>".to_owned(), |v| v.to_string());
        let shown: String = value.chars().take(48).collect();
        out.push_str(&format!("  [{}] {name} = {shown}\n", section.name()));
    }
    out.push_str("methods:\n");
    for (name, section) in obj.list_methods(me) {
        out.push_str(&format!("  [{}] {name}\n", section.name()));
    }
    if !obj.tower().is_empty() {
        out.push_str(&format!("tower    {:?} (topmost last)\n", obj.tower()));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_wire(path: &str) -> Result<String, String> {
    let bytes = read_bytes(path)?;
    dump_wire(&bytes)
}

/// Dumps any framed wire buffer as a value tree (split out for testing).
fn dump_wire(bytes: &[u8]) -> Result<String, String> {
    let v: Value = wire::decode(bytes).map_err(|e| format!("not a wire buffer: {e}"))?;
    Ok(format!(
        "{} bytes, tree size {}, depth {}\n{v}",
        bytes.len(),
        v.tree_size(),
        v.depth()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom::core::{DataItem, Method, MethodBody, ObjectBuilder};
    use mrom::value::{IdGenerator, NodeId};

    #[test]
    fn check_reports_shape_and_errors() {
        let out = check_source("param a; return a + 1;").unwrap();
        assert!(out.contains("1 parameter(s)"));
        assert!(out.contains("1 top-level statement(s)"));
        let err = check_source("return (;").unwrap_err();
        assert!(err.contains("parse failed"));
        assert!(err.contains("line 1"));
    }

    #[test]
    fn fmt_is_canonical_and_idempotent() {
        let messy = "param a;let x=a+1;if(x>2){return x;}else{return 0;}";
        let once = fmt_source(messy).unwrap();
        let twice = fmt_source(&once).unwrap();
        assert_eq!(once, twice);
        assert!(once.contains("let x = a + 1;"));
    }

    #[test]
    fn inspect_describes_an_image() {
        let mut ids = IdGenerator::new(NodeId(3));
        let mut obj = ObjectBuilder::new(ids.next_id())
            .class("probe")
            .fixed_data("x", DataItem::public(Value::Int(7)))
            .fixed_method(
                "m",
                Method::public(MethodBody::script("return 1;").unwrap()),
            )
            .build();
        let me = obj.id();
        obj.add_method(
            me,
            "mi",
            Method::public(MethodBody::script("param a; param b; return 0;").unwrap()),
        )
        .unwrap();
        obj.install_meta_invoke(me, "mi").unwrap();
        let image = obj.migration_image(me).unwrap();
        let out = inspect_image(&image).unwrap();
        assert!(out.contains("class    probe"));
        assert!(out.contains("[fixed] x = 7"));
        assert!(out.contains("[fixed] m"));
        assert!(out.contains("[extensible] mi"));
        assert!(out.contains("tower"));
        assert!(inspect_image(b"garbage").is_err());
    }

    #[test]
    fn wire_dump_round_trips_any_buffer() {
        let v = Value::map([("k", Value::list([Value::Int(1), Value::from("two")]))]);
        let bytes = wire::encode(&v);
        let out = dump_wire(&bytes).unwrap();
        assert!(out.contains("tree size"));
        assert!(out.contains("\"two\""));
        assert!(dump_wire(b"nope").is_err());
    }
}
