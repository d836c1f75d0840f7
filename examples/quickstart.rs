//! Quickstart: build a mutable reflective object, interrogate it, mutate
//! it, wrap it, and ship it through its own migration image.
//!
//! Run with: `cargo run --example quickstart`

use mrom::core::{
    invoke, AdmissionPolicy, DataItem, Method, MethodBody, MromObject, NoWorld, ObjectBuilder,
};
use mrom::value::{IdGenerator, NodeId, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ids = IdGenerator::new(NodeId(1));

    // 1. Construct an object with a fixed core (structure guaranteed for
    //    life) and nothing else. The nine MROM meta-methods are bundled in
    //    automatically — the object carries its own reflection.
    let mut obj = ObjectBuilder::new(ids.next_id())
        .class("greeter")
        .fixed_data("greeting", DataItem::public(Value::from("hello")))
        .fixed_method(
            "greet",
            Method::public(MethodBody::script(
                "param who; return self.get(\"greeting\") + \", \" + who + \"!\";",
            )?),
        )
        .build();

    let me = obj.id();
    let visitor = ids.next_id();
    let mut world = NoWorld;

    println!("== self-representation ==");
    // A host that has never seen this object asks it about itself.
    let description = invoke(
        &mut obj,
        &mut world,
        visitor,
        "getMethod",
        &[Value::from("greet")],
    )?;
    println!("visitor asks getMethod(\"greet\") -> {description}");
    println!("describe (visitor view): {}", obj.describe(visitor));

    println!("\n== invocation ==");
    let out = invoke(
        &mut obj,
        &mut world,
        visitor,
        "greet",
        &[Value::from("world")],
    )?;
    println!("greet(\"world\") -> {out}");

    println!("\n== weak typing ==");
    // The paper's example: an HTML-wrapped figure used in arithmetic.
    obj.add_data(me, "raw_metric", Value::from("<td><b> 42 </b></td>"))?;
    obj.add_method(
        me,
        "metric_plus",
        Method::public(MethodBody::script(
            "param n; return coerce(self.get(\"raw_metric\"), \"int\") + n;",
        )?),
    )?;
    let out = invoke(&mut obj, &mut world, me, "metric_plus", &[Value::Int(8)])?;
    println!("coerce(\"<td><b> 42 </b></td>\") + 8 -> {out}");

    println!("\n== runtime mutability ==");
    // Grow a method, then replace its body while keeping its name.
    obj.add_method(
        me,
        "mood",
        Method::public(MethodBody::script("return \"cheerful\";")?),
    )?;
    println!(
        "mood() -> {}",
        invoke(&mut obj, &mut world, visitor, "mood", &[])?
    );
    obj.set_method(
        me,
        "mood",
        &Value::map([("body", Value::from("return \"grumpy\";"))]),
    )?;
    println!(
        "after setMethod: mood() -> {}",
        invoke(&mut obj, &mut world, visitor, "mood", &[])?
    );

    println!("\n== wrapping: pre- and post-procedures ==");
    obj.add_method(
        me,
        "divide",
        Method::public(MethodBody::script("param a; param b; return a / b;")?)
            // Assertion-style pre: refuse zero divisors before the body runs.
            .with_pre(MethodBody::script("param a; param b; return b != 0;")?)
            // Post sees [result, ...args]: check the arithmetic.
            .with_post(MethodBody::script(
                "param r; param a; param b; return r * b <= a;",
            )?),
    )?;
    println!(
        "divide(10, 3) -> {}",
        invoke(
            &mut obj,
            &mut world,
            me,
            "divide",
            &[Value::Int(10), Value::Int(3)]
        )?
    );
    let veto = invoke(
        &mut obj,
        &mut world,
        me,
        "divide",
        &[Value::Int(10), Value::Int(0)],
    );
    println!("divide(10, 0) -> {}", veto.unwrap_err());

    println!("\n== security == encapsulation ==");
    obj.add_data(me, "secret", Value::from("classified"))?;
    let denied = obj.read_data(visitor, "secret");
    println!("visitor reads secret -> {}", denied.unwrap_err());
    // Grant exactly one principal — object-granularity ACLs.
    obj.set_data_item(
        me,
        "secret",
        &Value::map([("read_acl", Value::list([Value::Str(visitor.to_string())]))]),
    )?;
    println!("after grant      -> {}", obj.read_data(visitor, "secret")?);
    // What you may not read, you cannot even see listed.
    let other = ids.next_id();
    println!(
        "item names visible to a third party: {:?}",
        obj.list_data(other)
            .iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
    );

    println!("\n== self-contained migration ==");
    let image = obj.migration_image(me)?;
    println!("object serialized itself into {} bytes", image.len());
    let mut clone = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off)?;
    let out = invoke(
        &mut clone,
        &mut world,
        visitor,
        "greet",
        &[Value::from("new host")],
    )?;
    println!("unpacked copy still works: {out}");
    assert_eq!(clone, obj);
    println!("round trip is exact");

    Ok(())
}
