//! `local-tower`: a single-site federation with 10⁴ counter objects, all
//! invoked locally through `runtime_mut(site).invoke`, targets drawn Zipf.
//! 70 % of ops are level-0 `bump`/`peek`, 25 % are invokes on objects
//! that carry a 2-level meta-invoke tower, and 5 % are structural
//! mutations: `set_method` on an extensible method, after which the next
//! invoke of that object must return the new body's value. Obs is off.

use hadas::{Federation, HadasError};
use mrom_core::{Acl, AdmissionPolicy, ClassSpec};
use mrom_net::NetworkConfig;
use mrom_value::{NodeId, ObjectId, Value};

use crate::gen::{Rng, Zipf, OPS_STREAM};
use crate::record::{Call, Kind, Recorder};
use crate::run::Workload;
use crate::world::{self, cell_class, script, Capture, Ledger, Res};

const OBJECTS: usize = 10_000;
/// Every fourth object carries the tower.
const TOWER_EVERY: usize = 4;
const ZIPF_S: f64 = 1.1;
const LEVEL0_PERCENT: usize = 70;
const TOWER_PERCENT: usize = 25;
const BUMP_PERCENT: usize = 75;
const SITE: NodeId = NodeId(1);

/// A meta-invoke level: receives the target method and its arguments as
/// data and descends one level (the paper's Figure 1).
const META_INVOKE: &str = "param m; param a; return self.invoke(m, a);";

fn plain_class() -> ClassSpec {
    cell_class("tower-plain").ext_method("tag", script("return 0;").with_meta_acl(Acl::Public))
}

fn tower_class() -> ClassSpec {
    cell_class("tower-cell")
        .ext_method("meta_1", script(META_INVOKE))
        .ext_method("meta_2", script(META_INVOKE))
}

pub struct Tower {
    fed: Federation,
    ioo: ObjectId,
    plain: Ledger,
    towers: Ledger,
    /// The value each plain object's `tag` must return now.
    tags: Vec<i64>,
    plain_zipf: Zipf,
    tower_zipf: Zipf,
    rng: Rng,
    ops: usize,
    failed: u64,
    wrong: Vec<String>,
}

impl Tower {
    pub fn setup(seed: u64, rec: &mut Recorder) -> Res<Tower> {
        let mut fed = Federation::new(NetworkConfig::new(seed));
        let ioo = rec.call(Call::AddSite, || fed.add_site(SITE))?;
        fed.set_admission_policy(AdmissionPolicy::Off);
        let (plain_class, tower_class) = (plain_class(), tower_class());
        let rt = fed.runtime_mut(SITE)?;
        let (mut plain, mut towers) = (Vec::new(), Vec::new());
        for k in 0..OBJECTS {
            let id = rt.ids_mut().next_id();
            if k % TOWER_EVERY == TOWER_EVERY - 1 {
                let mut obj = tower_class.instantiate_as(id, None);
                obj.install_meta_invoke(id, "meta_1")?;
                obj.install_meta_invoke(id, "meta_2")?;
                towers.push(rec.call(Call::Adopt, || rt.adopt(obj))?);
            } else {
                let obj = plain_class.instantiate_as(id, None);
                plain.push(rec.call(Call::Adopt, || rt.adopt(obj))?);
            }
        }
        Ok(Tower {
            fed,
            ioo,
            tags: vec![0; plain.len()],
            plain_zipf: Zipf::new(plain.len(), ZIPF_S),
            tower_zipf: Zipf::new(towers.len(), ZIPF_S),
            plain: Ledger::new("count", plain),
            towers: Ledger::new("count", towers),
            rng: Rng::new(seed, OPS_STREAM),
            ops: 0,
            failed: 0,
            wrong: Vec::new(),
        })
    }

    /// A `bump` or `peek`, whose result must match the ledger exactly.
    fn invoke(&mut self, rec: &mut Recorder, kind: Kind) {
        let bump = self.rng.percent(BUMP_PERCENT);
        let (ledger, zipf) = match kind {
            Kind::InvokeTower => (&mut self.towers, &self.tower_zipf),
            _ => (&mut self.plain, &self.plain_zipf),
        };
        let k = zipf.sample(&mut self.rng);
        let target = ledger.objects[k];
        let method = if bump { "bump" } else { "peek" };
        let ioo = self.ioo;
        let op = rec.begin();
        let out = rec.on_fed(op, kind, &mut self.fed, |fed| {
            fed.runtime_mut(SITE)
                .and_then(|rt| rt.invoke(ioo, target, method, &[]).map_err(HadasError::Model))
        });
        rec.end(op, "op.invoke", true);
        if bump {
            ledger.ok[k] += 1;
        }
        let expected = i64::from(ledger.ok[k]);
        self.expect(target, method, out, expected);
    }

    /// Replaces `tag`'s body with one returning a fresh value, then
    /// invokes it: the invoke must see the new body.
    fn mutate(&mut self, rec: &mut Recorder) {
        let k = self.plain_zipf.sample(&mut self.rng);
        let target = self.plain.objects[k];
        let value = i64::try_from(self.ops).unwrap_or(i64::MAX);
        let desc = Value::map([("body", Value::from(format!("return {value};").as_str()))]);
        let ioo = self.ioo;
        let op = rec.begin();
        let out = rec.on_fed(op, Kind::Mutate, &mut self.fed, |fed| {
            let rt = fed.runtime_mut(SITE)?;
            rt.object_mut(target)
                .ok_or(mrom_core::MromError::NoSuchObject(target))
                .and_then(|obj| obj.set_method(ioo, "tag", &desc))
                .and_then(|()| rt.invoke(ioo, target, "tag", &[]))
                .map_err(HadasError::Model)
        });
        rec.end(op, "op.mutate", true);
        self.tags[k] = value;
        self.expect(target, "tag", out, value);
    }

    fn expect(
        &mut self,
        target: ObjectId,
        method: &str,
        out: Result<Value, HadasError>,
        want: i64,
    ) {
        match out {
            Ok(Value::Int(got)) if got == want => {}
            Ok(other) => {
                self.wrong.push(format!("{target}.{method} returned {other:?}, expected {want}"));
            }
            Err(e) => {
                self.failed += 1;
                self.wrong.push(format!("{target}.{method} failed: {e}"));
            }
        }
    }
}

impl Workload for Tower {
    fn step(&mut self, rec: &mut Recorder) -> Res<()> {
        let roll = self.rng.below(100);
        if roll < LEVEL0_PERCENT {
            self.invoke(rec, Kind::InvokeLocal);
        } else if roll < LEVEL0_PERCENT + TOWER_PERCENT {
            self.invoke(rec, Kind::InvokeTower);
        } else {
            self.mutate(rec);
        }
        self.ops += 1;
        Ok(())
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn attempted(&self) -> u64 {
        self.ops as u64
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn fed(&self) -> &Federation {
        &self.fed
    }

    fn fed_mut(&mut self) -> &mut Federation {
        &mut self.fed
    }

    fn check(&mut self, rec: &mut Recorder) -> Res<Vec<String>> {
        world::drain(&mut self.fed, rec)?;
        let mut violations = std::mem::take(&mut self.wrong);
        violations.extend(world::check_federation(&self.fed, &self.plain)?);
        violations.extend(world::check_federation(&self.fed, &self.towers)?);
        // Every plain object's `tag` still returns its last mutation.
        let rt = self.fed.runtime_mut(SITE)?;
        for (k, &id) in self.plain.objects.iter().enumerate() {
            match rt.invoke(self.ioo, id, "tag", &[]) {
                Ok(Value::Int(v)) if v == self.tags[k] => {}
                other => {
                    violations.push(format!("{id}.tag = {other:?}, expected {}", self.tags[k]));
                }
            }
        }
        Ok(violations)
    }

    fn capture(&mut self) -> Res<Capture> {
        let target = self.plain.objects[0];
        Capture::take(&mut self.fed, SITE, target, self.ioo, "peek", META_INVOKE)
    }
}
