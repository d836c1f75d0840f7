//! `fleet-1k`: 1000 sites on a hierarchical topology (cluster 32) with
//! 10⁵ fleet cells. Targets are drawn Zipf (s = 1.1); each op is 75 %
//! `bump` / 25 % `peek`, called by the target's host or one of its
//! neighbours. One migration to a neighbour every 50 ops, 10
//! checkpoint/crash/restart cycles on non-core sites inside the
//! deterministic prefix, and one `site_telemetry` poll of a site taken
//! round-robin every 100 ops, with windowed telemetry on (Ring mode).
//!
//! The same mix at 64 sites is the scale arm of traced runs.

use hadas::{Federation, HadasError};
use mrom_core::AdmissionPolicy;
use mrom_value::{NodeId, Value};

use crate::gen::{Rng, Zipf, CHURN_STREAM, OPS_STREAM};
use crate::record::{Call, Kind, Recorder};
use crate::run::Workload;
use crate::world::{self, cell_class, Capture, Ledger, Res, Sites};

/// Population and wiring of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub sites: usize,
    pub cluster: usize,
    pub cells_per_site: usize,
}

pub const FLEET_1K: FleetShape = FleetShape { sites: 1000, cluster: 32, cells_per_site: 100 };

/// The scale arm: the fleet-1k mix at 64 sites, equal cells per site.
pub const FLEET_64: FleetShape = FleetShape { sites: 64, cluster: 32, cells_per_site: 100 };

const ZIPF_S: f64 = 1.1;
const BUMP_PERCENT: usize = 75;
const MIGRATE_EVERY: usize = 50;
const POLL_EVERY: usize = 100;
const CHURN_CYCLES: usize = 10;

const BUMP: &str = "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");";

pub struct Fleet {
    s: Sites,
    cells: Ledger,
    hosts: Vec<NodeId>,
    zipf: Zipf,
    rng: Rng,
    /// `(op index, victim)`, in op order.
    churn: Vec<(usize, NodeId)>,
    next_churn: usize,
    polls: bool,
    next_poll: usize,
    ops: usize,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Fleet {
    /// Builds the federation and its cells; churn falls inside the first
    /// `prefix` ops.
    pub fn setup(shape: FleetShape, seed: u64, prefix: usize, rec: &mut Recorder) -> Res<Fleet> {
        let mut s = Sites::build(shape.sites, shape.cluster, seed, AdmissionPolicy::Off, rec)?;
        let class = cell_class("fleet-cell");
        let total = shape.sites * shape.cells_per_site;
        let mut objects = Vec::with_capacity(total);
        let mut hosts = Vec::with_capacity(total);
        for k in 0..total {
            let site = s.nodes[k % shape.sites];
            let rt = s.fed.runtime_mut(site)?;
            let cell = class.instantiate_as(rt.ids_mut().next_id(), None);
            objects.push(rec.call(Call::Adopt, || rt.adopt(cell))?);
            hosts.push(site);
        }
        let mut churn_rng = Rng::new(seed, CHURN_STREAM);
        let churn = (1..=CHURN_CYCLES)
            .map(|j| {
                let victim = s.churnable[churn_rng.below(s.churnable.len())];
                (j * prefix / (CHURN_CYCLES + 1), victim)
            })
            .collect();
        Ok(Fleet {
            s,
            cells: Ledger::new("count", objects),
            hosts,
            zipf: Zipf::new(total, ZIPF_S),
            rng: Rng::new(seed, OPS_STREAM),
            churn,
            next_churn: 0,
            polls: true,
            next_poll: 0,
            ops: 0,
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        })
    }

    /// Checkpoint at the crash instant, crash, restart: the restart
    /// restores exactly the pre-crash state, so no op fails.
    fn churn_cycle(&mut self, victim: NodeId, rec: &mut Recorder) -> Res<()> {
        let fed = &mut self.s.fed;
        let op = rec.begin();
        rec.call(Call::Checkpoint, || fed.checkpoint_site(victim))?;
        rec.call(Call::Crash, || fed.crash_site(victim))?;
        rec.call(Call::Restart, || fed.restart_site(victim))?;
        rec.end(op, "op.churn", false);
        Ok(())
    }

    fn invoke(&mut self, rec: &mut Recorder) {
        let k = self.zipf.sample(&mut self.rng);
        let host = self.hosts[k];
        let neighbours = self.s.neighbours(host);
        let pick = self.rng.below(neighbours.len() + 1);
        let caller = if pick == 0 { host } else { neighbours[pick - 1] };
        let bump = self.rng.percent(BUMP_PERCENT);
        let method = if bump { "bump" } else { "peek" };
        let target = self.cells.objects[k];
        let caller_ioo = self.s.ioo(caller);
        let op = rec.begin();
        let out = if caller == host {
            rec.on_fed(op, Kind::InvokeLocal, &mut self.s.fed, |fed| {
                fed.runtime_mut(host).and_then(|rt| {
                    rt.invoke(caller_ioo, target, method, &[]).map_err(HadasError::Model)
                })
            })
        } else {
            rec.on_fed(op, Kind::InvokeRemote, &mut self.s.fed, |fed| {
                fed.remote_invoke(caller, host, caller_ioo, target, method, &[])
            })
        };
        rec.end(op, "op.invoke", true);
        self.attempted += 1;
        self.settle(k, bump, out);
    }

    /// Books an invoke's outcome against the exactly-once window: a bump
    /// must return one more than an admissible count, a peek an
    /// admissible count.
    fn settle(&mut self, k: usize, bump: bool, out: Result<Value, HadasError>) {
        let (lo, hi) = self.cells.window(k);
        match out {
            Ok(v) => {
                let (lo, hi) = if bump { (lo + 1, hi + 1) } else { (lo, hi) };
                if !v.as_int().is_some_and(|n| (lo..=hi).contains(&n)) {
                    self.wrong.push(format!(
                        "{} returned {v:?}, expected [{lo}, {hi}]",
                        self.cells.objects[k]
                    ));
                }
                if bump {
                    self.cells.ok[k] += 1;
                }
            }
            Err(e) => {
                self.failed += 1;
                if bump && world::is_ambiguous(&e) {
                    self.cells.ambiguous[k] += 1;
                }
            }
        }
    }

    fn migrate(&mut self, rec: &mut Recorder) {
        let m = self.zipf.sample(&mut self.rng);
        let from = self.hosts[m];
        let neighbours = self.s.neighbours(from);
        let to = neighbours[self.rng.below(neighbours.len())];
        let object = self.cells.objects[m];
        let op = rec.begin();
        let moved = rec.on_fed(op, Kind::Migrate, &mut self.s.fed, |fed| {
            fed.dispatch_object(from, to, object)
        });
        rec.end(op, "op.migrate", false);
        self.attempted += 1;
        match moved {
            Ok(()) => self.hosts[m] = to,
            Err(_) => self.failed += 1,
        }
    }

    fn poll(&mut self, rec: &mut Recorder) {
        let node = self.s.nodes[self.next_poll % self.s.nodes.len()];
        self.next_poll += 1;
        let op = rec.begin();
        let snapshot =
            rec.on_fed(op, Kind::Introspect, &mut self.s.fed, |fed| fed.site_telemetry(node));
        rec.end(op, "op.introspect", false);
        self.attempted += 1;
        match snapshot {
            Ok(snap) => {
                std::hint::black_box(snap.objects.len());
            }
            Err(_) => self.failed += 1,
        }
    }
}

impl Workload for Fleet {
    fn step(&mut self, rec: &mut Recorder) -> Res<()> {
        while let Some(&(at, victim)) = self.churn.get(self.next_churn) {
            if at > self.ops {
                break;
            }
            self.next_churn += 1;
            self.churn_cycle(victim, rec)?;
        }
        self.invoke(rec);
        self.ops += 1;
        if self.ops.is_multiple_of(MIGRATE_EVERY) {
            self.migrate(rec);
        }
        if self.polls && self.ops.is_multiple_of(POLL_EVERY) {
            self.poll(rec);
        }
        Ok(())
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn attempted(&self) -> u64 {
        self.attempted
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn fed(&self) -> &Federation {
        &self.s.fed
    }

    fn fed_mut(&mut self) -> &mut Federation {
        &mut self.s.fed
    }

    fn set_polls(&mut self, on: bool) {
        self.polls = on;
    }

    fn check(&mut self, rec: &mut Recorder) -> Res<Vec<String>> {
        world::drain(&mut self.s.fed, rec)?;
        let mut violations = std::mem::take(&mut self.wrong);
        violations.extend(world::check_federation(&self.s.fed, &self.cells)?);
        Ok(violations)
    }

    fn capture(&mut self) -> Res<Capture> {
        let host = self.hosts[0];
        let caller = self.s.ioo(self.s.neighbours(host)[0]);
        Capture::take(&mut self.s.fed, host, self.cells.objects[0], caller, "peek", BUMP)
    }
}
