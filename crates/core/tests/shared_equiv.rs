//! Seeded interleaving-equivalence property for the concurrent runtime:
//! any parallel schedule of **commuting** operations on a [`Runtime`]
//! leaves every object byte-equal to running the same operations in a
//! sequential order on one thread.
//!
//! The operations all commute — counter additions (`bump` = +1,
//! `add n` = +n) on the same or different objects, `getDataItem` reads,
//! and `create`s of a registered class (the atomic id generator mints
//! the same id *set* for N creates under any interleaving, and each
//! created object is a pure function of its id) — so *any* serialization
//! is a valid reference order. The checkout protocol must therefore make
//! every interleaving indistinguishable from the thread-major sequential
//! run; a torn write, a lost checkin, a double-applied retry, or a
//! skipped/duplicated create all break byte equality of the final table.
//!
//! The in-tree `proptest` stub generates but cannot shrink, so schedules
//! come from a seeded generator and failures go through a hand-rolled
//! greedy shrinker that reports the *minimal* failing schedule (the
//! shrinker itself is exercised against an artificial failure predicate
//! below, so a real regression gets a minimal repro, not a 100-op blob).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use mrom_core::{
    ClassSpec, DataItem, Method, MethodBody, MromError, MromObject, ObjectBuilder, Runtime,
};
use mrom_value::{wire, NodeId, ObjectId, Value};

/// Objects per schedule (threads deliberately share them — the ops
/// commute, so contention is allowed and retried).
const OBJECTS: usize = 6;
/// Worker threads per parallel run.
const LANES: usize = 4;

/// One commuting operation against the shared table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `bump` — add one to counter `obj`.
    Bump { obj: usize },
    /// `add n` — add a small constant to counter `obj`.
    Add { obj: usize, n: i64 },
    /// `getDataItem("count")` — a pure introspective read of `obj`.
    Get { obj: usize },
    /// `create` a fresh instance of the registered blank class.
    Create,
}

/// A schedule: per-lane op lists, executed concurrently in the parallel
/// run and lane-major (lane 0 first, in order) in the reference run.
type Schedule = Vec<Vec<Op>>;

/// Tiny deterministic generator (xorshift64) — the whole property is a
/// pure function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn gen_schedule(seed: u64) -> Schedule {
    let mut rng = Rng::new(seed);
    (0..LANES)
        .map(|_| {
            let len = 10 + rng.below(30) as usize;
            (0..len)
                .map(|_| {
                    let obj = rng.below(OBJECTS as u64) as usize;
                    match rng.below(10) {
                        0..=3 => Op::Bump { obj },
                        4..=7 => Op::Add {
                            obj,
                            n: 1 + rng.below(9) as i64,
                        },
                        8 => Op::Get { obj },
                        _ => Op::Create,
                    }
                })
                .collect()
        })
        .collect()
}

/// The counter class: script bodies so behaviour serializes with state
/// and `image_value` compares the whole object.
fn counter(id: ObjectId) -> MromObject {
    ObjectBuilder::new(id)
        .class("equiv-counter")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script(
                    "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
                )
                .expect("bump parses"),
            ),
        )
        .fixed_method(
            "add",
            Method::public(
                MethodBody::script(
                    "param n; self.set(\"count\", self.get(\"count\") + n); \
                     return self.get(\"count\");",
                )
                .expect("add parses"),
            ),
        )
        .build()
}

/// The blank class `Op::Create` instantiates: every instance is a pure
/// function of its minted id, so create commutes at the table level.
fn blank_spec() -> ClassSpec {
    ClassSpec::new("equiv-blank").fixed_data("tag", DataItem::public(Value::Int(7)))
}

fn apply(shared: &Runtime, ids: &[ObjectId], op: Op) {
    let (target, method, args) = match op {
        Op::Bump { obj } => (ids[obj], "bump", Vec::new()),
        Op::Add { obj, n } => (ids[obj], "add", vec![Value::Int(n)]),
        Op::Get { obj } => (ids[obj], "getDataItem", vec![Value::from("count")]),
        Op::Create => {
            shared.create("equiv-blank").expect("create never contends");
            return;
        }
    };
    // Commuting ops retry through contention: every scheduled op is
    // applied exactly once, whenever its checkout wins.
    loop {
        match shared.invoke(ObjectId::SYSTEM, target, method, &args) {
            Ok(_) => return,
            Err(MromError::ObjectBusy(_)) => thread::yield_now(),
            Err(other) => panic!("schedule op {op:?} failed: {other:?}"),
        }
    }
}

/// Serializes the *entire* object table, keyed and ordered by id — the
/// created objects count too, not just the pre-made counters.
fn table_image<F: Fn(ObjectId) -> Value>(
    mut ids: Vec<ObjectId>,
    image: F,
) -> Vec<(ObjectId, Vec<u8>)> {
    ids.sort();
    ids.into_iter()
        .map(|id| (id, wire::encode(&image(id))))
        .collect()
}

/// Runs the schedule concurrently; returns the full table image.
fn run_parallel(schedule: &Schedule) -> Vec<(ObjectId, Vec<u8>)> {
    let shared = Runtime::new(NodeId(21));
    shared.with_classes_mut(|reg| reg.register(blank_spec()).unwrap());
    let ids: Vec<ObjectId> = (0..OBJECTS)
        .map(|_| shared.adopt(counter(shared.ids().next_id())).unwrap())
        .collect();
    thread::scope(|s| {
        for lane in schedule {
            let (shared, ids) = (&shared, &ids);
            s.spawn(move || {
                for &op in lane {
                    apply(shared, ids, op);
                }
            });
        }
    });
    table_image(shared.object_ids(), |id| {
        shared.object(id).unwrap().image_value().unwrap()
    })
}

/// Runs the schedule lane-major on one thread through `&mut` access;
/// returns the full table image.
fn run_sequential(schedule: &Schedule) -> Vec<(ObjectId, Vec<u8>)> {
    let mut rt = Runtime::new(NodeId(21));
    rt.classes_mut().register(blank_spec()).unwrap();
    let ids: Vec<ObjectId> = (0..OBJECTS)
        .map(|_| {
            let id = rt.ids_mut().next_id();
            rt.adopt(counter(id)).unwrap()
        })
        .collect();
    for lane in schedule {
        for &op in lane {
            let (target, method, args) = match op {
                Op::Bump { obj } => (ids[obj], "bump", Vec::new()),
                Op::Add { obj, n } => (ids[obj], "add", vec![Value::Int(n)]),
                Op::Get { obj } => (ids[obj], "getDataItem", vec![Value::from("count")]),
                Op::Create => {
                    rt.create("equiv-blank").unwrap();
                    continue;
                }
            };
            rt.invoke(ObjectId::SYSTEM, target, method, &args).unwrap();
        }
    }
    table_image(rt.object_ids(), |id| {
        rt.object(id).unwrap().image_value().unwrap()
    })
}

/// Does this schedule expose a divergence? (`true` = property violated.)
fn diverges(schedule: &Schedule) -> bool {
    run_parallel(schedule) != run_sequential(schedule)
}

/// Greedy shrinker: repeatedly drop the single op whose removal keeps
/// the schedule failing, until no single removal does. The result is
/// 1-minimal — every remaining op is load-bearing for the failure.
fn shrink(mut schedule: Schedule, fails: &dyn Fn(&Schedule) -> bool) -> Schedule {
    loop {
        let mut reduced = None;
        'search: for lane in 0..schedule.len() {
            for i in 0..schedule[lane].len() {
                let mut candidate = schedule.clone();
                candidate[lane].remove(i);
                if fails(&candidate) {
                    reduced = Some(candidate);
                    break 'search;
                }
            }
        }
        match reduced {
            Some(smaller) => schedule = smaller,
            None => return schedule,
        }
    }
}

fn ops_total(schedule: &Schedule) -> usize {
    schedule.iter().map(Vec::len).sum()
}

/// Seeds to sweep: `MROM_EQUIV_SEEDS` (a count) or a fast default.
fn sweep_seeds() -> Vec<u64> {
    let count = std::env::var("MROM_EQUIV_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(8);
    (1..=count.max(1)).collect()
}

#[test]
fn interleavings_of_commuting_ops_match_a_sequential_order() {
    for seed in sweep_seeds() {
        let schedule = gen_schedule(seed);
        if diverges(&schedule) {
            let minimal = shrink(schedule, &diverges);
            panic!(
                "seed {seed}: parallel run diverged from sequential; \
                 minimal failing schedule ({} ops): {minimal:?}",
                ops_total(&minimal)
            );
        }
    }
}

#[test]
fn shrinker_finds_a_minimal_failing_schedule() {
    // Drive the shrinker with an artificial failure predicate — "the
    // schedule still contains at least 3 bumps of object 0" — so we can
    // assert minimality without needing a real (hopefully impossible)
    // equivalence bug. Track how many candidate schedules were probed to
    // prove the search actually ran.
    let probes = AtomicUsize::new(0);
    let fails = |s: &Schedule| {
        probes.fetch_add(1, Ordering::Relaxed);
        s.iter()
            .flatten()
            .filter(|op| **op == Op::Bump { obj: 0 })
            .count()
            >= 3
    };
    let seed_schedule = gen_schedule(3);
    assert!(
        fails(&seed_schedule),
        "fixture: the generated schedule must trip the predicate"
    );
    let minimal = shrink(seed_schedule, &fails);
    assert_eq!(
        ops_total(&minimal),
        3,
        "minimal repro keeps exactly the 3 load-bearing ops: {minimal:?}"
    );
    assert!(minimal
        .iter()
        .flatten()
        .all(|op| *op == Op::Bump { obj: 0 }));
    assert!(probes.load(Ordering::Relaxed) > ops_total(&gen_schedule(3)));
}
