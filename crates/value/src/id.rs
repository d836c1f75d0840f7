//! Decentralized object identity.
//!
//! The paper requires "built-in decentralized mechanisms for assigning
//! distinct names for objects" — no central registry may be involved,
//! because the universe of objects is unbounded and widely dispersed.
//!
//! An [`ObjectId`] is a 128-bit triple `(node, seq, entropy)`:
//!
//! * `node` — 64-bit identifier of the node that *created* the object.
//!   Nodes pick their identifiers independently (in deployment: hash of
//!   address + boot time; in the simulator: assigned by the scenario).
//! * `seq`  — 32-bit per-node creation counter.
//! * `entropy` — 32 bits drawn from the generator's stream, protecting
//!   against node-id reuse after restarts.
//!
//! Two generators with distinct node ids can never collide; a single
//! generator never repeats. Identity is *location independent*: an object
//! keeps its id as it migrates.

use std::fmt;
use std::str::FromStr;

use crate::error::ValueError;

/// Identifier of a node (a site / host) in the object universe.
///
/// Newtype over `u64` so node ids cannot be confused with sequence numbers
/// or arbitrary integers.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:x}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

/// Globally unique, decentralized, location-independent object identity.
///
/// # Example
///
/// ```
/// use mrom_value::{IdGenerator, NodeId};
///
/// let mut gen_a = IdGenerator::new(NodeId(1));
/// let mut gen_b = IdGenerator::new(NodeId(2));
/// let a = gen_a.next_id();
/// let b = gen_b.next_id();
/// assert_ne!(a, b);
/// assert_eq!(a.node(), NodeId(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ObjectId {
    node: NodeId,
    seq: u32,
    entropy: u32,
}

impl ObjectId {
    /// The reserved identity of "the system itself" — used as the caller
    /// principal for host-initiated operations before any object exists.
    pub const SYSTEM: ObjectId = ObjectId {
        node: NodeId(0),
        seq: 0,
        entropy: 0,
    };

    /// Assembles an id from raw parts. Prefer [`IdGenerator::next_id`];
    /// this constructor exists for deserialization and tests.
    pub fn from_parts(node: NodeId, seq: u32, entropy: u32) -> Self {
        ObjectId { node, seq, entropy }
    }

    /// The node on which this object was created.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The per-node creation sequence number.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The anti-reuse entropy word.
    pub fn entropy(&self) -> u32 {
        self.entropy
    }

    /// Packs the identity into 16 bytes (big-endian `node, seq, entropy`).
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.node.0.to_be_bytes());
        out[8..12].copy_from_slice(&self.seq.to_be_bytes());
        out[12..].copy_from_slice(&self.entropy.to_be_bytes());
        out
    }

    /// Rebuilds an identity from [`ObjectId::to_bytes`] output.
    pub fn from_bytes(raw: [u8; 16]) -> Self {
        let node = u64::from_be_bytes(raw[..8].try_into().expect("8 bytes"));
        let seq = u32::from_be_bytes(raw[8..12].try_into().expect("4 bytes"));
        let entropy = u32::from_be_bytes(raw[12..].try_into().expect("4 bytes"));
        ObjectId::from_parts(NodeId(node), seq, entropy)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}-{:08x}-{:08x}",
            self.node.0, self.seq, self.entropy
        )
    }
}

impl FromStr for ObjectId {
    type Err = ValueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('-');
        let (Some(a), Some(b), Some(c), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ValueError::Malformed(format!(
                "object id must have three dash-separated fields, got {s:?}"
            )));
        };
        let node = u64::from_str_radix(a, 16)
            .map_err(|e| ValueError::Malformed(format!("bad node field {a:?}: {e}")))?;
        let seq = u32::from_str_radix(b, 16)
            .map_err(|e| ValueError::Malformed(format!("bad seq field {b:?}: {e}")))?;
        let entropy = u32::from_str_radix(c, 16)
            .map_err(|e| ValueError::Malformed(format!("bad entropy field {c:?}: {e}")))?;
        Ok(ObjectId::from_parts(NodeId(node), seq, entropy))
    }
}

/// Per-node generator of [`ObjectId`]s.
///
/// Each node owns exactly one generator. The entropy stream is a small
/// xorshift PRNG seeded from the node id, so generation is deterministic
/// within a simulation run while still exercising the anti-reuse word.
#[derive(Debug, Clone)]
pub struct IdGenerator {
    node: NodeId,
    next_seq: u32,
    rng_state: u64,
}

impl IdGenerator {
    /// Creates a generator for `node` with a seed derived from the node id.
    pub fn new(node: NodeId) -> Self {
        Self::with_seed(node, node.0 ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates a generator with an explicit entropy seed (e.g. boot time in
    /// deployment, scenario seed in simulation).
    pub fn with_seed(node: NodeId, seed: u64) -> Self {
        IdGenerator {
            node,
            next_seq: 1,
            // xorshift must not start at 0
            rng_state: seed | 1,
        }
    }

    /// The node this generator mints identities for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mints the next identity.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` identities are minted from one
    /// generator (2^32 objects on a single node exceeds any simulated run).
    pub fn next_id(&mut self) -> ObjectId {
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("object id sequence exhausted on this node");
        // xorshift64
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        ObjectId::from_parts(self.node, seq, (x >> 32) as u32)
    }
}

/// A thread-safe [`IdGenerator`]: mints identities through `&self`, so a
/// multi-worker runtime can create objects concurrently.
///
/// The stream is identical to [`IdGenerator`] with the same seed: each
/// mint takes the next sequence number and the next entropy draw together
/// under one short lock, so `n` concurrent mints yield exactly the ids of
/// `n` sequential mints, whatever the interleaving.
#[derive(Debug)]
pub struct AtomicIdGenerator {
    inner: std::sync::Mutex<IdGenerator>,
}

impl AtomicIdGenerator {
    /// Creates a generator for `node` with a seed derived from the node id
    /// (same derivation as [`IdGenerator::new`]).
    pub fn new(node: NodeId) -> Self {
        Self::from_generator(&IdGenerator::new(node))
    }

    /// Creates a generator with an explicit entropy seed.
    pub fn with_seed(node: NodeId, seed: u64) -> Self {
        Self::from_generator(&IdGenerator::with_seed(node, seed))
    }

    /// Adopts the exact state of a sequential generator, continuing its
    /// stream where it left off.
    pub fn from_generator(gen: &IdGenerator) -> Self {
        AtomicIdGenerator {
            inner: std::sync::Mutex::new(gen.clone()),
        }
    }

    /// Snapshots the current state as a sequential [`IdGenerator`].
    pub fn to_generator(&self) -> IdGenerator {
        self.lock().clone()
    }

    /// The node this generator mints identities for.
    pub fn node(&self) -> NodeId {
        self.lock().node()
    }

    /// Mints the next identity. Safe to call from any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` identities are minted from one
    /// generator, matching [`IdGenerator::next_id`].
    pub fn next_id(&self) -> ObjectId {
        self.lock().next_id()
    }

    /// The lock guards two plain integers and is never held across user
    /// code, so a poisoned lock (an exhausted-sequence panic) leaves the
    /// state coherent.
    fn lock(&self) -> std::sync::MutexGuard<'_, IdGenerator> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_from_one_generator_are_distinct() {
        let mut g = IdGenerator::new(NodeId(7));
        let ids: HashSet<_> = (0..10_000).map(|_| g.next_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn ids_from_distinct_nodes_never_collide() {
        let mut a = IdGenerator::new(NodeId(1));
        let mut b = IdGenerator::new(NodeId(2));
        for _ in 0..1000 {
            assert_ne!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn same_node_same_seed_is_deterministic() {
        let mut a = IdGenerator::with_seed(NodeId(3), 42);
        let mut b = IdGenerator::with_seed(NodeId(3), 42);
        for _ in 0..100 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn byte_round_trip() {
        let mut g = IdGenerator::new(NodeId(0xdead_beef));
        for _ in 0..100 {
            let id = g.next_id();
            assert_eq!(ObjectId::from_bytes(id.to_bytes()), id);
        }
    }

    #[test]
    fn string_round_trip() {
        let mut g = IdGenerator::new(NodeId(9));
        for _ in 0..100 {
            let id = g.next_id();
            let parsed: ObjectId = id.to_string().parse().expect("parse");
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-an-id-at-all-really".parse::<ObjectId>().is_err());
        assert!("".parse::<ObjectId>().is_err());
        assert!("12".parse::<ObjectId>().is_err());
        assert!("zz-1-1".parse::<ObjectId>().is_err());
    }

    #[test]
    fn atomic_generator_matches_sequential_stream() {
        let mut seq = IdGenerator::with_seed(NodeId(11), 77);
        let atomic = AtomicIdGenerator::with_seed(NodeId(11), 77);
        for _ in 0..256 {
            assert_eq!(seq.next_id(), atomic.next_id());
        }
        // Round trip through the snapshot keeps the stream aligned.
        let mut resumed = atomic.to_generator();
        let atomic2 = AtomicIdGenerator::from_generator(&resumed);
        for _ in 0..64 {
            assert_eq!(resumed.next_id(), atomic2.next_id());
        }
    }

    #[test]
    fn atomic_generator_mints_the_sequential_set_across_threads() {
        let mut seq = IdGenerator::new(NodeId(12));
        let sequential: HashSet<_> = (0..8000).map(|_| seq.next_id()).collect();
        // Racing mints must keep each sequence number paired with its own
        // entropy draw; a lost pairing is rare, so race several rounds.
        for _ in 0..20 {
            let atomic = AtomicIdGenerator::new(NodeId(12));
            let start = std::sync::Barrier::new(4);
            let mut all = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            (0..2000).map(|_| atomic.next_id()).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    all.extend(h.join().expect("minting thread panicked"));
                }
            });
            let distinct: HashSet<_> = all.iter().copied().collect();
            assert_eq!(distinct.len(), 8000);
            assert_eq!(distinct, sequential);
        }
    }

    #[test]
    fn system_id_is_stable() {
        assert_eq!(ObjectId::SYSTEM.node(), NodeId(0));
        assert_eq!(ObjectId::SYSTEM.seq(), 0);
    }

    #[test]
    fn display_is_nonempty_and_parseable() {
        let id = ObjectId::from_parts(NodeId(1), 2, 3);
        let s = id.to_string();
        assert_eq!(s, "0000000000000001-00000002-00000003");
    }
}
