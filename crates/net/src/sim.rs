//! The discrete-event simulator core.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use mrom_value::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::NetworkConfig;
use crate::error::NetError;
use crate::stats::NetStats;
use crate::time::SimTime;

/// A message arriving at its destination node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Opaque payload (protocols encode [`mrom_value::wire`] buffers).
    pub payload: Vec<u8>,
}

/// In-flight message ordered by arrival time, with a sequence tie-breaker
/// for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    at: SimTime,
    seq: u64,
    src: NodeId,
    dst: NodeId,
    payload: Vec<u8>,
    /// When the message entered the wire — the telemetry window derives
    /// per-link virtual latency as `at - sent_at` at delivery time.
    sent_at: SimTime,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network: seeded, deterministic, FIFO per directed link.
///
/// Drive it by calling [`SimNet::send`] and then pumping [`SimNet::step`]
/// until it returns `None`; each step advances the virtual clock to the
/// next arrival.
#[derive(Debug)]
pub struct SimNet {
    config: NetworkConfig,
    nodes: BTreeSet<NodeId>,
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Earliest legal next-arrival per directed link, enforcing FIFO
    /// (TCP-like) ordering even under jitter.
    link_front: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Crashed nodes: sends to or from them are dropped, as are in-flight
    /// deliveries that arrive while the destination is down.
    down: BTreeSet<NodeId>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    stats: NetStats,
}

impl SimNet {
    /// Creates an empty network under `config`.
    pub fn new(config: NetworkConfig) -> SimNet {
        let rng = StdRng::seed_from_u64(config.seed());
        SimNet {
            config,
            nodes: BTreeSet::new(),
            queue: BinaryHeap::new(),
            link_front: BTreeMap::new(),
            down: BTreeSet::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng,
            stats: NetStats::default(),
        }
    }

    /// Registers a node.
    ///
    /// # Errors
    ///
    /// [`NetError::DuplicateNode`].
    pub fn add_node(&mut self, node: NodeId) -> Result<(), NetError> {
        if !self.nodes.insert(node) {
            return Err(NetError::DuplicateNode(node));
        }
        Ok(())
    }

    /// The registered nodes, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the live configuration (partitions can be toggled
    /// mid-run; new sends observe the change, in-flight messages do not).
    pub fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.config
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Marks `node` as crashed. From now on messages sent to or from it
    /// are dropped (and counted), and in-flight messages arriving at it
    /// while it is down are dropped at delivery time. The node's queue of
    /// past deliveries is untouched — a crash loses volatile state at the
    /// *site* layer, not history at the network layer.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`].
    pub fn crash_node(&mut self, node: NodeId) -> Result<(), NetError> {
        if !self.nodes.contains(&node) {
            return Err(NetError::UnknownNode(node));
        }
        self.down.insert(node);
        Ok(())
    }

    /// Brings a crashed node back. Messages sent after the restart flow
    /// normally; anything dropped during the outage stays dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`].
    pub fn restart_node(&mut self, node: NodeId) -> Result<(), NetError> {
        if !self.nodes.contains(&node) {
            return Err(NetError::UnknownNode(node));
        }
        self.down.remove(&node);
        Ok(())
    }

    /// Is `node` currently crashed?
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Sends `payload` from `src` to `dst`. Returns the scheduled arrival
    /// time, or `None` when the message was dropped (loss or partition) —
    /// the sender cannot tell, just like on a real network; the return
    /// value exists for tests and stats-free assertions.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] / [`NetError::SelfSend`].
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: Vec<u8>,
    ) -> Result<Option<SimTime>, NetError> {
        if !self.nodes.contains(&src) {
            return Err(NetError::UnknownNode(src));
        }
        if !self.nodes.contains(&dst) {
            return Err(NetError::UnknownNode(dst));
        }
        if src == dst {
            return Err(NetError::SelfSend(src));
        }
        self.stats.record_send(payload.len());

        if self.down.contains(&src) || self.down.contains(&dst) {
            self.stats.record_drop(src, dst);
            mrom_obs::link_dropped(src, dst);
            return Ok(None);
        }
        if self.config.is_partitioned(src, dst) {
            self.stats.record_drop(src, dst);
            mrom_obs::link_dropped(src, dst);
            return Ok(None);
        }
        let link = self.config.link(src, dst);
        if link.loss() > 0.0 && self.rng.random::<f64>() < link.loss() {
            self.stats.record_drop(src, dst);
            mrom_obs::link_dropped(src, dst);
            return Ok(None);
        }

        let mut arrival = self.now + link.transfer_time(payload.len());
        if link.jitter_bound_us() > 0 {
            arrival += SimTime::from_micros(self.rng.random_range(0..=link.jitter_bound_us()));
        }
        // All fault draws are gated on a non-zero probability so that a
        // fault-free configuration consumes exactly the RNG stream it did
        // before these knobs existed (seeded runs stay reproducible).
        let hold_us = link.transfer_time(payload.len()).as_micros().max(1);
        if link.reorder() > 0.0 && self.rng.random::<f64>() < link.reorder() {
            // A reordered message is held back by the network and exempted
            // from the FIFO clamp below, so later sends on the same link
            // can overtake it.
            arrival += SimTime::from_micros(self.rng.random_range(1..=3 * hold_us));
        } else {
            // FIFO per directed link: never deliver before an earlier send
            // on the same link.
            let front = self.link_front.entry((src, dst)).or_insert(SimTime::ZERO);
            if arrival < *front {
                arrival = *front;
            }
            *front = arrival;
        }

        self.seq += 1;
        self.queue.push(Reverse(InFlight {
            at: arrival,
            seq: self.seq,
            src,
            dst,
            payload: payload.clone(),
            sent_at: self.now,
        }));

        if link.duplication() > 0.0 && self.rng.random::<f64>() < link.duplication() {
            // A retransmitting transport delivers a second copy slightly
            // later; the copy does not advance the FIFO front.
            self.stats.record_duplicate();
            let lag = SimTime::from_micros(self.rng.random_range(1..=hold_us));
            self.seq += 1;
            self.queue.push(Reverse(InFlight {
                at: arrival + lag,
                seq: self.seq,
                src,
                dst,
                payload,
                sent_at: self.now,
            }));
        }
        Ok(Some(arrival))
    }

    /// Delivers the next in-flight message, advancing the clock to its
    /// arrival time. Returns `None` when the network is idle.
    pub fn step(&mut self) -> Option<Delivery> {
        loop {
            let Reverse(msg) = self.queue.pop()?;
            if let Some(d) = self.arrive(msg) {
                return Some(d);
            }
        }
    }

    /// Advances the clock to `msg.at` and either delivers it or, when the
    /// destination has crashed while it was on the wire, drops it at the
    /// dead socket.
    fn arrive(&mut self, msg: InFlight) -> Option<Delivery> {
        debug_assert!(msg.at >= self.now, "time cannot run backwards");
        self.now = msg.at;
        // Stamp the recorder's virtual clock before any event this
        // delivery triggers, so telemetry windows follow simulated time.
        mrom_obs::set_virtual_now_us(self.now.as_micros());
        if self.down.contains(&msg.dst) {
            self.stats.record_drop(msg.src, msg.dst);
            mrom_obs::link_dropped(msg.src, msg.dst);
            return None;
        }
        self.stats
            .record_delivery(msg.src, msg.dst, msg.payload.len());
        mrom_obs::link_delivered(
            msg.src,
            msg.dst,
            msg.payload.len(),
            msg.at.saturating_sub(msg.sent_at).as_micros(),
        );
        Some(Delivery {
            at: msg.at,
            src: msg.src,
            dst: msg.dst,
            payload: msg.payload,
        })
    }

    /// Pumps deliveries through `handler` until the network is idle. The
    /// handler may send new messages (request/response protocols). Returns
    /// the number of deliveries processed.
    pub fn run<F>(&mut self, mut handler: F) -> usize
    where
        F: FnMut(&mut SimNet, Delivery),
    {
        let mut count = 0;
        while let Some(d) = self.step() {
            count += 1;
            handler(self, d);
        }
        count
    }

    /// Advances the clock to `t` without delivering anything scheduled
    /// after `t`; returns deliveries due at or before `t`, in order.
    pub fn run_until(&mut self, t: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > t {
                break;
            }
            let Reverse(msg) = self.queue.pop().expect("peeked");
            // `arrive` returns `None` for messages swallowed by a crashed
            // destination; they consume queue slots but produce nothing.
            if let Some(d) = self.arrive(msg) {
                out.push(d);
            }
        }
        if self.now < t {
            self.now = t;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;

    fn three_node_net(seed: u64) -> SimNet {
        let cfg = NetworkConfig::new(seed).with_default_link(
            LinkConfig::new()
                .latency_us(1_000)
                .bandwidth_bytes_per_sec(1_000_000),
        );
        let mut net = SimNet::new(cfg);
        for n in 1..=3 {
            net.add_node(NodeId(n)).unwrap();
        }
        net
    }

    #[test]
    fn delivery_time_is_latency_plus_serialization() {
        let mut net = three_node_net(1);
        net.send(NodeId(1), NodeId(2), vec![0u8; 1_000]).unwrap();
        let d = net.step().unwrap();
        assert_eq!(d.at.as_micros(), 2_000); // 1 ms latency + 1 ms at 1 MB/s
        assert_eq!(net.now(), d.at);
    }

    #[test]
    fn send_validates_endpoints() {
        let mut net = three_node_net(1);
        assert_eq!(
            net.send(NodeId(9), NodeId(1), vec![]),
            Err(NetError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            net.send(NodeId(1), NodeId(9), vec![]),
            Err(NetError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            net.send(NodeId(1), NodeId(1), vec![]),
            Err(NetError::SelfSend(NodeId(1)))
        );
        assert!(matches!(
            net.add_node(NodeId(1)),
            Err(NetError::DuplicateNode(_))
        ));
    }

    #[test]
    fn deliveries_come_out_in_time_order() {
        let mut net = three_node_net(2);
        // Big message first, then a small one on a *different* link; the
        // small one arrives earlier.
        net.send(NodeId(1), NodeId(2), vec![0u8; 100_000]).unwrap();
        net.send(NodeId(1), NodeId(3), vec![0u8; 10]).unwrap();
        let first = net.step().unwrap();
        let second = net.step().unwrap();
        assert_eq!(first.dst, NodeId(3));
        assert_eq!(second.dst, NodeId(2));
        assert!(first.at <= second.at);
        assert!(net.step().is_none());
    }

    #[test]
    fn same_link_is_fifo_even_when_sizes_differ() {
        let mut net = three_node_net(3);
        net.send(NodeId(1), NodeId(2), vec![0u8; 100_000]).unwrap();
        net.send(NodeId(1), NodeId(2), vec![0u8; 1]).unwrap();
        let first = net.step().unwrap();
        let second = net.step().unwrap();
        assert_eq!(first.payload.len(), 100_000, "FIFO: first sent, first out");
        assert_eq!(second.payload.len(), 1);
        assert!(second.at >= first.at);
    }

    #[test]
    fn partitions_drop_messages() {
        let mut net = three_node_net(4);
        net.config_mut().partition(NodeId(1), NodeId(2));
        assert_eq!(net.send(NodeId(1), NodeId(2), vec![1]).unwrap(), None);
        assert_eq!(net.send(NodeId(2), NodeId(1), vec![1]).unwrap(), None);
        // The unrelated link still works.
        assert!(net.send(NodeId(1), NodeId(3), vec![1]).unwrap().is_some());
        assert_eq!(net.stats().messages_dropped, 2);
        net.config_mut().heal(NodeId(1), NodeId(2));
        assert!(net.send(NodeId(1), NodeId(2), vec![1]).unwrap().is_some());
    }

    #[test]
    fn lossy_links_drop_roughly_the_configured_fraction() {
        let cfg = NetworkConfig::new(7).with_default_link(LinkConfig::new().loss_probability(0.3));
        let mut net = SimNet::new(cfg);
        net.add_node(NodeId(1)).unwrap();
        net.add_node(NodeId(2)).unwrap();
        for _ in 0..2_000 {
            net.send(NodeId(1), NodeId(2), vec![0]).unwrap();
        }
        let dropped = net.stats().messages_dropped as f64 / 2_000.0;
        assert!((dropped - 0.3).abs() < 0.05, "drop rate {dropped}");
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let run = |seed| {
            let cfg = NetworkConfig::new(seed)
                .with_default_link(LinkConfig::new().jitter_us(5_000).loss_probability(0.1));
            let mut net = SimNet::new(cfg);
            net.add_node(NodeId(1)).unwrap();
            net.add_node(NodeId(2)).unwrap();
            let mut arrivals = Vec::new();
            for i in 0..100u8 {
                net.send(NodeId(1), NodeId(2), vec![i]).unwrap();
            }
            while let Some(d) = net.step() {
                arrivals.push((d.at, d.payload));
            }
            arrivals
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn run_pumps_request_response() {
        let mut net = three_node_net(5);
        net.send(NodeId(1), NodeId(2), b"ping".to_vec()).unwrap();
        let delivered = net.run(|net, d| {
            if d.payload == b"ping" {
                net.send(d.dst, d.src, b"pong".to_vec()).unwrap();
            }
        });
        assert_eq!(delivered, 2);
        assert_eq!(net.stats().messages_delivered, 2);
    }

    #[test]
    fn run_until_respects_the_horizon() {
        let mut net = three_node_net(6);
        net.send(NodeId(1), NodeId(2), vec![0u8; 10]).unwrap(); // ~1ms
        net.send(NodeId(1), NodeId(3), vec![0u8; 3_000_000])
            .unwrap(); // ~3s
        let early = net.run_until(SimTime::from_millis(100));
        assert_eq!(early.len(), 1);
        assert_eq!(net.now(), SimTime::from_millis(100));
        assert_eq!(net.in_flight(), 1);
        let late = net.run_until(SimTime::from_secs(10));
        assert_eq!(late.len(), 1);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let cfg =
            NetworkConfig::new(21).with_default_link(LinkConfig::new().duplicate_probability(1.0));
        let mut net = SimNet::new(cfg);
        net.add_node(NodeId(1)).unwrap();
        net.add_node(NodeId(2)).unwrap();
        for i in 0..10u8 {
            net.send(NodeId(1), NodeId(2), vec![i]).unwrap();
        }
        let mut delivered = 0;
        while net.step().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 20, "every message arrives twice");
        assert_eq!(net.stats().messages_duplicated, 10);
        assert_eq!(net.stats().messages_sent, 10);
        assert!(net.stats().accounts_for_every_send(net.in_flight()));
    }

    #[test]
    fn reordering_breaks_fifo() {
        let cfg =
            NetworkConfig::new(22).with_default_link(LinkConfig::new().reorder_probability(0.5));
        let mut net = SimNet::new(cfg);
        net.add_node(NodeId(1)).unwrap();
        net.add_node(NodeId(2)).unwrap();
        for i in 0..50u8 {
            net.send(NodeId(1), NodeId(2), vec![i]).unwrap();
        }
        let mut order = Vec::new();
        while let Some(d) = net.step() {
            order.push(d.payload[0]);
        }
        assert_eq!(order.len(), 50, "reordering never loses messages");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "half the traffic held back must shuffle");
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn crashed_nodes_drop_traffic_until_restart() {
        let mut net = three_node_net(23);
        // One message already on the wire when the destination crashes.
        net.send(NodeId(1), NodeId(2), vec![1]).unwrap();
        net.crash_node(NodeId(2)).unwrap();
        assert!(net.is_down(NodeId(2)));
        // Sends to and from a crashed node are dropped at the source.
        assert_eq!(net.send(NodeId(1), NodeId(2), vec![2]).unwrap(), None);
        assert_eq!(net.send(NodeId(2), NodeId(3), vec![3]).unwrap(), None);
        // Unrelated links are unaffected.
        assert!(net.send(NodeId(1), NodeId(3), vec![4]).unwrap().is_some());
        // Pumping delivers only the 1→3 message: the in-flight 1→2 message
        // arrives at a dead socket and is dropped there.
        let mut delivered = Vec::new();
        while let Some(d) = net.step() {
            delivered.push(d.dst);
        }
        assert_eq!(delivered, vec![NodeId(3)]);
        assert_eq!(net.stats().messages_dropped, 3);
        assert!(net.stats().accounts_for_every_send(net.in_flight()));
        // After restart the link works again.
        net.restart_node(NodeId(2)).unwrap();
        assert!(!net.is_down(NodeId(2)));
        assert!(net.send(NodeId(1), NodeId(2), vec![5]).unwrap().is_some());
        assert_eq!(net.step().unwrap().dst, NodeId(2));
        assert!(matches!(
            net.crash_node(NodeId(9)),
            Err(NetError::UnknownNode(_))
        ));
        assert!(matches!(
            net.restart_node(NodeId(9)),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn run_until_skips_crashed_destinations_within_horizon() {
        let mut net = three_node_net(24);
        net.send(NodeId(1), NodeId(2), vec![1]).unwrap();
        net.send(NodeId(1), NodeId(3), vec![2]).unwrap();
        net.crash_node(NodeId(2)).unwrap();
        let out = net.run_until(SimTime::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(3));
        assert_eq!(net.stats().messages_dropped, 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed| {
            let cfg = NetworkConfig::new(seed).with_default_link(
                LinkConfig::new()
                    .jitter_us(2_000)
                    .loss_probability(0.1)
                    .duplicate_probability(0.2)
                    .reorder_probability(0.3),
            );
            let mut net = SimNet::new(cfg);
            net.add_node(NodeId(1)).unwrap();
            net.add_node(NodeId(2)).unwrap();
            for i in 0..100u8 {
                net.send(NodeId(1), NodeId(2), vec![i]).unwrap();
            }
            let mut arrivals = Vec::new();
            while let Some(d) = net.step() {
                arrivals.push((d.at, d.payload));
            }
            (arrivals, net.stats().clone())
        };
        assert_eq!(run(31), run(31));
        assert_ne!(run(31), run(32));
        let (_, stats) = run(31);
        assert!(stats.accounts_for_every_send(0));
    }

    #[test]
    fn stats_track_links() {
        let mut net = three_node_net(8);
        net.send(NodeId(1), NodeId(2), vec![0u8; 7]).unwrap();
        net.send(NodeId(1), NodeId(2), vec![0u8; 3]).unwrap();
        net.send(NodeId(2), NodeId(3), vec![0u8; 5]).unwrap();
        while net.step().is_some() {}
        let s = net.stats();
        assert_eq!(s.per_link[&(NodeId(1), NodeId(2))], (2, 10));
        assert_eq!(s.per_link[&(NodeId(2), NodeId(3))], (1, 5));
        assert_eq!(s.bytes_delivered, 15);
        assert_eq!(s.delivery_ratio(), 1.0);
    }
}
