//! The simulated network.
//!
//! Models what §1 of the paper calls the central constraint: "the network
//! between the database tier requesting I/Os and the storage tier that
//! performs these I/Os". Links are characterized by a latency distribution
//! and a loss probability; the default topology distinguishes loopback,
//! intra-AZ, and inter-AZ links (AZs are "connected to other AZs in the
//! region through low latency links" — §2.1).
//!
//! All traffic is counted per message class, which is how the Table 1
//! network-IO experiment reads its numbers back out.

use std::collections::HashMap;

use crate::dist::Dist;
use crate::metrics::{lookup, Name};
use crate::rng::SimRng;
use crate::sim::{NodeId, Zone};
use crate::time::{SimDuration, SimTime};

/// Characteristics of one directed link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// One-way delivery latency.
    pub latency: Dist,
    /// Probability that a message is silently dropped (background noise of
    /// "hard and soft failures", §1).
    pub loss: f64,
}

impl LinkSpec {
    pub fn new(latency: Dist) -> Self {
        LinkSpec { latency, loss: 0.0 }
    }

    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }
}

/// Topology-level policy: which [`LinkSpec`] applies to a given pair of
/// nodes, based on their zones, with optional per-pair overrides.
#[derive(Debug, Clone)]
pub struct NetPolicy {
    /// Node talking to itself (engine-internal messages).
    pub loopback: LinkSpec,
    /// Same availability zone.
    pub intra_zone: LinkSpec,
    /// Different availability zones.
    pub inter_zone: LinkSpec,
    /// Per-ordered-pair override (used to make one path slow in ablations).
    overrides: HashMap<(NodeId, NodeId), LinkSpec>,
}

impl Default for NetPolicy {
    /// Defaults loosely modeled on intra-region AWS: ~50µs in-AZ RTT/2 with
    /// jitter, ~600µs cross-AZ, with heavy log-normal tails.
    fn default() -> Self {
        NetPolicy {
            loopback: LinkSpec::new(Dist::const_micros(2)),
            intra_zone: LinkSpec::new(Dist::lognormal_micros(50, 0.35)),
            inter_zone: LinkSpec::new(Dist::lognormal_micros(300, 0.35)),
            overrides: HashMap::new(),
        }
    }
}

impl NetPolicy {
    /// Install a per-pair override (directed).
    pub fn set_override(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) {
        self.overrides.insert((src, dst), spec);
    }

    /// Remove a per-pair override.
    pub fn clear_override(&mut self, src: NodeId, dst: NodeId) {
        self.overrides.remove(&(src, dst));
    }

    /// Resolve the spec for a (src, dst) pair given their zones.
    pub fn spec(&self, src: NodeId, dst: NodeId, src_zone: Zone, dst_zone: Zone) -> &LinkSpec {
        if let Some(s) = self.overrides.get(&(src, dst)) {
            return s;
        }
        if src == dst {
            &self.loopback
        } else if src_zone == dst_zone {
            &self.intra_zone
        } else {
            &self.inter_zone
        }
    }

    /// Sample a delivery decision: `None` = dropped, `Some(latency)` =
    /// delivered after the sampled latency.
    pub fn sample(
        &self,
        src: NodeId,
        dst: NodeId,
        src_zone: Zone,
        dst_zone: Zone,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let spec = self.spec(src, dst, src_zone, dst_zone);
        if rng.chance(spec.loss) {
            None
        } else {
            Some(spec.latency.sample(rng))
        }
    }
}

/// Per-class and per-node traffic accounting.
///
/// This is on the per-packet fast path (every `Ctx::send` lands here), so
/// message classes are [`Name`] descriptors indexing a dense table, and
/// per-node tallies live in dense vectors indexed by node id.
/// [`crate::sim::EXTERNAL`] traffic (injected client requests) gets a
/// dedicated overflow cell instead of a `u32::MAX`-sized table.
#[derive(Debug, Default)]
pub struct NetStats {
    /// class id -> (packets, bytes)
    by_class: Vec<(u64, u64)>,
    /// node id -> (packets, bytes) sent; grown on demand.
    sent_by_node: Vec<(u64, u64)>,
    /// node id -> (packets, bytes) received; grown on demand.
    recv_by_node: Vec<(u64, u64)>,
    /// Traffic attributed to [`crate::sim::EXTERNAL`].
    sent_external: (u64, u64),
    recv_external: (u64, u64),
    /// totals
    pub packets: u64,
    pub bytes: u64,
    pub dropped: u64,
    /// Packets dropped / duplicated / delayed by an active
    /// [`crate::fault::PacketChaos`] overlay (drops also count in
    /// `dropped`).
    pub chaos_dropped: u64,
    pub chaos_duplicated: u64,
    pub chaos_delayed: u64,
}

/// Sentinel matching [`crate::sim::EXTERNAL`] without a circular import
/// headache at definition order; asserted equal in tests.
const EXTERNAL_NODE: NodeId = u32::MAX;

#[inline]
fn bump(cell: &mut (u64, u64), bytes: u64) {
    cell.0 += 1;
    cell.1 += bytes;
}

impl NetStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn on_send(&mut self, src: NodeId, class: &Name, bytes: usize) {
        let i = class.id() as usize;
        if i >= self.by_class.len() {
            self.by_class.resize(i + 1, (0, 0));
        }
        bump(&mut self.by_class[i], bytes as u64);
        if src == EXTERNAL_NODE {
            bump(&mut self.sent_external, bytes as u64);
        } else {
            let s = src as usize;
            if s >= self.sent_by_node.len() {
                self.sent_by_node.resize(s + 1, (0, 0));
            }
            bump(&mut self.sent_by_node[s], bytes as u64);
        }
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    pub(crate) fn on_recv(&mut self, dst: NodeId, bytes: usize) {
        if dst == EXTERNAL_NODE {
            bump(&mut self.recv_external, bytes as u64);
        } else {
            let d = dst as usize;
            if d >= self.recv_by_node.len() {
                self.recv_by_node.resize(d + 1, (0, 0));
            }
            bump(&mut self.recv_by_node[d], bytes as u64);
        }
    }

    pub(crate) fn on_drop(&mut self) {
        self.dropped += 1;
    }

    fn class_cell(&self, class: &str) -> (u64, u64) {
        lookup(class)
            .and_then(|i| self.by_class.get(i as usize).copied())
            .unwrap_or((0, 0))
    }

    /// Packets sent in this class.
    pub fn class_packets(&self, class: &'static str) -> u64 {
        self.class_cell(class).0
    }

    /// Bytes sent in this class.
    pub fn class_bytes(&self, class: &'static str) -> u64 {
        self.class_cell(class).1
    }

    /// (packets, bytes) sent by a node.
    pub fn sent_by(&self, node: NodeId) -> (u64, u64) {
        if node == EXTERNAL_NODE {
            return self.sent_external;
        }
        self.sent_by_node
            .get(node as usize)
            .copied()
            .unwrap_or((0, 0))
    }

    /// (packets, bytes) received by a node.
    pub fn recv_by(&self, node: NodeId) -> (u64, u64) {
        if node == EXTERNAL_NODE {
            return self.recv_external;
        }
        self.recv_by_node
            .get(node as usize)
            .copied()
            .unwrap_or((0, 0))
    }

    /// Reset all counters (warm-up boundary).
    pub fn clear(&mut self) {
        self.by_class.iter_mut().for_each(|c| *c = (0, 0));
        self.sent_by_node.iter_mut().for_each(|c| *c = (0, 0));
        self.recv_by_node.iter_mut().for_each(|c| *c = (0, 0));
        self.sent_external = (0, 0);
        self.recv_external = (0, 0);
        self.packets = 0;
        self.bytes = 0;
        self.dropped = 0;
        self.chaos_dropped = 0;
        self.chaos_duplicated = 0;
        self.chaos_delayed = 0;
    }
}

/// An in-flight delivery (used by the kernel's event queue).
#[derive(Debug)]
pub struct Delivery {
    pub at: SimTime,
    pub src: NodeId,
    pub dst: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolution() {
        let mut p = NetPolicy::default();
        let z0 = Zone(0);
        let z1 = Zone(1);
        // loopback
        let lb = p.spec(3, 3, z0, z0).latency.median();
        assert!(lb < SimDuration::from_micros(10));
        // intra vs inter
        let intra = p.spec(1, 2, z0, z0).latency.median();
        let inter = p.spec(1, 2, z0, z1).latency.median();
        assert!(inter > intra);
        // override wins
        p.set_override(1, 2, LinkSpec::new(Dist::const_millis(100)));
        assert_eq!(
            p.spec(1, 2, z0, z0).latency.median(),
            SimDuration::from_millis(100)
        );
        p.clear_override(1, 2);
        assert!(p.spec(1, 2, z0, z0).latency.median() < SimDuration::from_millis(1));
    }

    #[test]
    fn lossy_link_drops() {
        let mut p = NetPolicy {
            intra_zone: LinkSpec::new(Dist::const_micros(10)).with_loss(1.0),
            ..Default::default()
        };
        let mut rng = SimRng::new(1);
        assert!(p.sample(1, 2, Zone(0), Zone(0), &mut rng).is_none());
        p.intra_zone.loss = 0.0;
        assert!(p.sample(1, 2, Zone(0), Zone(0), &mut rng).is_some());
    }

    #[test]
    fn stats_accounting() {
        let mut s = NetStats::new();
        s.on_send(1, crate::name!("log_write"), 100);
        s.on_send(1, crate::name!("log_write"), 50);
        s.on_send(2, crate::name!("page_read"), 4096);
        s.on_recv(3, 100);
        s.on_drop();
        assert_eq!(s.class_packets("log_write"), 2);
        assert_eq!(s.class_bytes("log_write"), 150);
        assert_eq!(s.class_packets("nope"), 0);
        assert_eq!(s.sent_by(1), (2, 150));
        assert_eq!(s.recv_by(3), (1, 100));
        assert_eq!(s.packets, 3);
        assert_eq!(s.bytes, 4246);
        assert_eq!(s.dropped, 1);
        s.clear();
        assert_eq!(s.packets, 0);
        assert_eq!(s.sent_by(1), (0, 0));
    }

    #[test]
    fn external_traffic_has_its_own_cell() {
        assert_eq!(EXTERNAL_NODE, crate::sim::EXTERNAL);
        let mut s = NetStats::new();
        s.on_send(EXTERNAL_NODE, crate::name!("client"), 64);
        s.on_recv(EXTERNAL_NODE, 32);
        assert_eq!(s.sent_by(EXTERNAL_NODE), (1, 64));
        assert_eq!(s.recv_by(EXTERNAL_NODE), (1, 32));
        assert_eq!(s.packets, 1);
        assert_eq!(s.class_packets("client"), 1);
    }
}
