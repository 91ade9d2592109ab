//! The standby instance and the binlog replication replica.
//!
//! **Standby** (Figure 2, steps 3–5): receives the primary's block writes
//! and persists them through its *own* EBS volume + mirror before acking —
//! the cross-AZ synchronous leg of the mirrored configuration.
//!
//! **Binlog replica** (Table 4 / Figure 11): receives committed
//! transactions' binlog events and applies them **single-threaded**, the
//! classic MySQL replication architecture. Its apply capacity is finite;
//! once the primary commits faster than the replica applies, the queue —
//! and therefore the lag — grows without bound ("the replica lag in MySQL
//! grows from under a second to 300 seconds").

use std::collections::VecDeque;

use aurora_sim::hash::FxHashMap as HashMap;

use aurora_sim::{name, Actor, ActorEvent, Ctx, NodeId, SimDuration, Tag};

use crate::wire::*;

const TAG_APPLY: Tag = 1;

/// The standby instance: forwards shipped blocks to its EBS chain.
pub struct StandbyInstance {
    ebs: NodeId,
    /// req from primary -> (primary node, primary's req id)
    pending: HashMap<u64, (NodeId, u64)>,
    next_req: u64,
}

impl StandbyInstance {
    pub fn new(ebs: NodeId) -> Self {
        StandbyInstance {
            ebs,
            pending: HashMap::default(),
            next_req: 1,
        }
    }
}

impl Actor for StandbyInstance {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        if let ActorEvent::Message { from, msg } = ev {
            let msg = match msg.downcast::<StandbyShip>() {
                Ok(ship) => {
                    let req_id = self.next_req;
                    self.next_req += 1;
                    self.pending.insert(req_id, (from, ship.req_id));
                    ctx.send(
                        self.ebs,
                        EbsAppend {
                            req_id,
                            bytes: ship.bytes,
                            records: Vec::new(),
                            binlog: false,
                        },
                    );
                    return;
                }
                Err(m) => m,
            };
            if let Ok(ack) = msg.downcast::<EbsAck>() {
                if let Some((primary, prim_req)) = self.pending.remove(&ack.req_id) {
                    ctx.send(primary, StandbyAck { req_id: prim_req });
                }
            }
        }
    }

    fn on_crash(&mut self) {
        self.pending.clear();
    }
}

/// Single-threaded binlog-apply replica.
pub struct BinlogReplica {
    /// Statement apply cost (single thread).
    apply_cost: SimDuration,
    queue: VecDeque<BinlogEvent>,
    busy: bool,
    /// Applied transaction count (inspection).
    pub applied: u64,
    /// Most recent measured lag (inspection).
    pub last_lag: SimDuration,
}

impl BinlogReplica {
    pub fn new(apply_cost: SimDuration) -> Self {
        BinlogReplica {
            apply_cost,
            queue: VecDeque::new(),
            busy: false,
            applied: 0,
            last_lag: SimDuration::ZERO,
        }
    }

    /// Current queue depth (inspection).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy || self.queue.is_empty() {
            return;
        }
        self.busy = true;
        ctx.set_timer(self.apply_cost, TAG_APPLY);
    }
}

impl Actor for BinlogReplica {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Message { msg, .. } => {
                if let Ok(event) = msg.downcast::<BinlogEvent>() {
                    self.queue.push_back(event);
                    self.pump(ctx);
                }
            }
            ActorEvent::Timer { tag: TAG_APPLY } => {
                self.busy = false;
                if let Some(event) = self.queue.pop_front() {
                    self.applied += 1;
                    let lag = ctx.now().since(event.committed_at);
                    self.last_lag = lag;
                    ctx.record(name!("mysql.replica_lag_ns"), lag.nanos());
                    ctx.inc(name!("mysql.replica_applied"), 1);
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        self.queue.clear();
        self.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::{NodeOpts, Probe, Relay, Sim, SimTime, Zone};

    #[test]
    fn replica_lag_grows_when_overloaded() {
        let mut sim = Sim::new(5);
        let client = sim.add_node("c", Zone(0), Box::new(Probe::new()), NodeOpts::default());
        // 1ms per apply = 1000/s capacity
        let rep = sim.add_node(
            "rep",
            Zone(1),
            Box::new(BinlogReplica::new(SimDuration::from_millis(1))),
            NodeOpts::default(),
        );
        // feed 2000 events in one burst (2x capacity for a second)
        for i in 0..2_000u64 {
            sim.tell(
                client,
                Relay::new(
                    rep,
                    BinlogEvent {
                        seq: i,
                        bytes: 128,
                        committed_at: SimTime::ZERO,
                    },
                ),
            );
        }
        sim.run_for(SimDuration::from_millis(500));
        let r = sim.actor::<BinlogReplica>(rep);
        assert!(r.applied > 400 && r.applied < 600, "applied {}", r.applied);
        assert!(r.backlog() > 1_000, "backlog {}", r.backlog());
        // lag of the last applied event ≈ elapsed time (queueing dominated)
        assert!(r.last_lag > SimDuration::from_millis(400));
        sim.run_for(SimDuration::from_secs(2));
        let r = sim.actor::<BinlogReplica>(rep);
        assert_eq!(r.applied, 2_000);
        let lag = sim.metrics.histogram_total("mysql.replica_lag_ns");
        assert!(lag.max() > SimDuration::from_secs(1).nanos());
    }

    #[test]
    fn replica_keeps_up_under_capacity() {
        let mut sim = Sim::new(6);
        let client = sim.add_node("c", Zone(0), Box::new(Probe::new()), NodeOpts::default());
        let rep = sim.add_node(
            "rep",
            Zone(1),
            Box::new(BinlogReplica::new(SimDuration::from_micros(100))),
            NodeOpts::default(),
        );
        // 10 events spread over time, well under 10K/s capacity
        for i in 0..10u64 {
            sim.run_for(SimDuration::from_millis(10));
            let now = sim.now();
            sim.tell(
                client,
                Relay::new(
                    rep,
                    BinlogEvent {
                        seq: i,
                        bytes: 128,
                        committed_at: now,
                    },
                ),
            );
        }
        sim.run_for(SimDuration::from_millis(50));
        let r = sim.actor::<BinlogReplica>(rep);
        assert_eq!(r.applied, 10);
        let lag = sim.metrics.histogram_total("mysql.replica_lag_ns");
        assert!(
            lag.p95() < SimDuration::from_millis(5).nanos(),
            "p95 {}us",
            lag.p95() / 1000
        );
    }
}
