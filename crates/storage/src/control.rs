//! The storage control plane.
//!
//! The paper (§5) runs this on RDS agents, Amazon DynamoDB (volume
//! metadata, "so that there is no confusion over the durability of
//! truncations"), and the Simple Workflow Service ("orchestrating
//! long-running operations, e.g. … a repair (re-replication) operation
//! following a storage node failure"). Here it is a single actor:
//!
//! * collects heartbeats from storage nodes and detects failures,
//! * orchestrates segment repair: picks a spare node in the lost replica's
//!   AZ, asks a healthy peer to ship the segment, installs it, and bumps
//!   the PG membership,
//! * broadcasts membership updates to the database instances and the PG's
//!   members (refreshing gossip peer lists),
//! * durably remembers the latest truncation range and periodically
//!   re-delivers it, so segments that were down during a recovery still
//!   learn about annulled LSN ranges.

use std::collections::HashMap;

use aurora_log::SegmentId;
use aurora_quorum::TruncationRange;
use aurora_sim::{name, Actor, ActorEvent, Ctx, NodeId, SimDuration, SimTime, SpanId, Tag, Zone};

use crate::volume::PgMembership;
use crate::wire::*;

const TAG_SWEEP: Tag = 1;

/// Control plane configuration.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// How often to sweep for dead nodes / re-deliver truncations.
    pub sweep_interval: SimDuration,
    /// A node is presumed failed after this much heartbeat silence.
    pub failure_timeout: SimDuration,
    /// Spare storage nodes per zone, consumed by repairs.
    pub spares: Vec<(NodeId, Zone)>,
    /// Nodes (database instances) that must learn about membership changes.
    pub watchers: Vec<NodeId>,
    /// Zone of every storage node (for AZ-aware spare selection).
    pub zones: HashMap<NodeId, Zone>,
    /// A repair job that has not reported [`RepairDone`] within this
    /// deadline is abandoned and requeued with a fresh donor/spare
    /// selection (the donor or replacement may have died mid-copy, in
    /// which case the completion will never arrive). `None` disables
    /// supervision (jobs can then wedge forever — only for tests that
    /// deliberately provoke the unsupervised behavior).
    pub repair_timeout: Option<SimDuration>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            sweep_interval: SimDuration::from_millis(200),
            failure_timeout: SimDuration::from_millis(600),
            spares: Vec::new(),
            watchers: Vec::new(),
            zones: HashMap::new(),
            repair_timeout: Some(SimDuration::from_secs(1)),
        }
    }
}

struct RepairJob {
    segment: SegmentId,
    replacement: NodeId,
    donor: NodeId,
    /// Zone the spare was drawn from, so an abandoned job returns it to
    /// the pool under the right AZ.
    spare_zone: Zone,
    started_at: SimTime,
    /// Open `control.repair` trace span (NONE when tracing is off).
    /// An abandoned job's span is closed by the expiry sweep.
    span: SpanId,
}

/// The control plane actor.
pub struct ControlPlane {
    cfg: ControlConfig,
    memberships: Vec<PgMembership>,
    last_seen: HashMap<NodeId, SimTime>,
    in_repair: Vec<RepairJob>,
    truncation: Option<TruncationRange>,
    started_at: SimTime,
    /// Count of repairs completed (inspection).
    pub repairs_completed: u64,
    /// Count of repair jobs abandoned at their deadline and requeued.
    pub repairs_requeued: u64,
    /// Count of once-failed nodes reclaimed into the spare pool.
    pub spares_reclaimed: u64,
    /// Count of segments proactively fenced off a live-but-suspect node
    /// (engine [`SuspectReport`]s that started a repair).
    pub fences: u64,
}

impl ControlPlane {
    pub fn new(cfg: ControlConfig, memberships: Vec<PgMembership>) -> Self {
        ControlPlane {
            cfg,
            memberships,
            last_seen: HashMap::new(),
            in_repair: Vec::new(),
            truncation: None,
            started_at: SimTime::ZERO,
            repairs_completed: 0,
            repairs_requeued: 0,
            spares_reclaimed: 0,
            fences: 0,
        }
    }

    /// Inspection: current membership of a PG.
    pub fn membership(&self, pg: aurora_log::PgId) -> Option<&PgMembership> {
        self.memberships.iter().find(|m| m.pg == pg)
    }

    /// Inspection: every PG's current membership.
    pub fn memberships(&self) -> &[PgMembership] {
        &self.memberships
    }

    /// Inspection: number of repair jobs currently in flight.
    pub fn in_repair_count(&self) -> usize {
        self.in_repair.len()
    }

    /// Inspection: in-flight repairs as `(segment, donor, replacement)`.
    pub fn repair_jobs(&self) -> Vec<(SegmentId, NodeId, NodeId)> {
        self.in_repair
            .iter()
            .map(|j| (j.segment, j.donor, j.replacement))
            .collect()
    }

    /// Inspection: nodes currently available as spares.
    pub fn spare_pool(&self) -> Vec<NodeId> {
        self.cfg.spares.iter().map(|(n, _)| *n).collect()
    }

    /// All storage nodes currently holding any replica.
    fn member_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .memberships
            .iter()
            .flat_map(|m| m.slots.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    fn broadcast_membership(&self, ctx: &mut Ctx<'_>, pg: aurora_log::PgId) {
        let Some(m) = self.membership(pg) else { return };
        for w in &self.cfg.watchers {
            ctx.send(
                *w,
                MembershipUpdate {
                    membership: m.clone(),
                },
            );
        }
        // refresh gossip peer lists on every member
        for (replica, node) in m.slots.iter().enumerate() {
            ctx.send(
                *node,
                SegmentPeers {
                    segment: SegmentId::new(pg, replica as u8),
                    peers: m.peers_of(replica as u8),
                },
            );
        }
    }

    /// Abandon repair jobs that blew their deadline. The donor or the
    /// replacement died mid-copy, so `RepairDone` will never arrive; drop
    /// the job (the dead-member scan below immediately requeues the
    /// segment with a fresh donor/spare selection). A still-live
    /// replacement goes back into the spare pool; a dead one is left to
    /// the heartbeat-reclaim path.
    fn expire_stale_repairs(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let Some(deadline) = self.cfg.repair_timeout else {
            return;
        };
        let mut expired = Vec::new();
        self.in_repair.retain(|j| {
            if now.since(j.started_at) > deadline {
                expired.push((j.replacement, j.spare_zone, j.span, j.segment));
                false
            } else {
                true
            }
        });
        for (replacement, zone, span, segment) in expired {
            ctx.trace_end(name!("control.repair"), span, segment.pg.0 as u64, 0);
            self.repairs_requeued += 1;
            ctx.inc(name!("control.repairs_requeued"), 1);
            let seen = self
                .last_seen
                .get(&replacement)
                .copied()
                .unwrap_or(self.started_at);
            if now.since(seen) <= self.cfg.failure_timeout {
                self.cfg.spares.push((replacement, zone));
            }
        }
    }

    /// A heartbeat arrived from a node that hosts nothing and is not mid-
    /// repair: a once-failed member whose segments were repaired away has
    /// come back cold. Return it to the spare pool so long chaos runs do
    /// not bleed the fleet dry.
    fn maybe_reclaim_spare(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let Some(zone) = self.cfg.zones.get(&node).copied() else {
            return;
        };
        let hosts_something = self.memberships.iter().any(|m| m.slots.contains(&node));
        let mid_repair = self.in_repair.iter().any(|j| j.replacement == node);
        let already_spare = self.cfg.spares.iter().any(|(n, _)| *n == node);
        if hosts_something || mid_repair || already_spare {
            return;
        }
        self.cfg.spares.push((node, zone));
        self.spares_reclaimed += 1;
        ctx.inc(name!("control.spares_reclaimed"), 1);
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Grace period at startup before declaring anything dead.
        if now.since(self.started_at) < self.cfg.failure_timeout {
            return;
        }
        self.expire_stale_repairs(ctx, now);
        let dead: Vec<NodeId> = self
            .member_nodes()
            .into_iter()
            .filter(|n| {
                let seen = self.last_seen.get(n).copied().unwrap_or(self.started_at);
                now.since(seen) > self.cfg.failure_timeout
            })
            .collect();
        for node in dead {
            self.repair_node(ctx, node);
        }
        // Re-deliver memberships: the broadcast at repair completion is a
        // one-shot that packet chaos can drop, which would leave the writer
        // shipping to a replaced node forever while the repaired-in spare
        // rots at its snapshot SCL. Same idiom as the truncation range
        // below; receivers ignore no-op updates.
        let pgs: Vec<aurora_log::PgId> = self.memberships.iter().map(|m| m.pg).collect();
        for pg in pgs {
            self.broadcast_membership(ctx, pg);
        }
        // Re-deliver the durable truncation range (segments that were down
        // during recovery must still learn it).
        if let Some(range) = self.truncation {
            for m in self.memberships.clone() {
                for (replica, node) in m.slots.iter().enumerate() {
                    ctx.send(
                        *node,
                        Truncate {
                            segment: SegmentId::new(m.pg, replica as u8),
                            range,
                        },
                    );
                }
            }
        }
    }

    /// Re-replicate every segment hosted by a failed node onto spares
    /// (§2.3: "the quorum will be quickly repaired by migration to some
    /// other colder node in the fleet").
    fn repair_node(&mut self, ctx: &mut Ctx<'_>, failed: NodeId) {
        let segments: Vec<SegmentId> = self
            .memberships
            .iter()
            .filter_map(|m| m.slot_of(failed).map(|slot| SegmentId::new(m.pg, slot)))
            .collect();
        for segment in segments {
            self.repair_segment(ctx, segment, failed);
        }
    }

    /// Queue the re-replication of one segment away from `bad` (which may
    /// be hard-dead or merely fenced as a gray suspect). Returns whether a
    /// repair job actually started.
    fn repair_segment(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId, bad: NodeId) -> bool {
        if self.in_repair.iter().any(|j| j.segment == segment) {
            return false;
        }
        let bad_zone = self.cfg.zones.get(&bad).copied();
        // pick a spare, preferring the bad replica's AZ so the layout
        // invariant (2 per AZ) is preserved
        let spare_idx = self
            .cfg
            .spares
            .iter()
            .position(|(_, z)| Some(*z) == bad_zone)
            .or({
                if self.cfg.spares.is_empty() {
                    None
                } else {
                    Some(0)
                }
            });
        let Some(idx) = spare_idx else { return false };
        let (replacement, spare_zone) = self.cfg.spares.remove(idx);
        let now = ctx.now();
        let Some(m) = self.memberships.iter().find(|m| m.pg == segment.pg) else {
            self.cfg.spares.push((replacement, spare_zone));
            return false;
        };
        // healthy peer to copy from: any other alive slot
        let donor = m.slots.iter().copied().filter(|n| *n != bad).find(|n| {
            let seen = self.last_seen.get(n).copied().unwrap_or(self.started_at);
            now.since(seen) <= self.cfg.failure_timeout
        });
        let Some(donor) = donor else {
            // no live donor; return the spare and hope the next sweep
            // finds one (the PG is in serious trouble)
            self.cfg.spares.push((replacement, spare_zone));
            return false;
        };
        let donor_slot = m.slot_of(donor).expect("donor is a member");
        let src_segment = SegmentId::new(segment.pg, donor_slot);
        // optimistic membership update (installed on RepairDone)
        let span = ctx.trace_begin(
            name!("control.repair"),
            SpanId::NONE,
            segment.pg.0 as u64,
            segment.replica as u64,
        );
        self.in_repair.push(RepairJob {
            segment,
            replacement,
            donor,
            spare_zone,
            started_at: now,
            span,
        });
        ctx.inc(name!("control.repairs_started"), 1);
        ctx.send(
            donor,
            RepairFetchReq {
                src_segment,
                dest_segment: segment,
                dest: replacement,
            },
        );
        true
    }

    /// The engine reported a member that is alive but persistently gray
    /// (slow acks, nack storms). §4.1: treat it like a failed disk — fence
    /// the segment and migrate it to a spare *before* the node dies. The
    /// node itself keeps heartbeating; once its last segment is repaired
    /// away it is reclaimed into the spare pool by the heartbeat path.
    fn on_suspect(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId, node: NodeId) {
        // the report may race a completed repair: fence only if the node
        // still holds that slot
        let holds = self
            .memberships
            .iter()
            .any(|m| m.pg == segment.pg && m.slots.get(segment.replica as usize) == Some(&node));
        if !holds {
            return;
        }
        // Spare headroom: a suspect node is still serving (slowly); a dead
        // one is not. Never fence below the pool a single hard death needs,
        // or a long gray spell bleeds the fleet dry and the next real
        // failure finds no spare to repair onto.
        let mut hosted: HashMap<NodeId, usize> = HashMap::new();
        for m in &self.memberships {
            for n in &m.slots {
                *hosted.entry(*n).or_default() += 1;
            }
        }
        let reserve = hosted.values().copied().max().unwrap_or(0);
        if self.cfg.spares.len() <= reserve {
            return;
        }
        if self.repair_segment(ctx, segment, node) {
            self.fences += 1;
            ctx.inc(name!("control.fences"), 1);
            ctx.trace_instant(
                name!("control.fence"),
                SpanId::NONE,
                segment.pg.0 as u64,
                segment.replica as u64,
            );
        }
    }

    fn on_repair_done(&mut self, ctx: &mut Ctx<'_>, from: NodeId, segment: SegmentId) {
        let Some(pos) = self
            .in_repair
            .iter()
            .position(|j| j.segment == segment && j.replacement == from)
        else {
            return;
        };
        let job = self.in_repair.remove(pos);
        ctx.trace_end(
            name!("control.repair"),
            job.span,
            segment.pg.0 as u64,
            segment.replica as u64,
        );
        if let Some(m) = self.memberships.iter_mut().find(|m| m.pg == segment.pg) {
            m.slots[segment.replica as usize] = from;
        }
        self.repairs_completed += 1;
        ctx.inc(name!("control.repairs_completed"), 1);
        self.last_seen.insert(from, ctx.now());
        self.broadcast_membership(ctx, segment.pg);
    }
}

impl Actor for ControlPlane {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start | ActorEvent::Restarted => {
                self.started_at = ctx.now();
                // Push initial peer lists to every member.
                for m in self.memberships.clone() {
                    self.broadcast_membership(ctx, m.pg);
                }
                ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
            }
            ActorEvent::Timer { tag: TAG_SWEEP } => {
                self.sweep(ctx);
                ctx.gauge(
                    name!("control.repairs_in_flight"),
                    self.in_repair_count() as u64,
                );
                ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
            }
            ActorEvent::Timer { .. } => {}
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<Heartbeat>() {
                    Ok(_) => {
                        self.last_seen.insert(from, ctx.now());
                        self.maybe_reclaim_spare(ctx, from);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<SuspectReport>() {
                    Ok(sr) => {
                        self.on_suspect(ctx, sr.segment, sr.node);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<RepairDone>() {
                    Ok(done) => {
                        self.on_repair_done(ctx, from, done.segment);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<MembershipUpdate>() {
                    Ok(mu) => {
                        // volume growth: adopt (or update) the PG's membership
                        match self
                            .memberships
                            .iter_mut()
                            .find(|m| m.pg == mu.membership.pg)
                        {
                            Some(m) => *m = mu.membership,
                            None => self.memberships.push(mu.membership),
                        }
                        return;
                    }
                    Err(m) => m,
                };
                // Database instances durably record the recovery truncation
                // here (the paper's DynamoDB role).
                if let Ok(t) = msg.downcast::<Truncate>() {
                    if self.truncation.is_none_or(|cur| t.range.epoch > cur.epoch) {
                        self.truncation = Some(t.range);
                    }
                }
            }
            ActorEvent::DiskDone { .. } => {}
        }
    }

    fn on_crash(&mut self) {
        // Control state is durable in the paper (DynamoDB); keep it all.
        self.last_seen.clear();
    }
}
