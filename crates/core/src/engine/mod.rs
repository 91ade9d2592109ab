//! The Aurora writer instance.
//!
//! [`EngineActor`] is a thin dispatcher over the writer's duties, each in
//! its own module along the paper's seams:
//!
//! * [`txn`] — the executor: connections execute transactions against
//!   the B+-tree in the buffer cache; every mutation becomes redo records
//!   (the only thing that ever crosses the network to storage, §3.2);
//!   reads are served at a read point from a single complete segment
//!   (§4.2.3). Its statement-level pieces live in [`exec`], shared with
//!   the baseline engine;
//! * [`shipper`] — staged redo ships to the 4/6 quorum under the
//!   group-commit policy, lingering batches are re-shipped, and acks
//!   advance the VDL that completes commits asynchronously (§4.2);
//! * [`health`] — slow storage members are treated like dead ones: reads
//!   avoid them and persistent offenders are reported for repair
//!   (§2.2/§4.1);
//! * [`recovery`] — crash recovery rebuilds the durable point from a read
//!   quorum, truncates with a fresh epoch, and hands back the in-flight
//!   transactions to roll back with logical undo (§4.3).

use std::collections::{BTreeMap, VecDeque};

use aurora_log::LAL_DEFAULT;
use aurora_log::{mtr::CplMode, Lsn, LsnAllocator, Page, PageId, PgId, SegmentId};
use aurora_quorum::{QuorumConfig, VolumeEpoch};
use aurora_sim::hash::{FxHashMap as HashMap, FxHashSet as HashSet};
use aurora_sim::{name, Actor, ActorEvent, Ctx, Msg, NodeId, SimDuration, SimTime, Tag};
use aurora_storage::wire as swire;
use aurora_storage::{PgMembership, VolumeLayout};

use crate::btree::{BTree, TreeMeta};
use crate::buffer::BufferPool;
use crate::locks::LockTable;
use crate::wire::*;

pub mod exec;
mod health;
mod recovery;
mod shipper;
mod txn;

pub use exec::bootstrap_row;
pub use health::HealthState;
pub use shipper::{RetransmitPolicy, ShipPolicy};

use health::SegmentHealth;
use recovery::Recovery;
use shipper::{LogShipper, ShipReason, Wire};
use txn::{PendingCommit, PendingRead, RunningTxn};

const TAG_FLUSH: Tag = 1;
const TAG_SWEEP: Tag = 2;
const TAG_ZDP_RESUME: Tag = 4;
const TAG_RECOVERY_RESEND: Tag = 5;
const TAG_BOOTSTRAP: Tag = 6;
const TAG_CPU_BASE: Tag = 1 << 48;

/// Period of the engine's sweep: retransmits, health decay, lock and
/// read timeouts.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// Client connection ids must stay below this; higher ids are reserved
/// for the engine's synthetic rollback transactions.
pub const CONN_SYNTHETIC_BASE: u64 = 1 << 40;

/// EC2 instance model (§6.1: the r3 family, each size doubling the last).
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    pub name: &'static str,
    pub vcpus: u32,
    /// Buffer cache capacity in pages.
    pub buffer_pages: usize,
}

impl InstanceSpec {
    pub fn r3(name: &'static str, vcpus: u32, buffer_pages: usize) -> Self {
        InstanceSpec {
            name,
            vcpus,
            buffer_pages,
        }
    }

    /// The five sizes used by Figure 6/7, with cache scaled to vCPUs.
    pub fn r3_family() -> Vec<InstanceSpec> {
        vec![
            InstanceSpec::r3("r3.large", 2, 4_000),
            InstanceSpec::r3("r3.xlarge", 4, 8_000),
            InstanceSpec::r3("r3.2xlarge", 8, 16_000),
            InstanceSpec::r3("r3.4xlarge", 16, 32_000),
            InstanceSpec::r3("r3.8xlarge", 32, 64_000),
        ]
    }

    pub fn r3_8xlarge() -> InstanceSpec {
        InstanceSpec::r3("r3.8xlarge", 32, 64_000)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub instance: InstanceSpec,
    pub quorum: QuorumConfig,
    pub layout: VolumeLayout,
    pub memberships: Vec<PgMembership>,
    /// Read replica nodes receiving the log stream.
    pub replicas: Vec<NodeId>,
    /// Control-plane node: recovery truncations are durably recorded there
    /// (the paper's DynamoDB role) so laggard segments still learn them.
    pub control: Option<NodeId>,
    /// Fixed row payload size.
    pub row_size: usize,
    /// LSN Allocation Limit (§4.2.1).
    pub lal: u64,
    pub cpl_mode: CplMode,
    /// CPU cost of one write statement.
    pub cpu_per_op: SimDuration,
    /// CPU cost of one read statement.
    pub cpu_per_read: SimDuration,
    /// Extra CPU per commit.
    pub cpu_per_commit: SimDuration,
    /// Group-commit window: staged records are shipped at least this often
    /// (the periodic cadence under [`ShipPolicy::FixedInterval`], the
    /// one-shot deadline under [`ShipPolicy::Adaptive`]).
    pub flush_interval: SimDuration,
    /// How the group-commit window closes (see [`ShipPolicy`]).
    pub ship_policy: ShipPolicy,
    /// Adaptive policy only: the pipe counts as idle — staged records ship
    /// with no added delay — while fewer than this many batches are
    /// outstanding (shipped but not yet durable).
    pub ship_pipeline_depth: usize,
    /// How outstanding batches are re-shipped (see [`RetransmitPolicy`]).
    pub retransmit_policy: RetransmitPolicy,
    /// Re-issue a storage read after this long.
    pub read_timeout: SimDuration,
    /// Create the tree and load this many rows at start.
    pub bootstrap_rows: u64,
    /// Start idle as a failover standby: the engine does nothing until a
    /// [`Promote`] message arrives, then recovers the volume and serves.
    pub standby: bool,
}

impl EngineConfig {
    /// Reasonable defaults for tests; experiments override.
    pub fn new(layout: VolumeLayout, memberships: Vec<PgMembership>) -> Self {
        EngineConfig {
            instance: InstanceSpec::r3_8xlarge(),
            quorum: QuorumConfig::aurora(),
            layout,
            memberships,
            replicas: Vec::new(),
            control: None,
            row_size: 96,
            lal: LAL_DEFAULT,
            cpl_mode: CplMode::LastOnly,
            cpu_per_op: SimDuration::from_micros(60),
            cpu_per_read: SimDuration::from_micros(40),
            cpu_per_commit: SimDuration::from_micros(30),
            flush_interval: SimDuration::from_micros(500),
            ship_policy: ShipPolicy::Adaptive,
            ship_pipeline_depth: 4,
            retransmit_policy: RetransmitPolicy::Hedged,
            read_timeout: SimDuration::from_millis(20),
            bootstrap_rows: 0,
            standby: false,
        }
    }
}

/// Externally visible engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    Bootstrapping,
    Ready,
    Recovering,
    Patching,
    /// Idle failover target; promotes on [`Promote`].
    Standby,
}

/// The membership of `pg` (every PG the engine writes has one).
fn membership(memberships: &[PgMembership], pg: PgId) -> &PgMembership {
    memberships
        .iter()
        .find(|m| m.pg == pg)
        .expect("membership for every pg")
}

/// The writer-instance actor.
pub struct EngineActor {
    cfg: EngineConfig,
    tree: BTree,
    status: EngineStatus,
    engine_version: u64,

    // ---- volatile state (rebuilt by recovery) ----
    pool: BufferPool,
    alloc: LsnAllocator,
    chain_tails: HashMap<PgId, Lsn>,
    shipper: LogShipper,
    health: SegmentHealth,
    recovery: Recovery,
    commit_waiters: BTreeMap<Lsn, Vec<PendingCommit>>,
    locks: LockTable,
    running: HashMap<u64, RunningTxn>,
    lal_waiters: VecDeque<u64>,
    next_txn: u64,
    next_req: u64,
    next_synthetic_conn: u64,
    reads: HashMap<u64, PendingRead>,
    page_waits: HashMap<PageId, u64>,
    pending_inserts: Vec<(PageId, Page)>,
    vcpu_free: Vec<SimTime>,
    zdp: Option<(NodeId, u64)>,
    patch_queue: Vec<(NodeId, ClientRequest)>,
    known_conns: HashSet<u64>,
    bootstrap_next: u64,
}

impl EngineActor {
    pub fn new(cfg: EngineConfig) -> Self {
        let vcpus = cfg.instance.vcpus as usize;
        EngineActor {
            tree: BTree::new(TreeMeta::for_row_size(cfg.row_size, PageId(0))),
            pool: BufferPool::new(cfg.instance.buffer_pages),
            alloc: LsnAllocator::new(Lsn::ZERO, cfg.lal),
            shipper: LogShipper::new(&cfg),
            health: SegmentHealth::default(),
            recovery: Recovery::default(),
            status: EngineStatus::Bootstrapping,
            engine_version: 1,
            chain_tails: HashMap::default(),
            commit_waiters: BTreeMap::new(),
            locks: LockTable::new(),
            running: HashMap::default(),
            lal_waiters: VecDeque::new(),
            next_txn: 1,
            next_req: 1,
            next_synthetic_conn: CONN_SYNTHETIC_BASE,
            reads: HashMap::default(),
            page_waits: HashMap::default(),
            pending_inserts: Vec::new(),
            vcpu_free: vec![SimTime::ZERO; vcpus],
            zdp: None,
            patch_queue: Vec::new(),
            known_conns: HashSet::default(),
            bootstrap_next: 0,
            cfg,
        }
    }

    /// Current VDL (inspection).
    pub fn vdl(&self) -> Lsn {
        self.shipper.vdl()
    }

    /// Current status (inspection).
    pub fn status(&self) -> EngineStatus {
        self.status
    }

    /// Current volume epoch (inspection): bumped by every completed
    /// recovery, never regresses — the DST epoch oracle watches it.
    pub fn current_epoch(&self) -> VolumeEpoch {
        self.recovery.epoch()
    }

    /// Engine version (for ZDP tests).
    pub fn version(&self) -> u64 {
        self.engine_version
    }

    /// Test-only failure injection: stall the ship path so staged records
    /// are never shipped (batch staged, never flushed). The DST negative
    /// test uses this to prove the liveness oracle catches a stuck flush.
    #[doc(hidden)]
    pub fn test_stall_ship(&mut self, stalled: bool) {
        self.shipper.stalled = stalled;
    }

    /// Number of staged-but-unshipped records — inspection for tests.
    #[doc(hidden)]
    pub fn staged_records(&self) -> usize {
        self.shipper.staged()
    }

    /// Members the health tracker currently holds in a non-healthy state —
    /// inspection for the DST health-convergence oracle.
    pub fn suspect_count(&self) -> usize {
        self.health.suspect_count()
    }

    /// Health state of one member — inspection for tests.
    pub fn health_state(&self, segment: SegmentId) -> HealthState {
        self.health.state(segment)
    }

    /// Test-only failure injection: mark a member degraded and freeze the
    /// tracker so it never recovers. The DST negative test uses this to
    /// prove the health-convergence oracle catches lingering suspects.
    #[doc(hidden)]
    pub fn test_taint_health(&mut self, segment: SegmentId) {
        self.health.taint(segment);
    }

    /// Buffer cache (hits, misses) — inspection.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.pool.hits, self.pool.misses)
    }

    /// Active (running, non-synthetic) transactions — inspection.
    pub fn active_txns(&self) -> usize {
        self.running
            .keys()
            .filter(|c| **c < CONN_SYNTHETIC_BASE)
            .count()
    }

    // ---- the shipper's view of the engine ----

    fn wire(&mut self) -> (&mut LogShipper, Wire<'_>) {
        let wire = Wire {
            cfg: &mut self.cfg,
            epoch: self.recovery.epoch(),
            health: &mut self.health,
            running: &self.running,
        };
        (&mut self.shipper, wire)
    }

    /// Ship staged redo now, outside the group-commit policy.
    fn flush(&mut self, ctx: &mut Ctx<'_>, reason: ShipReason) {
        let (shipper, mut wire) = self.wire();
        shipper.flush(ctx, reason, &mut wire);
    }

    /// Let the group-commit policy decide whether staged redo ships now.
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_>) {
        let (shipper, mut wire) = self.wire();
        shipper.maybe_flush(ctx, &mut wire);
    }

    /// Periodic sweep: re-ship lingering batches, decay member health,
    /// then expire lock and read waits.
    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let (shipper, mut wire) = self.wire();
        shipper.retransmit(ctx, &mut wire);
        self.health.decay(ctx, now);
        self.expire_waits(ctx, now);
    }

    fn on_write_ack(&mut self, ctx: &mut Ctx<'_>, ack: swire::WriteAck) {
        self.health.note_scl(ack.segment, ack.scl);
        let (fresh_ack_ns, advanced) = self.shipper.on_ack(ctx, &ack);
        if let Some(ns) = fresh_ack_ns {
            self.health.note_ack(ctx, ack.segment, ns);
        }
        if let Some(vdl) = advanced {
            self.on_vdl_advance(ctx, vdl);
        }
        let (shipper, mut wire) = self.wire();
        shipper.settle(ctx, &mut wire);
    }

    // ---- recovery (§4.3) ----

    /// Recover the volume and start the shipper's timers (nothing stages
    /// until recovery completes).
    fn start_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.status = EngineStatus::Recovering;
        self.recovery.start(ctx, &self.cfg);
        self.shipper.start(ctx, &self.cfg);
    }

    fn on_storage_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Msg) {
        let msg = match msg.downcast::<swire::WriteAck>() {
            Ok(ack) => return self.on_write_ack(ctx, ack),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageResp>() {
            Ok(resp) => return self.on_page_resp(ctx, resp),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageNack>() {
            Ok(nack) => return self.on_read_nack(ctx, nack),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::WriteFenced>() {
            Ok(f) => {
                if f.epoch > self.recovery.epoch() && self.status == EngineStatus::Ready {
                    // a newer writer owns the volume: step down immediately;
                    // in-flight transactions will never be acknowledged
                    ctx.inc(name!("engine.fenced"), 1);
                    self.status = EngineStatus::Standby;
                    self.abort_all_fenced(ctx);
                    self.commit_waiters.clear();
                    self.shipper.fence();
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::MembershipUpdate>() {
            Ok(mu) => {
                if let Some(m) = self
                    .cfg
                    .memberships
                    .iter_mut()
                    .find(|m| m.pg == mu.membership.pg)
                {
                    // the control plane re-delivers memberships on every
                    // sweep (the one-shot broadcast at repair completion is
                    // droppable); only a real change may reset health state
                    if *m != mu.membership {
                        let pg = m.pg;
                        *m = mu.membership;
                        self.health.forget_pg(pg);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        // post-truncation SCL: the freshest completeness signal we have
        // for this segment (its pre-truncation one is stale)
        if let Some(ack) = msg.downcast_ref::<swire::TruncateAck>() {
            self.health.note_scl(ack.segment, ack.scl);
        }
        if let Some(recovered) = self.recovery.on_msg(ctx, &self.cfg, from, msg) {
            self.finish_recovery(ctx, recovered);
        }
    }
}

impl Actor for EngineActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                if self.cfg.standby {
                    self.status = EngineStatus::Standby;
                    return;
                }
                self.bootstrap(ctx);
                self.shipper.start(ctx, &self.cfg);
            }
            ActorEvent::Restarted => {
                if self.cfg.standby && self.status == EngineStatus::Standby {
                    return; // unpromoted standby: still idle after a blip
                }
                self.start_recovery(ctx);
            }
            ActorEvent::Timer { tag } => match tag {
                TAG_FLUSH => {
                    let (shipper, mut wire) = self.wire();
                    shipper.on_flush_timer(ctx, &mut wire);
                }
                TAG_SWEEP => {
                    self.sweep(ctx);
                    ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
                }
                TAG_ZDP_RESUME => {
                    self.status = EngineStatus::Ready;
                    let queued = std::mem::take(&mut self.patch_queue);
                    for (client, req) in queued {
                        self.begin_request(ctx, client, req);
                    }
                }
                TAG_BOOTSTRAP if self.status == EngineStatus::Bootstrapping => {
                    self.bootstrap_chunk(ctx);
                }
                TAG_RECOVERY_RESEND => self.recovery.on_resend_timer(ctx, &self.cfg),
                t if t >= TAG_CPU_BASE => {
                    let conn = t - TAG_CPU_BASE;
                    self.exec_current_op(ctx, conn);
                }
                _ => {}
            },
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<ClientRequest>() {
                    Ok(req) => {
                        self.begin_request(ctx, from, req);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<Promote>() {
                    Ok(_) => {
                        if self.status == EngineStatus::Standby {
                            // take over the volume: recovery doubles as the
                            // fence (epoch bump annuls the old writer's
                            // unacknowledged tail and rejects its future
                            // writes)
                            self.start_recovery(ctx);
                        }
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<ZdpPatch>() {
                    Ok(p) => {
                        self.zdp = Some((from, p.version));
                        if self.running.is_empty() && self.status == EngineStatus::Ready {
                            self.apply_zdp(ctx);
                        }
                        return;
                    }
                    Err(m) => m,
                };
                self.on_storage_msg(ctx, from, msg);
            }
            ActorEvent::DiskDone { .. } => {}
        }
    }

    fn on_crash(&mut self) {
        // everything except configuration is volatile; a crashed engine is
        // not Ready until recovery completes
        self.status = EngineStatus::Recovering;
        self.pool.clear();
        self.shipper.crash();
        self.health.clear();
        self.recovery.abandon();
        self.commit_waiters.clear();
        self.locks = LockTable::new();
        self.running.clear();
        self.lal_waiters.clear();
        self.reads.clear();
        self.page_waits.clear();
        self.pending_inserts.clear();
        self.zdp = None;
        self.patch_queue.clear();
        let vcpus = self.cfg.instance.vcpus as usize;
        self.vcpu_free = vec![SimTime::ZERO; vcpus];
        self.alloc = LsnAllocator::new(Lsn::ZERO, self.cfg.lal);
        self.chain_tails.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r3_family_doubles() {
        let fam = InstanceSpec::r3_family();
        assert_eq!(fam.len(), 5);
        for w in fam.windows(2) {
            assert_eq!(w[1].vcpus, w[0].vcpus * 2);
        }
        assert_eq!(fam[4].vcpus, 32);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn synthetic_conn_space_is_disjoint() {
        assert!(CONN_SYNTHETIC_BASE > u32::MAX as u64);
        assert!(TAG_CPU_BASE > CONN_SYNTHETIC_BASE);
    }
}
