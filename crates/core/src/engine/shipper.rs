//! Redo shipping (§4.2): the writer's only output to storage.
//!
//! [`LogShipper`] owns everything between "records sealed" and "VDL
//! advanced": the staging buffer, the group-commit ship policy and its
//! flush timer, the outstanding window of shipped-but-not-durable batches
//! with both retransmit policies, and the [`DurabilityTracker`] that turns
//! 4/6 acks into the VDL. The rest of the engine reaches it through a
//! handful of calls — stage, ship, ack, sweep, reset — which is the seam a
//! different log backend would plug into.

use std::collections::BTreeMap;
use std::sync::Arc;

use aurora_log::{LogRecord, Lsn, PgId, SegmentId};
use aurora_quorum::{AckOutcome, DurabilityTracker, VolumeEpoch};
use aurora_sim::hash::{FxHashMap as HashMap, FxHashSet as HashSet};
use aurora_sim::{name, Ctx, Name, NodeId, SimDuration, SimTime, SpanId, TimerId};
use aurora_storage::wire as swire;
use aurora_storage::PgMembership;

use super::health::SegmentHealth;
use super::txn::{pgmrpl, RunningTxn};
use super::{membership, EngineConfig, SWEEP_INTERVAL, TAG_FLUSH, TAG_SWEEP};
use crate::wire::LogStream;

/// When staged redo ships to storage — the group-commit policy.
///
/// The paper's §4.2.2 group commit amortizes quorum round-trips, but a
/// fixed cadence charges every low-load commit up to a full window of
/// queueing delay it never needed. The adaptive policy ships immediately
/// while the pipe is idle and falls back to batching only once enough
/// batches are in flight to absorb the amortization win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipPolicy {
    /// A periodic timer every `flush_interval` ships whatever is staged —
    /// the original fixed group-commit cadence, kept for A/B comparison.
    FixedInterval,
    /// Hybrid immediate/deadline: ship as soon as records stage while
    /// fewer than `ship_pipeline_depth` batches are in flight; once the
    /// pipe is full, batch until `MAX_BATCH_RECORDS` or a one-shot
    /// `flush_interval` deadline, whichever comes first. Acks draining
    /// the pipe release the staged batch early, so the system is
    /// self-clocked under load.
    Adaptive,
}

/// How the engine re-ships batches that linger below durability.
///
/// §2.2/§4.1: a 4/6 write quorum lets the engine treat *slow* nodes like
/// *dead* ones. The fixed policy waits out a flat timer before re-shipping
/// to everyone; the hedged policy backs off per batch (so a browned-out
/// node is not hammered into a retry storm) and re-ships *early* to the
/// slowest unacked members when a batch sits below write quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransmitPolicy {
    /// Flat-interval re-ship every `RETRANSMIT_BASE` to every unacked
    /// member — the original behavior, kept for A/B comparison.
    Fixed,
    /// Exponential backoff (`RETRANSMIT_BASE` doubling up to
    /// `RETRANSMIT_MAX`, plus seeded jitter) with hedged re-ships: a
    /// batch below write quorum past `HEDGE_AFTER` goes to its slowest
    /// unacked members immediately instead of waiting out the full timer.
    Hedged,
}

/// Ship immediately once this many records are staged.
const MAX_BATCH_RECORDS: usize = 256;
/// Wait before an outstanding batch is re-shipped: the flat interval
/// under [`RetransmitPolicy::Fixed`], the first backoff step under
/// [`RetransmitPolicy::Hedged`].
const RETRANSMIT_BASE: SimDuration = SimDuration::from_millis(15);
/// Backoff ceiling under [`RetransmitPolicy::Hedged`].
const RETRANSMIT_MAX: SimDuration = SimDuration::from_millis(120);
/// Hedged policy: a batch still below write quorum this long after its
/// last (re)ship is re-shipped early to just its slowest unacked members.
const HEDGE_AFTER: SimDuration = SimDuration::from_millis(4);
/// Hedged policy: per-sweep cap on re-ships (retransmits + hedges) per
/// storage node, so a brownout cannot trigger a retry storm against the
/// very node that is struggling.
const RETRANSMIT_NODE_CAP: usize = 4;
/// Batches one sweep pass considers at most.
const SWEEP_BATCHES: usize = 32;

/// Why a staged batch left the engine now. Traced per ship decision
/// (`engine.ship` instants) and counted per reason, so the policy's
/// immediate/deadline split is visible in both forensics and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ShipReason {
    /// Adaptive policy, pipe idle: shipped with no added delay.
    Immediate = 0,
    /// `MAX_BATCH_RECORDS` reached.
    Size = 1,
    /// Group-commit window closed (periodic tick or one-shot deadline).
    Deadline = 2,
    /// Forced outside the policy: rollback end, bootstrap, recovery.
    Forced = 3,
}

struct OutBatch {
    // BTreeMap, not HashMap: (re)shipping iterates this map and sends a
    // WriteBatch per entry — send order must be deterministic for replay.
    // The shared slices are the same allocations the original sends
    // carried: retransmissions re-reference them instead of re-cloning
    // the records (watermark piggybacks are rebuilt fresh each send).
    by_pg: BTreeMap<PgId, Arc<[LogRecord]>>,
    acked: HashSet<(u32, u8)>,
    /// When this batch was last (re)shipped. `engine.ack_ns` measures from
    /// here: a late ack for a retransmitted batch is attributed to the
    /// send that plausibly elicited it, not the original ship — measuring
    /// from first ship would smear every network-loss retry (15ms+) into
    /// the commit-path histogram.
    last_sent: SimTime,
    /// Full retransmits so far (drives the exponential backoff).
    attempts: u32,
    /// Hedged policy: next full-retransmit deadline.
    next_retry: SimTime,
    /// A hedge already went out for the current (re)ship cycle; reset by
    /// every full retransmit so each backoff window hedges at most once.
    hedged: bool,
    /// Open `engine.batch_quorum` trace span (NONE when tracing is off).
    span: SpanId,
}

/// The engine state a ship or re-ship reads besides the shipper's own.
pub(super) struct Wire<'a> {
    /// Memberships (grown in place when staged redo reaches a new PG),
    /// layout, read replicas and the control plane.
    pub cfg: &'a mut EngineConfig,
    /// Volume epoch stamped on every batch (storage fences older ones).
    pub epoch: VolumeEpoch,
    /// Struck for unacked members at a full retransmit; its ack EWMA
    /// orders the members a hedge goes to.
    pub health: &'a mut SegmentHealth,
    /// Running transactions: the oldest one's undo holds the PGMRPL back.
    pub running: &'a HashMap<u64, RunningTxn>,
}

/// Staging, ship policy, outstanding window, retransmission and VDL.
pub(super) struct LogShipper {
    /// Test-only fault: when set, a ship decision is silently dropped and
    /// records stay staged forever. Deliberately NOT cleared by
    /// [`LogShipper::crash`] — it models a persistent ship-path defect, so
    /// the DST liveness oracle must catch it even across restarts.
    pub(super) stalled: bool,
    staging: Vec<LogRecord>,
    staging_cpl: Option<Lsn>,
    staging_pgs: Vec<PgId>,
    /// The armed TAG_FLUSH timer, if any (the armed-guard: every arm site
    /// funnels through [`LogShipper::arm_flush_timer`], so re-entering
    /// the ready path after recovery/failover can never stack a second
    /// flush timer). Volatile: stale timers die with the incarnation.
    flush_timer: Option<TimerId>,
    /// Shipped but not-yet-durable batches, for retransmission to segments
    /// that were down or lost the delivery.
    outstanding: BTreeMap<Lsn, OutBatch>,
    tracker: DurabilityTracker,
}

impl LogShipper {
    pub(super) fn new(cfg: &EngineConfig) -> Self {
        LogShipper {
            stalled: false,
            staging: Vec::new(),
            staging_cpl: None,
            staging_pgs: Vec::new(),
            flush_timer: None,
            outstanding: BTreeMap::new(),
            tracker: DurabilityTracker::new(cfg.quorum, Lsn::ZERO),
        }
    }

    /// Volume durable LSN: every record at or below it reached quorum.
    pub(super) fn vdl(&self) -> Lsn {
        self.tracker.vdl()
    }

    /// Staged-but-unshipped records.
    pub(super) fn staged(&self) -> usize {
        self.staging.len()
    }

    /// Append a sealed mini-transaction's records to the staging buffer.
    pub(super) fn stage(&mut self, records: Vec<LogRecord>) {
        for rec in &records {
            if rec.is_cpl {
                self.staging_cpl = Some(rec.lsn);
            }
            if !self.staging_pgs.contains(&rec.pg) {
                self.staging_pgs.push(rec.pg);
            }
        }
        self.staging.extend(records);
    }

    /// Begin serving: start the periodic flush under
    /// [`ShipPolicy::FixedInterval`] and the engine's sweep.
    pub(super) fn start(&mut self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) {
        if cfg.ship_policy == ShipPolicy::FixedInterval {
            self.arm_flush_timer(ctx, cfg);
        }
        ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
    }

    /// A newer writer owns the volume: drop staged and in-flight redo
    /// (it will never be acknowledged). The flush timer keeps running.
    pub(super) fn fence(&mut self) {
        self.outstanding.clear();
        self.staging.clear();
        self.staging_cpl = None;
        self.staging_pgs.clear();
    }

    /// Crash: everything is volatile. The armed timer itself dies with the
    /// incarnation (stale timers are filtered); only the guard resets.
    pub(super) fn crash(&mut self) {
        self.fence();
        self.flush_timer = None;
        self.tracker.reset(Lsn::ZERO);
    }

    /// Recovery established `vdl` as the volume's durable point.
    pub(super) fn resume_at(&mut self, vdl: Lsn) {
        self.tracker.reset(vdl);
    }

    /// The ship-policy decision point, run after every staging step (and
    /// after acks drain the pipe, so freed slots release staged records
    /// without waiting out the deadline).
    pub(super) fn maybe_flush(&mut self, ctx: &mut Ctx<'_>, wire: &mut Wire<'_>) {
        if self.staging.is_empty() {
            return;
        }
        if self.staging.len() >= MAX_BATCH_RECORDS {
            self.flush(ctx, ShipReason::Size, wire);
            return;
        }
        match wire.cfg.ship_policy {
            // the periodic TAG_FLUSH tick ships it
            ShipPolicy::FixedInterval => {}
            ShipPolicy::Adaptive => {
                if self.outstanding.len() < wire.cfg.ship_pipeline_depth {
                    self.flush(ctx, ShipReason::Immediate, wire);
                } else {
                    // pipe full: hold for the size cap or the deadline
                    self.arm_flush_timer(ctx, wire.cfg);
                }
            }
        }
    }

    /// TAG_FLUSH fired: the group-commit window closed.
    pub(super) fn on_flush_timer(&mut self, ctx: &mut Ctx<'_>, wire: &mut Wire<'_>) {
        // counted even when staging is empty: the tick cadence itself is
        // the observable for the double-armed-timer regression test
        ctx.inc(name!("engine.flush_ticks"), 1);
        self.flush_timer = None;
        self.flush(ctx, ShipReason::Deadline, wire);
        if wire.cfg.ship_policy == ShipPolicy::FixedInterval {
            self.arm_flush_timer(ctx, wire.cfg);
        }
    }

    /// Arm the group-commit timer unless one is already armed. The
    /// armed-guard fixes a long-standing double-timer bug: Start,
    /// Restarted and Promote each blindly armed TAG_FLUSH, so a standby
    /// that was promoted after a restart ticked twice per interval —
    /// spurious extra flush ticks that changed batching per seed.
    fn arm_flush_timer(&mut self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) {
        if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(cfg.flush_interval, TAG_FLUSH));
        }
    }

    /// Ship everything staged as one batch: shard by PG (§5), send each
    /// shard to all six replicas of its PG, stream the batch to the read
    /// replicas, and track it in the outstanding window.
    pub(super) fn flush(&mut self, ctx: &mut Ctx<'_>, reason: ShipReason, wire: &mut Wire<'_>) {
        if self.staging.is_empty() || self.stalled {
            return;
        }
        // an adaptive deadline covers only the records staged when it was
        // armed; shipping them by any other route disarms it (the periodic
        // fixed-interval timer, by contrast, outlives every ship)
        if wire.cfg.ship_policy == ShipPolicy::Adaptive {
            if let Some(id) = self.flush_timer.take() {
                ctx.cancel_timer(id);
            }
        }
        match reason {
            ShipReason::Immediate => ctx.inc(name!("engine.ship_immediate"), 1),
            ShipReason::Size => ctx.inc(name!("engine.ship_size"), 1),
            ShipReason::Deadline => ctx.inc(name!("engine.ship_deadline"), 1),
            ShipReason::Forced => ctx.inc(name!("engine.ship_forced"), 1),
        }
        self.ensure_memberships(ctx, wire.cfg);
        let records = std::mem::take(&mut self.staging);
        let cpl = self.staging_cpl.take();
        let pgs = std::mem::take(&mut self.staging_pgs);
        let batch_end = records.last().unwrap().lsn;
        self.tracker.register(batch_end, cpl, &pgs);
        let vdl = self.tracker.vdl();
        let pgmrpl = pgmrpl(vdl, wire.running);
        // the batch-quorum span opens when the first copy leaves the
        // engine and closes when the 4/6 write quorum has acked it
        let span = ctx.trace_begin(
            name!("engine.batch_quorum"),
            SpanId::NONE,
            batch_end.0,
            records.len() as u64,
        );
        ctx.trace_instant(name!("wm.pgmrpl"), span, pgmrpl.0, 0);
        ctx.gauge(name!("engine.pgmrpl"), pgmrpl.0);
        ctx.gauge(
            name!("engine.inflight_batches"),
            self.tracker.outstanding() as u64,
        );
        ctx.trace_instant(
            name!("engine.ship"),
            span,
            reason as u64,
            records.len() as u64,
        );
        // each PG's shard is assembled once and every send (and any later
        // retransmission) shares the same allocation
        let mut shards: BTreeMap<PgId, Vec<LogRecord>> = BTreeMap::new();
        for r in &records {
            shards.entry(r.pg).or_default().push(r.clone());
        }
        let by_pg: BTreeMap<PgId, Arc<[LogRecord]>> =
            shards.into_iter().map(|(pg, v)| (pg, v.into())).collect();
        self.outstanding.insert(
            batch_end,
            OutBatch {
                by_pg,
                acked: HashSet::default(),
                last_sent: ctx.now(),
                attempts: 0,
                next_retry: ctx.now() + RETRANSMIT_BASE,
                hedged: false,
                span,
            },
        );
        let all = self.unacked(batch_end, wire);
        self.send(
            ctx,
            wire,
            batch_end,
            &all,
            None,
            name!("engine.log_write_ios"),
        );
        // stream to read replicas (not part of the commit path); the
        // whole-batch slice is likewise shared across every replica send
        let now = ctx.now();
        let record_count = records.len();
        let stream: Arc<[LogRecord]> = records.into();
        for &replica in &wire.cfg.replicas {
            ctx.send(
                replica,
                LogStream {
                    records: Arc::clone(&stream),
                    vdl,
                    sent_at: now,
                },
            );
        }
        ctx.inc(name!("engine.batches"), 1);
        ctx.inc(name!("engine.records_shipped"), record_count as u64);
    }

    /// §2.2: "The PGs that constitute a volume are allocated as the volume
    /// grows." When staged records touch a protection group beyond the
    /// provisioned set, mint its membership (striped over the same storage
    /// nodes, preserving the 2-per-AZ layout), wire gossip peers, and tell
    /// the control plane.
    fn ensure_memberships(&self, ctx: &mut Ctx<'_>, cfg: &mut EngineConfig) {
        let new_pgs: Vec<PgId> = self
            .staging_pgs
            .iter()
            .filter(|pg| cfg.memberships.iter().all(|m| m.pg != **pg))
            .copied()
            .collect();
        for pg in new_pgs {
            // stripe like the original allocation: reuse the slot->node
            // pattern of an existing PG, rotated by the new PG's index so
            // load spreads across the fleet
            let template = cfg.memberships[pg.0 as usize % cfg.memberships.len()].clone();
            let m = PgMembership::new(pg, template.slots.clone());
            for (replica, node) in m.slots.iter().enumerate() {
                ctx.send(
                    *node,
                    swire::SegmentPeers {
                        segment: SegmentId::new(pg, replica as u8),
                        peers: m.peers_of(replica as u8),
                    },
                );
            }
            if let Some(control) = cfg.control {
                ctx.send(
                    control,
                    swire::MembershipUpdate {
                        membership: m.clone(),
                    },
                );
            }
            cfg.memberships.push(m);
            cfg.layout.grow_to_cover(aurora_log::PageId(
                (pg.0 as u64 + 1) * cfg.layout.pages_per_pg - 1,
            ));
            ctx.inc(name!("engine.volume_growths"), 1);
        }
    }

    /// Fold one write ack into the outstanding window and the tracker.
    /// Returns the ack latency when the ack is fresh (a duplicated ack —
    /// network chaos, regenerated by a retransmit — records nothing) and
    /// the new VDL when the ack advanced it.
    pub(super) fn on_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        ack: &swire::WriteAck,
    ) -> (Option<u64>, Option<Lsn>) {
        let mut fresh_ack_ns = None;
        if let Some(ob) = self.outstanding.get_mut(&ack.batch_end) {
            if ob.acked.insert((ack.segment.pg.0, ack.segment.replica)) {
                let ack_latency = ctx.now().since(ob.last_sent).nanos();
                ctx.record(name!("engine.ack_ns"), ack_latency);
                fresh_ack_ns = Some(ack_latency);
            }
        }
        let advanced = match self
            .tracker
            .ack(ack.batch_end, ack.segment.pg, ack.segment.replica)
        {
            AckOutcome::VdlAdvanced(vdl) => Some(vdl),
            AckOutcome::Pending | AckOutcome::QuorumReached => None,
        };
        (fresh_ack_ns, advanced)
    }

    /// After an ack was applied: drop fully durable batches from the
    /// retransmit window, then let the freed pipeline slots ship staged
    /// records immediately instead of waiting out the deadline.
    pub(super) fn settle(&mut self, ctx: &mut Ctx<'_>, wire: &mut Wire<'_>) {
        let durable_to = self.tracker.durable_to();
        while let Some(entry) = self.outstanding.first_entry() {
            if *entry.key() > durable_to {
                break;
            }
            let (first, ob) = entry.remove_entry();
            ctx.trace_end(
                name!("engine.batch_quorum"),
                ob.span,
                first.0,
                ob.acked.len() as u64,
            );
        }
        self.maybe_flush(ctx, wire);
    }

    /// Re-ship batches that have waited too long without reaching
    /// durability — covers storage nodes that were down (an AZ outage) or
    /// lost the delivery. Idempotent at the receiver (duplicate records
    /// are ignored; the ack is regenerated — a batch already covered by
    /// the durable prefix is fast-acked without a disk write).
    ///
    /// Both policies re-ship due batches to every unacked member. The
    /// fixed policy is the original flat interval: no backoff, no health
    /// feedback, no per-node cap. The hedged policy:
    ///
    /// 1. **Full retransmits** — batches past their backoff deadline are
    ///    re-shipped to every unacked member; each such member takes a
    ///    health strike (it sat on a delivery for a whole backoff window)
    ///    and the deadline doubles, so a browned-out node sees
    ///    geometrically *fewer* re-ships the longer it lags.
    /// 2. **Hedges** — a batch still below write quorum `HEDGE_AFTER`
    ///    past its last (re)ship gets an early re-ship to just the slowest
    ///    (highest ack-EWMA) unacked members of the short PG — §2.2's
    ///    "treat slow like dead" without waiting out the timer. Hedges do
    ///    not advance the backoff clock and each backoff window hedges at
    ///    most once.
    ///
    /// Both passes share one per-node re-ship budget.
    pub(super) fn retransmit(&mut self, ctx: &mut Ctx<'_>, wire: &mut Wire<'_>) {
        let now = ctx.now();
        let hedged = wire.cfg.retransmit_policy == RetransmitPolicy::Hedged;
        let write_quorum = wire.cfg.quorum.write_quorum as usize;
        let mut budget: BTreeMap<NodeId, usize> = BTreeMap::new();

        let due = self.due(|b| {
            if hedged {
                now >= b.next_retry
            } else {
                now.since(b.last_sent) > RETRANSMIT_BASE
            }
        });
        for batch_end in due {
            let targets = self.unacked(batch_end, wire);
            if hedged {
                for seg in &targets {
                    wire.health.strike(ctx, *seg, wire.cfg);
                }
            }
            let counter = name!("engine.log_write_retransmits");
            let capped = hedged.then_some(&mut budget);
            self.send(ctx, wire, batch_end, &targets, capped, counter);
            let ob = self.outstanding.get_mut(&batch_end).unwrap();
            ob.last_sent = now;
            if hedged {
                ob.attempts += 1;
                ob.hedged = false;
                ob.next_retry = now + backoff_delay(ctx, ob.attempts);
            }
        }
        if !hedged {
            return;
        }

        let hedge_due =
            self.due(|b| !b.hedged && now < b.next_retry && now.since(b.last_sent) > HEDGE_AFTER);
        for batch_end in hedge_due {
            let ob = &self.outstanding[&batch_end];
            let mut targets: Vec<SegmentId> = Vec::new();
            for pg in ob.by_pg.keys() {
                let acks = ob.acked.iter().filter(|(p, _)| *p == pg.0).count();
                if acks >= write_quorum {
                    continue; // this PG already made quorum
                }
                // unacked members, slowest first (ack-EWMA descending,
                // slot id as the deterministic tie-break)
                let slots = membership(&wire.cfg.memberships, *pg).slots.len();
                let mut lagging: Vec<(f64, SegmentId)> = (0..slots as u8)
                    .filter(|slot| !ob.acked.contains(&(pg.0, *slot)))
                    .map(|slot| {
                        let seg = SegmentId::new(*pg, slot);
                        (wire.health.ewma_ns(seg), seg)
                    })
                    .collect();
                lagging.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.replica.cmp(&b.1.replica)));
                let short = write_quorum - acks;
                targets.extend(lagging.into_iter().take(short).map(|(_, seg)| seg));
            }
            let counter = name!("engine.hedged_ships");
            let shipped = self.send(ctx, wire, batch_end, &targets, Some(&mut budget), counter);
            let ob = self.outstanding.get_mut(&batch_end).unwrap();
            // one hedge per backoff window, even if the budget ate it all
            ob.hedged = true;
            if shipped {
                // a late ack is credited to the send that plausibly
                // elicited it
                ob.last_sent = now;
            }
        }
    }

    /// The first [`SWEEP_BATCHES`] outstanding batches matching `pred`.
    fn due(&self, pred: impl Fn(&OutBatch) -> bool) -> Vec<Lsn> {
        self.outstanding
            .iter()
            .filter(|(_, b)| pred(b))
            .map(|(l, _)| *l)
            .take(SWEEP_BATCHES)
            .collect()
    }

    /// Every member of `batch_end`'s PGs that has not acked it, in PG
    /// then slot order.
    fn unacked(&self, batch_end: Lsn, wire: &Wire<'_>) -> Vec<SegmentId> {
        let ob = &self.outstanding[&batch_end];
        let mut members = Vec::new();
        for pg in ob.by_pg.keys() {
            let slots = membership(&wire.cfg.memberships, *pg).slots.len() as u8;
            members.extend(
                (0..slots)
                    .filter(|slot| !ob.acked.contains(&(pg.0, *slot)))
                    .map(|slot| SegmentId::new(*pg, slot)),
            );
        }
        members
    }

    /// Send `batch_end`'s shards to `targets` in order, counting each send
    /// under `counter`. With a `budget`, a node that already took
    /// [`RETRANSMIT_NODE_CAP`] re-ships this sweep is skipped. Every send
    /// shares the slices assembled at first ship; only the watermark
    /// piggybacks (epoch/vdl/pgmrpl) are rebuilt, because they must
    /// reflect *current* state on resend. Returns whether anything went.
    fn send(
        &self,
        ctx: &mut Ctx<'_>,
        wire: &Wire<'_>,
        batch_end: Lsn,
        targets: &[SegmentId],
        mut budget: Option<&mut BTreeMap<NodeId, usize>>,
        counter: &'static Name,
    ) -> bool {
        let ob = &self.outstanding[&batch_end];
        let vdl = self.tracker.vdl();
        let pgmrpl = pgmrpl(vdl, wire.running);
        let mut sent = false;
        for &segment in targets {
            let node =
                membership(&wire.cfg.memberships, segment.pg).slots[segment.replica as usize];
            if let Some(budget) = budget.as_deref_mut() {
                let used = budget.entry(node).or_insert(0);
                if *used >= RETRANSMIT_NODE_CAP {
                    continue; // budget spent: do not pile on
                }
                *used += 1;
            }
            ctx.inc(counter, 1);
            let batch = swire::WriteBatch {
                segment,
                records: Arc::clone(&ob.by_pg[&segment.pg]),
                batch_end,
                epoch: wire.epoch,
                vdl,
                pgmrpl,
            };
            ctx.send(node, batch);
            sent = true;
        }
        sent
    }
}

/// Exponential backoff for the current attempt count, plus seeded
/// jitter of up to a quarter of the base interval so retransmit waves
/// across batches de-synchronize deterministically.
fn backoff_delay(ctx: &mut Ctx<'_>, attempts: u32) -> SimDuration {
    let base = RETRANSMIT_BASE.nanos();
    let exp = base.saturating_mul(1u64 << attempts.min(6));
    let capped = exp.min(RETRANSMIT_MAX.nanos());
    let jitter = ctx.rng().range_u64(0, base / 4 + 1);
    SimDuration::from_nanos(capped + jitter)
}
