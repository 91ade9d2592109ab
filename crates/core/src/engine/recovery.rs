//! Crash recovery (§4.3): rebuild the durable point from read quorums,
//! truncate everything above it under a fresh epoch, and find the
//! in-flight transactions to roll back.
//!
//! [`Recovery`] drives the phase machine over the storage fleet — SCL
//! discovery, CPL probes, truncation, transaction and undo scans — and
//! hands the engine one [`Recovered`] outcome to apply. Every request is
//! fire-and-forget over a lossy network to nodes that may be down, so a
//! periodic resend re-drives whichever phase is stalled; every response
//! handler is idempotent.

use std::cmp::Reverse;

use aurora_log::{LogRecord, Lsn, PgId, RecordBody, SegmentId, TxnId, LAL_DEFAULT};
use aurora_quorum::{TruncationRange, VolumeEpoch};
use aurora_sim::hash::{FxHashMap as HashMap, FxHashSet as HashSet};
use aurora_sim::{name, Ctx, Msg, NodeId, Payload, SimDuration, SimTime, SpanId};
use aurora_storage::wire as swire;
use aurora_storage::PgMembership;

use super::exec::decode_undo;
use super::{EngineConfig, TAG_RECOVERY_RESEND};
use crate::wire::Op;

/// Re-drive a stalled phase this often.
const RESEND_INTERVAL: SimDuration = SimDuration::from_millis(50);

#[derive(Default)]
struct RecoveryState {
    /// pg -> (replica -> (scl, highest))
    scls: HashMap<u32, HashMap<u8, (Lsn, Lsn)>>,
    max_epoch: VolumeEpoch,
    vcl: Option<Lsn>,
    cpls: HashMap<u32, Lsn>,
    vdl: Option<Lsn>,
    truncate_acks: HashMap<u32, HashSet<u8>>,
    /// pg -> post-truncation chain tail, reported by a segment whose
    /// pre-truncation SCL covered the new VDL (so its highest survivor is
    /// the PG's true tail). The new epoch's first record per PG backlinks
    /// here — linking to the volume-level VDL instead would park every
    /// segment's SCL forever (the VDL is usually not on this PG's chain).
    tails: HashMap<u32, Lsn>,
    truncated: bool,
    in_flight: Option<Vec<TxnId>>,
    undo_records: Vec<LogRecord>,
    /// PGs whose undo scan has answered (keyed so resends stay idempotent).
    undo_done: HashSet<u32>,
    max_txn_seen: u64,
    started: SimTime,
    /// Open `engine.recovery` trace span (NONE when tracing is off).
    span: SpanId,
}

/// A completed recovery, for the engine to apply: restart the log at
/// `vdl`, chain each PG from its true tail, and roll back what was in
/// flight; then [`Recovered::record`] it.
pub(super) struct Recovered {
    pub vdl: Lsn,
    /// Per-PG backlink anchor for the first post-recovery record.
    pub tails: HashMap<PgId, Lsn>,
    pub next_txn: u64,
    /// Logical undo per in-flight transaction, in transaction order, each
    /// transaction's inverse ops newest first.
    pub rollbacks: Vec<(TxnId, Vec<Op>)>,
    /// Every in-flight transaction, including begin-only ones with no
    /// undo to run.
    pub in_flight: Vec<TxnId>,
    undone_ops: usize,
    started: SimTime,
    span: SpanId,
}

impl Recovered {
    /// Count, time and close the trace span of the applied recovery.
    pub(super) fn record(&self, ctx: &mut Ctx<'_>) {
        let undone = self.undone_ops as u64;
        ctx.inc(name!("engine.recoveries"), 1);
        ctx.inc(name!("engine.recovery_undone_ops"), undone);
        let ns = ctx.now().since(self.started).nanos();
        ctx.record(name!("engine.recovery_ns"), ns);
        ctx.trace_end(name!("engine.recovery"), self.span, self.vdl.0, undone);
    }
}

/// The highest-SCL replica of one PG, lowest slot on ties.
fn best_replica(scls: &HashMap<u8, (Lsn, Lsn)>) -> Option<u8> {
    scls.iter()
        .max_by_key(|(r, (scl, _))| (*scl, Reverse(**r)))
        .map(|(r, _)| *r)
}

/// Replicas of one PG able to serve a chain-complete recovery scan at
/// `bar`: every replica whose phase-1 SCL covers it (they all hold the
/// same chain prefix, so any answer is authoritative). If none qualifies
/// — a provably-empty PG whose SCLs are all below a volume-level bar —
/// fall back to the single best-known replica, which is what the initial
/// one-shot send targeted.
fn scan_candidates(scls: &HashMap<u8, (Lsn, Lsn)>, bar: Lsn) -> Vec<u8> {
    // Sorted output: callers send one request per candidate, and send
    // order must not depend on HashMap iteration order (determinism).
    let mut complete: Vec<u8> = scls
        .iter()
        .filter(|(_, (scl, _))| *scl >= bar)
        .map(|(r, _)| *r)
        .collect();
    if !complete.is_empty() {
        complete.sort_unstable();
        return complete;
    }
    best_replica(scls).into_iter().collect()
}

/// Send `msg(segment)` to each of `replicas` of `m`'s PG, in order.
fn send_to<T: Payload>(
    ctx: &mut Ctx<'_>,
    m: &PgMembership,
    replicas: impl IntoIterator<Item = u8>,
    msg: impl Fn(SegmentId) -> T,
) {
    for r in replicas {
        ctx.send(m.slots[r as usize], msg(SegmentId::new(m.pg, r)));
    }
}

/// The transaction scan answered: everything begun but not finished
/// below the VDL is in flight; ask every PG for its undo.
fn on_txn_scan(
    ctx: &mut Ctx<'_>,
    cfg: &EngineConfig,
    rec: &mut RecoveryState,
    resp: &swire::TxnScanResp,
) {
    if rec.in_flight.is_some() {
        return; // duplicate scan response
    }
    let finished: HashSet<TxnId> = resp.finished.iter().copied().collect();
    let in_flight: Vec<TxnId> = resp
        .begun
        .iter()
        .filter(|t| !finished.contains(t))
        .copied()
        .collect();
    rec.max_txn_seen = resp
        .begun
        .iter()
        .chain(resp.finished.iter())
        .map(|t| t.0)
        .max()
        .unwrap_or(0);
    rec.in_flight = Some(in_flight.clone());
    let vdl = rec.vdl.unwrap();
    for m in &cfg.memberships {
        // unlike `best_replica`, ties fall to map order
        let best = rec.scls[&m.pg.0]
            .iter()
            .max_by_key(|(_, (scl, _))| *scl)
            .map(|(r, _)| *r)
            .unwrap_or(0);
        send_to(ctx, m, [best], |segment| swire::UndoScanReq {
            req_id: 0,
            segment,
            txns: in_flight.clone(),
            upto: vdl,
        });
    }
}

/// The recovery phase machine plus the truncation it last issued.
#[derive(Default)]
pub(super) struct Recovery {
    state: Option<RecoveryState>,
    /// The truncation range this writer's recovery issued — replayed to
    /// segments that report [`swire::EpochBehind`] (they missed the
    /// recovery and must install the range before ingesting new-epoch
    /// writes). Survives crashes, like the epoch it carries.
    last_truncation: Option<TruncationRange>,
}

impl Recovery {
    /// The writer's volume epoch: bumped by every recovery's truncation,
    /// never regresses.
    pub(super) fn epoch(&self) -> VolumeEpoch {
        self.last_truncation
            .map_or(VolumeEpoch::default(), |range| range.epoch)
    }

    /// Abandon a recovery in progress (crash).
    pub(super) fn abandon(&mut self) {
        self.state = None;
    }

    /// Begin: poll every segment for its SCL and arm the resend timer.
    pub(super) fn start(&mut self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) {
        self.state = Some(RecoveryState {
            started: ctx.now(),
            span: ctx.trace_begin(name!("engine.recovery"), SpanId::NONE, 0, 0),
            ..Default::default()
        });
        self.resend(ctx, cfg);
        ctx.set_timer(RESEND_INTERVAL, TAG_RECOVERY_RESEND);
    }

    /// TAG_RECOVERY_RESEND fired: re-drive the stalled phase and re-arm.
    pub(super) fn on_resend_timer(&self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) {
        if self.state.is_some() {
            self.resend(ctx, cfg);
            ctx.set_timer(RESEND_INTERVAL, TAG_RECOVERY_RESEND);
        }
    }

    /// Handle one recovery-protocol message, returning the outcome once
    /// the last phase completes.
    pub(super) fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        cfg: &EngineConfig,
        from: NodeId,
        msg: Msg,
    ) -> Option<Recovered> {
        if let Some(behind) = msg.downcast_ref::<swire::EpochBehind>() {
            // A segment refused a batch because it has not yet learned of
            // our truncation (it was down during recovery). Replay the
            // durable truncation range; the batch itself is retransmitted
            // by the regular outstanding-write sweep.
            if let Some(range) = self.last_truncation {
                ctx.inc(name!("engine.epoch_replays"), 1);
                let segment = behind.segment;
                ctx.send(from, swire::Truncate { segment, range });
            }
            return None;
        }
        let rec = self.state.as_mut()?;
        if let Some(resp) = msg.downcast_ref::<swire::SegmentStateResp>() {
            rec.scls
                .entry(resp.segment.pg.0)
                .or_default()
                .insert(resp.segment.replica, (resp.scl, resp.highest));
            rec.max_epoch = rec.max_epoch.max(resp.epoch);
        } else if let Some(resp) = msg.downcast_ref::<swire::CplBelowResp>() {
            rec.cpls.insert(resp.segment.pg.0, resp.cpl);
        } else if let Some(ack) = msg.downcast_ref::<swire::TruncateAck>() {
            let pg = ack.segment.pg.0;
            rec.truncate_acks
                .entry(pg)
                .or_default()
                .insert(ack.segment.replica);
            // A segment whose phase-1 SCL covered the new VDL held its
            // PG's full chain prefix, so its post-truncation SCL *is* the
            // PG's true chain tail — record it so the post-recovery writer
            // chains from a real record.
            let complete = rec
                .scls
                .get(&pg)
                .and_then(|m| m.get(&ack.segment.replica))
                .is_some_and(|(scl, _)| rec.vdl.is_some_and(|vdl| *scl >= vdl));
            if complete {
                let t = rec.tails.entry(pg).or_insert(Lsn::ZERO);
                *t = (*t).max(ack.scl);
            }
        } else if let Some(resp) = msg.downcast_ref::<swire::UndoScanResp>() {
            // keyed by PG so resent scans stay idempotent
            if rec.undo_done.insert(resp.segment.pg.0) {
                rec.undo_records.extend_from_slice(&resp.records);
            }
        } else {
            if let Some(resp) = msg.downcast_ref::<swire::TxnScanResp>() {
                on_txn_scan(ctx, cfg, rec, resp);
            }
            return None;
        }
        self.step(ctx, cfg)
    }

    /// Advance the phase machine as far as the answers so far allow.
    fn step(&mut self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) -> Option<Recovered> {
        let rec = self.state.as_mut()?;
        let read_quorum = cfg.quorum.read_quorum as usize;
        let write_quorum = cfg.quorum.write_quorum as usize;
        let pgs: Vec<u32> = cfg.memberships.iter().map(|m| m.pg.0).collect();

        // Phase 1 -> 2: every PG has a read quorum of SCLs.
        if rec.vcl.is_none() {
            if !pgs
                .iter()
                .all(|pg| rec.scls.get(pg).is_some_and(|m| m.len() >= read_quorum))
            {
                return None;
            }
            // Per PG, the max SCL across a read quorum bounds every record
            // that could have reached a write quorum (any 3 of 6 intersect
            // any 4 of 6); volume completeness is the min across PGs.
            // PGs that are provably empty (nothing ever received) are
            // vacuously complete and do not cap the VCL.
            let vcl = pgs
                .iter()
                .filter_map(|pg| {
                    let m = &rec.scls[pg];
                    if m.values().all(|(_, highest)| highest.is_zero()) {
                        None
                    } else {
                        m.values().map(|(scl, _)| *scl).max()
                    }
                })
                .min()
                .unwrap_or(Lsn::ZERO);
            rec.vcl = Some(vcl);
            ctx.trace_instant(name!("wm.vcl"), rec.span, vcl.0, 0);
            for m in &cfg.memberships {
                let best = best_replica(&rec.scls[&m.pg.0]).unwrap_or(0);
                send_to(ctx, m, [best], |segment| swire::CplBelowReq {
                    req_id: 0,
                    segment,
                    at: vcl,
                });
            }
            return None;
        }

        // Phase 2 -> 3: all CPL answers in => compute VDL, truncate.
        if rec.vdl.is_none() {
            if rec.cpls.len() < pgs.len() {
                return None;
            }
            let vdl = rec.cpls.values().copied().max().unwrap_or(Lsn::ZERO);
            rec.vdl = Some(vdl);
            ctx.trace_instant(name!("wm.vdl"), rec.span, vdl.0, 0);
            let range = TruncationRange {
                epoch: rec.max_epoch.next(),
                above: vdl,
                // provably above any LSN the dead incarnation could have issued
                ceiling: Lsn(vdl.0 + cfg.lal + LAL_DEFAULT),
            };
            for m in &cfg.memberships {
                let slots = 0..m.slots.len() as u8;
                send_to(ctx, m, slots, |segment| swire::Truncate { segment, range });
            }
            // durably record the truncation in the control plane (§4.3:
            // "written durably to the storage service so that there is no
            // confusion … in case recovery is interrupted and restarted")
            if let Some(control) = cfg.control {
                ctx.send(
                    control,
                    swire::Truncate {
                        segment: SegmentId::new(PgId(0), 0),
                        range,
                    },
                );
            }
            self.last_truncation = Some(range);
            return None;
        }

        // Phase 3 -> 4: truncation at write quorum everywhere, and the
        // true chain tail learned for every non-empty PG => txn scan.
        if !rec.truncated {
            if !pgs.iter().all(|pg| {
                rec.truncate_acks
                    .get(pg)
                    .is_some_and(|s| s.len() >= write_quorum)
            }) {
                return None;
            }
            if !pgs.iter().all(|pg| {
                let empty = rec.scls[pg].values().all(|(_, highest)| highest.is_zero());
                empty || rec.tails.contains_key(pg)
            }) {
                return None;
            }
            rec.truncated = true;
            let vdl = rec.vdl.unwrap();
            let m0 = &cfg.memberships[0];
            let best = best_replica(&rec.scls[&m0.pg.0]).unwrap_or(0);
            send_to(ctx, m0, [best], |segment| swire::TxnScanReq {
                req_id: 0,
                segment,
                upto: vdl,
            });
            return None;
        }

        // Phase 4 -> 5: in-flight set + all undo scans in => finish.
        let in_flight = rec.in_flight.clone()?;
        if pgs.iter().any(|pg| !rec.undo_done.contains(pg)) {
            return None;
        }
        let rec = self.state.take()?;
        let vdl = rec.vdl.unwrap();
        // Seed each PG's backlink anchor with the PG's *true chain tail*
        // (learned from the post-truncation SCL of a segment that was
        // complete through the VDL), never with the volume-level VDL: the
        // first post-recovery record's backlink must point at a real chain
        // record or no segment can ever advance its SCL past it again.
        // PGs with no learned tail (provably empty) restart their chain at 0.
        let tails = cfg
            .memberships
            .iter()
            .map(|m| (m.pg, rec.tails.get(&m.pg.0).copied().unwrap_or(Lsn::ZERO)))
            .collect();

        // Logical undo, grouped per transaction, newest-first within each.
        let mut per_txn: HashMap<TxnId, Vec<(Lsn, Op)>> = HashMap::default();
        for r in &rec.undo_records {
            if let RecordBody::Undo { data } = &r.body {
                if let Some((t, op)) = decode_undo(data) {
                    if in_flight.contains(&t) {
                        per_txn.entry(t).or_default().push((r.lsn, op));
                    }
                }
            }
        }
        let mut undone_ops = 0usize;
        let mut txn_ids: Vec<TxnId> = per_txn.keys().copied().collect();
        txn_ids.sort();
        let rollbacks = txn_ids
            .into_iter()
            .map(|t| {
                let mut ops = per_txn.remove(&t).unwrap();
                ops.sort_by_key(|(l, _)| Reverse(*l)); // newest first
                ops.dedup_by_key(|(l, _)| *l);
                undone_ops += ops.len();
                (t, ops.into_iter().map(|(_, op)| op).collect())
            })
            .collect();
        Some(Recovered {
            vdl,
            tails,
            next_txn: rec.max_txn_seen + 1,
            rollbacks,
            in_flight,
            undone_ops,
            started: rec.started,
            span: rec.span,
        })
    }

    /// Every 50ms while recovering, re-drive whichever phase is stalled.
    /// Each recovery request is sent fire-and-forget over a lossy network
    /// to nodes that may be down; without resends a single lost message
    /// (or a crashed target) wedges recovery forever. Every phase's
    /// response handler is idempotent, so over-sending is harmless.
    fn resend(&self, ctx: &mut Ctx<'_>, cfg: &EngineConfig) {
        let Some(rec) = self.state.as_ref() else {
            return;
        };
        // Phase 1: SCL discovery — poll segments that have not answered.
        let Some(vcl) = rec.vcl else {
            for m in &cfg.memberships {
                let have = rec.scls.get(&m.pg.0);
                let silent = (0..m.slots.len() as u8)
                    .filter(|slot| !have.is_some_and(|h| h.contains_key(slot)));
                send_to(ctx, m, silent, |segment| swire::SegmentStateReq {
                    req_id: 0,
                    segment,
                });
            }
            return;
        };
        // Phase 2: CPL probes — the single "best" target may have died;
        // ask *every* segment whose phase-1 SCL covered the VCL (they all
        // hold the same chain prefix, so any answer is authoritative).
        let Some(vdl) = rec.vdl else {
            for m in &cfg.memberships {
                if rec.cpls.contains_key(&m.pg.0) {
                    continue;
                }
                let candidates = scan_candidates(&rec.scls[&m.pg.0], vcl);
                send_to(ctx, m, candidates, |segment| swire::CplBelowReq {
                    req_id: 0,
                    segment,
                    at: vcl,
                });
            }
            return;
        };
        // Phase 3: truncation — re-send to replicas that have not acked.
        if !rec.truncated {
            let Some(range) = self.last_truncation else {
                return;
            };
            for m in &cfg.memberships {
                let acked = rec.truncate_acks.get(&m.pg.0);
                let unacked = (0..m.slots.len() as u8)
                    .filter(|slot| !acked.is_some_and(|s| s.contains(slot)));
                send_to(ctx, m, unacked, |segment| swire::Truncate {
                    segment,
                    range,
                });
            }
            return;
        }
        // Phase 4a: transaction scan — any PG-0 segment complete through
        // the VDL can serve it; the response handler drops duplicates.
        let Some(txns) = &rec.in_flight else {
            let m0 = &cfg.memberships[0];
            let candidates = scan_candidates(&rec.scls[&m0.pg.0], vdl);
            send_to(ctx, m0, candidates, |segment| swire::TxnScanReq {
                req_id: 0,
                segment,
                upto: vdl,
            });
            return;
        };
        // Phase 4b: undo scans — re-ask for PGs that have not answered.
        for m in &cfg.memberships {
            if rec.undo_done.contains(&m.pg.0) {
                continue;
            }
            let candidates = scan_candidates(&rec.scls[&m.pg.0], vdl);
            send_to(ctx, m, candidates, |segment| swire::UndoScanReq {
                req_id: 0,
                segment,
                txns: txns.clone(),
                upto: vdl,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_replica_breaks_ties_to_the_lowest_slot() {
        let mut scls: HashMap<u8, (Lsn, Lsn)> = HashMap::default();
        assert_eq!(best_replica(&scls), None);
        scls.insert(4, (Lsn(7), Lsn(9)));
        scls.insert(1, (Lsn(7), Lsn(8)));
        scls.insert(3, (Lsn(5), Lsn(9)));
        assert_eq!(best_replica(&scls), Some(1));
        assert_eq!(scan_candidates(&scls, Lsn(6)), vec![1, 4]);
        assert_eq!(scan_candidates(&scls, Lsn(8)), vec![1]);
    }
}
