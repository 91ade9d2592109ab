//! The executor: connections run statements against the B+-tree
//! in the buffer cache, every mutation is sealed into redo records for
//! the [`LogShipper`](super::shipper::LogShipper), and commits complete
//! asynchronously once the VDL covers them (§4.2.2).
//!
//! ## CPU model
//!
//! The paper's Figures 6–7 scale with instance vCPUs. The executor models
//! an instance as `vcpus` processors: each statement costs `cpu_per_op` of
//! processor time, scheduled on the earliest-free vCPU. Waits (page
//! fetches, lock queues, commit durability) consume no CPU — which is
//! exactly the asynchrony the paper credits for Aurora's throughput.
//!
//! ## Rollback
//!
//! Aborts (user aborts, lock-timeout deadlock breaks, crash recovery) are
//! *logical*: every forward change logs an [`RecordBody::Undo`] record
//! carrying the inverse operation, and rollback executes those inverses as
//! a synthetic transaction through the ordinary write path. Physical
//! unapply would be unsound here because two transactions can shift rows
//! within the same leaf.

use aurora_log::{Lsn, LsnAllocator, MtrBuilder, Page, PageId, RecordBody, SegmentId, TxnId};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{name, Ctx, NodeId, SimDuration, SimTime, SpanId};
use aurora_storage::wire as swire;

use super::exec::{bootstrap_row, encode_undo, plan_write, schedule_cpu, PoolProvider, RowChange};
use super::recovery::Recovered;
use super::shipper::ShipReason;
use super::{membership, EngineActor, EngineStatus, CONN_SYNTHETIC_BASE, TAG_BOOTSTRAP};
use super::{TAG_CPU_BASE, TAG_ZDP_RESUME};
use crate::btree::BTreeError;
use crate::locks::LockOutcome;
use crate::wire::*;

/// Abort a lock waiter after this long (deadlock breaker).
const LOCK_WAIT_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Simulated duration of a ZDP engine swap (§7.4).
const ZDP_PAUSE: SimDuration = SimDuration::from_millis(3);

/// Why a running transaction is parked.
#[derive(Debug)]
enum Phase {
    /// A CPU slice is scheduled; the op body runs when the timer fires.
    Cpu,
    /// Waiting for a page fetch (the page id aids debugging).
    PageWait(#[allow(dead_code)] PageId),
    /// Waiting in a lock queue.
    LockWait { key: u64, since: SimTime },
    /// Waiting for LAL headroom.
    LalWait,
}

pub(super) struct RunningTxn {
    conn: u64,
    client: NodeId,
    issued_at: SimTime,
    spec: TxnSpec,
    pc: usize,
    results: Vec<OpResult>,
    txn: TxnId,
    phase: Phase,
    op_started: SimTime,
    /// Logical inverse ops, newest last.
    undo_ops: Vec<Op>,
    first_lsn: Lsn,
    wrote: bool,
    /// True for synthetic rollback transactions: ends with `TxnAbort`,
    /// responds to nobody, never itself aborts.
    rollback: bool,
}

impl RunningTxn {
    /// A transaction about to run its first op ([`EngineActor::start_op`]
    /// stamps `op_started`).
    fn new(conn: u64, client: NodeId, issued_at: SimTime, spec: TxnSpec, txn: TxnId) -> Self {
        RunningTxn {
            conn,
            client,
            issued_at,
            spec,
            pc: 0,
            results: Vec::new(),
            txn,
            phase: Phase::Cpu,
            op_started: issued_at,
            undo_ops: Vec::new(),
            first_lsn: Lsn::ZERO,
            wrote: false,
            rollback: false,
        }
    }
}

pub(super) struct PendingCommit {
    conn: u64,
    client: NodeId,
    issued_at: SimTime,
    results: Vec<OpResult>,
    /// Open `engine.commit` trace span (NONE when tracing is off). Lives
    /// and dies with the waiter: crash/fence clears the map and the span
    /// simply never closes, which is exactly what the trace should show.
    span: SpanId,
}

pub(super) struct PendingRead {
    page: PageId,
    read_point: Lsn,
    conns: Vec<u64>,
    sent_at: SimTime,
    target: SegmentId,
}

enum ExecStall {
    Miss(PageId),
    Lal,
    Abort(String),
}

fn stall_from(e: BTreeError) -> ExecStall {
    match e {
        BTreeError::Miss(m) => ExecStall::Miss(m.0),
        BTreeError::DuplicateKey(k) => ExecStall::Abort(format!("duplicate key {k}")),
        BTreeError::KeyNotFound(k) => ExecStall::Abort(format!("key {k} not found")),
        BTreeError::LeafFull => ExecStall::Abort("internal: leaf full".into()),
        BTreeError::NotInitialized => ExecStall::Abort("tree not initialized".into()),
        e @ BTreeError::Corrupt { .. } => ExecStall::Abort(e.to_string()),
    }
}

/// §4.2.3: the PGMRPL low-water mark below which no read will ever be
/// issued and whose records storage may GC. Bounded by the oldest
/// uncommitted transaction so logical undo records survive.
pub(super) fn pgmrpl(vdl: Lsn, running: &HashMap<u64, RunningTxn>) -> Lsn {
    let mut low = vdl;
    for rt in running.values() {
        if rt.wrote && !rt.first_lsn.is_zero() {
            low = low.min(Lsn(rt.first_lsn.0.saturating_sub(1)));
        }
    }
    low
}

impl EngineActor {
    /// Seal a mini-transaction: allocate LSNs, thread backlinks, stage the
    /// records, stamp cached pages. Returns (first, last) LSNs.
    pub(super) fn seal_mtr(
        &mut self,
        txn: TxnId,
        bodies: Vec<RecordBody>,
    ) -> Result<(Lsn, Lsn), ()> {
        if bodies.is_empty() {
            return Ok((Lsn::ZERO, Lsn::ZERO));
        }
        let mut b = MtrBuilder::new();
        for body in bodies {
            b.push(txn, body);
        }
        let layout = &self.cfg.layout;
        let records = match b.finish(
            &mut self.alloc,
            |p| layout.pg_of(p),
            &mut self.chain_tails,
            self.cfg.cpl_mode,
        ) {
            Ok(r) => r,
            Err(_) => return Err(()), // LAL back-pressure
        };
        let first = records.first().unwrap().lsn;
        let last = records.last().unwrap().lsn;
        for rec in &records {
            if let Some(page) = rec.page() {
                self.pool.set_lsn(page, rec.lsn);
            }
        }
        self.shipper.stage(records);
        Ok((first, last))
    }

    // ---- VDL advance reactions ----

    pub(super) fn on_vdl_advance(&mut self, ctx: &mut Ctx<'_>, vdl: Lsn) {
        self.alloc.advance_vdl(vdl);
        ctx.trace_instant(name!("wm.vdl"), SpanId::NONE, vdl.0, 0);
        ctx.gauge(name!("engine.vdl"), vdl.0);
        // complete asynchronous commits (§4.2.2)
        let ready: Vec<Lsn> = self.commit_waiters.range(..=vdl).map(|(l, _)| *l).collect();
        let now = ctx.now();
        for lsn in ready {
            for pc in self.commit_waiters.remove(&lsn).unwrap() {
                let latency = now.since(pc.issued_at).nanos();
                ctx.record(name!("engine.txn_ns"), latency);
                ctx.record(name!("engine.commit_ns"), latency);
                ctx.inc(name!("engine.commits"), 1);
                ctx.trace_end(name!("engine.commit"), pc.span, lsn.0, latency);
                ctx.send(
                    pc.client,
                    ClientResponse {
                        conn: pc.conn,
                        result: TxnResult::Committed(pc.results),
                        issued_at: pc.issued_at,
                    },
                );
            }
        }
        // retry stalled cache inserts (eviction was blocked on durability)
        if !self.pending_inserts.is_empty() {
            let pending = std::mem::take(&mut self.pending_inserts);
            for (id, page) in pending {
                if let Err(p) = self.pool.insert(id, page, vdl) {
                    self.pending_inserts.push((id, p));
                }
            }
        }
        // trim any bootstrap overshoot
        self.pool.shrink_to_capacity(vdl);
        // wake LAL waiters
        let waiters: Vec<u64> = self.lal_waiters.drain(..).collect();
        for conn in waiters {
            if self.running.contains_key(&conn) {
                self.exec_current_op(ctx, conn);
            }
        }
        // tell replicas even when no records flowed
        for &replica in &self.cfg.replicas {
            ctx.send(replica, VdlUpdate { vdl, sent_at: now });
        }
    }

    // ---- transaction execution ----

    pub(super) fn begin_request(&mut self, ctx: &mut Ctx<'_>, client: NodeId, req: ClientRequest) {
        if self.status == EngineStatus::Patching {
            self.patch_queue.push((client, req));
            return;
        }
        if self.status == EngineStatus::Recovering || self.status == EngineStatus::Standby {
            ctx.send(
                client,
                ClientResponse {
                    conn: req.conn,
                    result: TxnResult::Aborted("recovering".into()),
                    issued_at: req.issued_at,
                },
            );
            return;
        }
        debug_assert!(req.conn < CONN_SYNTHETIC_BASE, "reserved conn space");
        self.known_conns.insert(req.conn);
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let conn = req.conn;
        let rt = RunningTxn::new(conn, client, req.issued_at, req.txn, txn);
        self.running.insert(conn, rt);
        self.start_op(ctx, conn);
    }

    /// Charge CPU for the current op; its body runs when the slice ends.
    fn start_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let Some(rt) = self.running.get_mut(&conn) else {
            return;
        };
        rt.op_started = ctx.now();
        rt.phase = Phase::Cpu;
        let cost = if rt.pc >= rt.spec.ops.len() {
            self.cfg.cpu_per_commit
        } else if rt.spec.ops[rt.pc].is_read() {
            self.cfg.cpu_per_read
        } else {
            self.cfg.cpu_per_op
        };
        schedule_cpu(ctx, &mut self.vcpu_free, cost, TAG_CPU_BASE + conn);
    }

    /// Execute the op at `pc` (after its CPU slice, a page arrival, a lock
    /// grant, or a LAL release).
    pub(super) fn exec_current_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let Some(rt) = self.running.get(&conn) else {
            return;
        };
        if rt.pc >= rt.spec.ops.len() {
            self.finish_txn(ctx, conn);
            return;
        }
        let op = rt.spec.ops[rt.pc].clone();
        let txn = rt.txn;

        // --- lock acquisition for writes ---
        if let Some(key) = op.write_key() {
            match self.locks.acquire(key, txn) {
                LockOutcome::Granted => {}
                LockOutcome::Queued => {
                    ctx.inc(name!("engine.lock_waits"), 1);
                    let now = ctx.now();
                    if let Some(rt) = self.running.get_mut(&conn) {
                        rt.phase = Phase::LockWait { key, since: now };
                    }
                    return;
                }
            }
        }

        match self.try_exec_op(conn, &op) {
            Ok(result) => {
                let kind = match &op {
                    Op::Get(_) => name!("engine.select_ns"),
                    Op::Scan(_, _) => name!("engine.scan_ns"),
                    Op::Insert(_, _) => name!("engine.insert_ns"),
                    Op::Update(_, _) | Op::Upsert(_, _) => name!("engine.update_ns"),
                    Op::Delete(_) => name!("engine.delete_ns"),
                };
                let rt = self.running.get_mut(&conn).unwrap();
                let elapsed = ctx.now().since(rt.op_started).nanos();
                rt.results.push(result);
                rt.pc += 1;
                ctx.record(kind, elapsed);
                self.maybe_flush(ctx);
                self.start_op(ctx, conn);
            }
            Err(ExecStall::Miss(page)) => {
                if let Some(rt) = self.running.get_mut(&conn) {
                    rt.phase = Phase::PageWait(page);
                }
                self.request_page(ctx, page, conn);
            }
            Err(ExecStall::Lal) => {
                if let Some(rt) = self.running.get_mut(&conn) {
                    rt.phase = Phase::LalWait;
                }
                self.lal_waiters.push_back(conn);
                ctx.inc(name!("engine.lal_stalls"), 1);
            }
            Err(ExecStall::Abort(reason)) => {
                self.abort_txn(ctx, conn, reason);
            }
        }
    }

    fn try_exec_op(&mut self, conn: u64, op: &Op) -> Result<OpResult, ExecStall> {
        let tree = self.tree;
        let mut p = PoolProvider::new(&mut self.pool);
        match op {
            Op::Get(k) => tree.get(&mut p, *k).map(OpResult::Row).map_err(stall_from),
            Op::Scan(k, n) => tree
                .scan(&mut p, *k, *n)
                .map(OpResult::Rows)
                .map_err(stall_from),
            _ => self.write_op(conn, op),
        }
    }

    /// Run structural splits (SYSTEM MTRs) until `key`'s leaf has room.
    fn ensure_leaf_room(&mut self, key: u64) -> Result<(), ExecStall> {
        let tree = self.tree;
        while tree
            .needs_split(&mut PoolProvider::new(&mut self.pool), key)
            .map_err(stall_from)?
        {
            let mut p = PoolProvider::new(&mut self.pool);
            tree.prepare_split(&mut p, key).map_err(stall_from)?;
            let bodies = p.bodies;
            if self.seal_mtr(TxnId::SYSTEM, bodies).is_err() {
                return Err(ExecStall::Lal);
            }
        }
        Ok(())
    }

    fn write_op(&mut self, conn: u64, op: &Op) -> Result<OpResult, ExecStall> {
        let txn = self.running.get(&conn).expect("running txn").txn;
        let key = op.write_key().expect("write op");
        let tree = self.tree;
        // Phase 1: read the old row (may miss; nothing mutated yet).
        let old = tree
            .get(&mut PoolProvider::new(&mut self.pool), key)
            .map_err(stall_from)?;
        let (change, inverse) = plan_write(op, old, self.cfg.row_size).map_err(ExecStall::Abort)?;

        // Phase 2: structural preparation as SYSTEM mini-transactions, so
        // user MTRs only touch row bytes (undo never reverts tree shape).
        if matches!(change, RowChange::Insert(_)) {
            self.ensure_leaf_room(key)?;
        }

        // Phase 3: the row change + its logical undo record, one user MTR.
        let mut p = PoolProvider::new(&mut self.pool);
        match &change {
            RowChange::Insert(row) => tree.insert_no_split(&mut p, key, row),
            RowChange::Update(row) => tree.update(&mut p, key, row),
            RowChange::Delete => tree.delete(&mut p, key),
        }
        .map_err(stall_from)?;
        let mut bodies = p.bodies;
        bodies.push(RecordBody::Undo {
            data: encode_undo(txn, &inverse),
        });
        let rt = self.running.get_mut(&conn).unwrap();
        let first_write = !rt.wrote;
        let log_begin = first_write && !rt.rollback;
        let mut all = Vec::with_capacity(bodies.len() + 1);
        if log_begin {
            all.push(RecordBody::TxnBegin);
        }
        all.extend(bodies);
        match self.seal_mtr(txn, all) {
            Ok((first, _last)) => {
                let rt = self.running.get_mut(&conn).unwrap();
                if first_write {
                    rt.first_lsn = first;
                    rt.wrote = true;
                }
                rt.undo_ops.push(inverse);
                Ok(OpResult::Done)
            }
            Err(()) => Err(ExecStall::Lal),
        }
    }

    fn finish_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let rt = self.running.remove(&conn).expect("running txn");
        if rt.rollback {
            // synthetic rollback: end with a durable TxnAbort, free locks
            let _ = self.seal_mtr(rt.txn, vec![RecordBody::TxnAbort]);
            self.release_locks(ctx, rt.txn);
            self.flush(ctx, ShipReason::Forced);
            ctx.inc(name!("engine.rollbacks_completed"), 1);
            self.after_txn_end(ctx);
            return;
        }
        if !rt.wrote {
            // read-only: respond immediately, nothing to make durable
            ctx.inc(name!("engine.read_txns"), 1);
            ctx.inc(name!("engine.commits"), 1);
            ctx.record(
                name!("engine.txn_ns"),
                ctx.now().since(rt.issued_at).nanos(),
            );
            ctx.send(
                rt.client,
                ClientResponse {
                    conn: rt.conn,
                    result: TxnResult::Committed(rt.results),
                    issued_at: rt.issued_at,
                },
            );
            self.after_txn_end(ctx);
            return;
        }
        // write txn: log the commit record; ack when VDL covers it
        match self.seal_mtr(rt.txn, vec![RecordBody::TxnCommit]) {
            Ok((_, commit_lsn)) => {
                ctx.inc(name!("engine.write_txns"), 1);
                // early lock release is safe: the VDL advances in LSN
                // order, so a dependent commit can never out-run this one
                self.release_locks(ctx, rt.txn);
                let span =
                    ctx.trace_begin(name!("engine.commit"), SpanId::NONE, commit_lsn.0, rt.txn.0);
                self.commit_waiters
                    .entry(commit_lsn)
                    .or_default()
                    .push(PendingCommit {
                        conn: rt.conn,
                        client: rt.client,
                        issued_at: rt.issued_at,
                        results: rt.results,
                        span,
                    });
                // the group-commit window (flush timer / batch cap) ships
                // this; forcing a flush here would defeat batching
                self.maybe_flush(ctx);
                self.after_txn_end(ctx);
            }
            Err(()) => {
                self.running.insert(conn, rt);
                if let Some(rt) = self.running.get_mut(&conn) {
                    rt.phase = Phase::LalWait;
                }
                self.lal_waiters.push_back(conn);
            }
        }
    }

    fn abort_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64, reason: String) {
        let Some(rt) = self.running.remove(&conn) else {
            return;
        };
        if rt.rollback {
            // a rollback op failed (should not happen) — drop it, free locks
            ctx.inc(name!("engine.rollback_errors"), 1);
            self.release_locks(ctx, rt.txn);
            return;
        }
        ctx.inc(name!("engine.aborts"), 1);
        ctx.send(
            rt.client,
            ClientResponse {
                conn: rt.conn,
                result: TxnResult::Aborted(reason),
                issued_at: rt.issued_at,
            },
        );
        if !rt.wrote {
            self.release_locks(ctx, rt.txn);
            self.after_txn_end(ctx);
            return;
        }
        // logical rollback as a synthetic transaction reusing the same
        // TxnId (so it already owns every needed lock), newest first
        let inverse_ops: Vec<Op> = rt.undo_ops.iter().rev().cloned().collect();
        self.spawn_rollback(ctx, rt.txn, inverse_ops);
    }

    pub(super) fn spawn_rollback(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, inverse_ops: Vec<Op>) {
        let conn = self.next_synthetic_conn;
        self.next_synthetic_conn += 1;
        let spec = TxnSpec { ops: inverse_ops };
        let mut rt = RunningTxn::new(conn, aurora_sim::sim::EXTERNAL, ctx.now(), spec, txn);
        rt.wrote = true; // suppress TxnBegin; the forward txn logged it
        rt.rollback = true;
        self.running.insert(conn, rt);
        self.start_op(ctx, conn);
    }

    /// Free every lock `txn` holds and resume the waiters now granted.
    fn release_locks(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        self.locks.release_all(txn);
        let resumable: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, rt)| {
                matches!(rt.phase, Phase::LockWait { key, .. }
                    if self.locks.owner(key) == Some(rt.txn))
            })
            .map(|(c, _)| *c)
            .collect();
        for conn in resumable {
            self.exec_current_op(ctx, conn);
        }
    }

    /// A newer writer owns the volume: every running transaction is
    /// aborted (none will ever be acknowledged).
    pub(super) fn abort_all_fenced(&mut self, ctx: &mut Ctx<'_>) {
        let mut conns: Vec<u64> = self.running.keys().copied().collect();
        conns.sort_unstable();
        for conn in conns {
            if let Some(rt) = self.running.remove(&conn) {
                if rt.client != aurora_sim::sim::EXTERNAL {
                    ctx.send(
                        rt.client,
                        ClientResponse {
                            conn: rt.conn,
                            result: TxnResult::Aborted(
                                "fenced: a newer writer owns the volume".into(),
                            ),
                            issued_at: rt.issued_at,
                        },
                    );
                }
            }
        }
    }

    fn after_txn_end(&mut self, ctx: &mut Ctx<'_>) {
        if self.zdp.is_some() && self.running.is_empty() && self.status == EngineStatus::Ready {
            self.apply_zdp(ctx);
        }
    }

    pub(super) fn apply_zdp(&mut self, ctx: &mut Ctx<'_>) {
        let (requester, version) = self.zdp.take().unwrap();
        // §7.4: spool sessions, swap the engine, reload — requests arriving
        // during the swap are queued, never dropped
        self.status = EngineStatus::Patching;
        self.engine_version = version;
        ctx.set_timer(ZDP_PAUSE, TAG_ZDP_RESUME);
        ctx.inc(name!("engine.zdp_patches"), 1);
        ctx.send(
            requester,
            ZdpDone {
                version,
                sessions_preserved: self.known_conns.len() as u64,
                connections_dropped: 0,
            },
        );
    }

    // ---- storage reads ----

    fn request_page(&mut self, ctx: &mut Ctx<'_>, page: PageId, conn: u64) {
        if let Some(req_id) = self.page_waits.get(&page) {
            if let Some(pr) = self.reads.get_mut(req_id) {
                if !pr.conns.contains(&conn) {
                    pr.conns.push(conn);
                }
                return;
            }
        }
        let read_point = self.shipper.vdl();
        let req_id = self.next_req;
        self.next_req += 1;
        self.page_waits.insert(page, req_id);
        ctx.inc(name!("engine.page_fetches"), 1);
        let target = self.send_read(ctx, req_id, page, read_point, None);
        let pr = PendingRead {
            page,
            read_point,
            conns: vec![conn],
            sent_at: ctx.now(),
            target,
        };
        self.reads.insert(req_id, pr);
    }

    /// §4.2.3: ask a segment complete at `read_point` (other than replica
    /// `avoid`) for `page`; returns the segment asked. The SCL is a
    /// *per-PG* LSN, so the bar is the newest record this engine ever
    /// wrote to the PG (its chain tail), clamped by the read point: a
    /// segment holding the full PG chain is complete with respect to any
    /// global read point.
    fn send_read(
        &self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        page: PageId,
        read_point: Lsn,
        avoid: Option<u8>,
    ) -> SegmentId {
        let pg = self.cfg.layout.pg_of(page);
        let bar = self
            .chain_tails
            .get(&pg)
            .copied()
            .unwrap_or(Lsn::ZERO)
            .min(read_point);
        let m = membership(&self.cfg.memberships, pg);
        let segment = self
            .health
            .pick_segment(ctx, pg, bar, m.slots.len() as u8, avoid);
        let req = swire::ReadPageReq {
            req_id,
            segment,
            page,
            read_point,
        };
        ctx.send(m.slots[segment.replica as usize], req);
        segment
    }

    pub(super) fn on_page_resp(&mut self, ctx: &mut Ctx<'_>, resp: swire::ReadPageResp) {
        let Some(pr) = self.reads.remove(&resp.req_id) else {
            return; // stale retry
        };
        self.page_waits.remove(&pr.page);
        ctx.record(
            name!("engine.page_fetch_ns"),
            ctx.now().since(pr.sent_at).nanos(),
        );
        // DST snapshot-safety oracle tap: a storage node must never serve
        // a page image materialized past the requested read point.
        if resp.page.lsn > pr.read_point {
            ctx.inc(name!("oracle.read_past_read_point"), 1);
        }
        let vdl = self.shipper.vdl();
        if let Err(page) = self.pool.insert(resp.page_id, resp.page, vdl) {
            self.pending_inserts.push((resp.page_id, page));
        }
        for conn in pr.conns {
            if self.running.contains_key(&conn) {
                self.exec_current_op(ctx, conn);
            }
        }
    }

    /// A segment nacked a read: it told us exactly how far behind it is.
    /// Redirect the read immediately instead of waiting out the timeout.
    pub(super) fn on_read_nack(&mut self, ctx: &mut Ctx<'_>, nack: swire::ReadPageNack) {
        self.health.note_scl(nack.segment, nack.scl);
        let stale = self
            .reads
            .get(&nack.req_id)
            .is_none_or(|pr| pr.target != nack.segment);
        if !stale {
            ctx.inc(name!("engine.read_nacks"), 1);
            self.health.strike(ctx, nack.segment, &self.cfg);
            self.retry_read(ctx, nack.req_id, Some(nack.segment.replica));
        }
    }

    /// Sweep: abort lock waiters past [`LOCK_WAIT_TIMEOUT`] (deadlock
    /// breaker), then redirect reads past `read_timeout`.
    pub(super) fn expire_waits(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let mut timed_out: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, rt)| {
                matches!(rt.phase, Phase::LockWait { since, .. }
                    if now.since(since) > LOCK_WAIT_TIMEOUT)
            })
            .map(|(c, _)| *c)
            .collect();
        // Process in connection order, not HashMap order: aborts release
        // locks and send responses, both of which must replay identically.
        timed_out.sort_unstable();
        for conn in timed_out {
            ctx.inc(name!("engine.lock_timeouts"), 1);
            self.abort_txn(ctx, conn, "lock wait timeout".into());
        }
        let mut expired: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, pr)| now.since(pr.sent_at) > self.cfg.read_timeout)
            .map(|(id, _)| *id)
            .collect();
        expired.sort_unstable();
        for req_id in expired {
            let target = self.reads.get(&req_id).map(|pr| pr.target);
            if let Some(t) = target {
                self.health.strike(ctx, t, &self.cfg);
            }
            self.retry_read(ctx, req_id, target.map(|t| t.replica));
        }
    }

    /// Redirect a pending read to another replica — used both by the sweep
    /// (timeout) and by explicit [`swire::ReadPageNack`]s from a replica
    /// that knows it is incomplete at the read point.
    fn retry_read(&mut self, ctx: &mut Ctx<'_>, req_id: u64, avoid: Option<u8>) {
        let Some((page, read_point)) = self.reads.get(&req_id).map(|pr| (pr.page, pr.read_point))
        else {
            return;
        };
        ctx.inc(name!("engine.read_retries"), 1);
        let target = self.send_read(ctx, req_id, page, read_point, avoid);
        let pr = self.reads.get_mut(&req_id).unwrap();
        pr.sent_at = ctx.now();
        pr.target = target;
    }

    /// Apply a completed recovery: restart the log at the recovered VDL,
    /// serve again, and roll back what was in flight.
    pub(super) fn finish_recovery(&mut self, ctx: &mut Ctx<'_>, mut r: Recovered) {
        self.alloc = LsnAllocator::new(r.vdl, self.cfg.lal);
        self.shipper.resume_at(r.vdl);
        self.chain_tails = std::mem::take(&mut r.tails);
        self.next_txn = r.next_txn;
        self.status = EngineStatus::Ready;
        for (txn, inverse_ops) in std::mem::take(&mut r.rollbacks) {
            self.spawn_rollback(ctx, txn, inverse_ops);
        }
        // in-flight txns that never logged an undo record (begin-only)
        for &txn in &r.in_flight {
            if self.running.values().all(|rt| rt.txn != txn) {
                let _ = self.seal_mtr(txn, vec![RecordBody::TxnAbort]);
            }
        }
        self.flush(ctx, ShipReason::Forced);
        r.record(ctx);
    }

    // ---- bootstrap ----

    pub(super) fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let tree = self.tree;
        {
            self.pool.insert_unchecked(PageId(0), Page::new());
            let mut p = PoolProvider::new(&mut self.pool);
            tree.create(&mut p).expect("create never misses");
            let bodies = p.bodies;
            self.seal_mtr(TxnId::SYSTEM, bodies).expect("LAL headroom");
        }
        self.bootstrap_next = 0;
        self.bootstrap_chunk(ctx);
    }

    /// Load rows in chunks so acknowledgements, coalescing and GC on the
    /// storage fleet interleave with the load (keeps memory bounded for
    /// the out-of-cache experiments).
    pub(super) fn bootstrap_chunk(&mut self, ctx: &mut Ctx<'_>) {
        const CHUNK: u64 = 4_000;
        let rows = self.cfg.bootstrap_rows;
        let row_size = self.cfg.row_size;
        let tree = self.tree;
        let end = (self.bootstrap_next + CHUNK).min(rows);
        for k in self.bootstrap_next..end {
            self.ensure_leaf_room(k)
                .unwrap_or_else(|_| panic!("bootstrap split failed at {k}"));
            let bodies = {
                let mut p = PoolProvider::new(&mut self.pool);
                let row = bootstrap_row(k, row_size);
                tree.insert_no_split(&mut p, k, &row)
                    .expect("bootstrap insert");
                p.bodies
            };
            self.seal_mtr(TxnId::SYSTEM, bodies).expect("LAL");
            if self.shipper.staged() >= 512 {
                self.flush(ctx, ShipReason::Forced);
            }
        }
        self.flush(ctx, ShipReason::Forced);
        self.bootstrap_next = end;
        if end < rows {
            ctx.set_timer(SimDuration::from_millis(2), TAG_BOOTSTRAP);
        } else {
            self.status = EngineStatus::Ready;
            ctx.inc(name!("engine.bootstrap_rows"), rows);
        }
    }
}
