//! The traditional MySQL/InnoDB-style engine.
//!
//! Shares the B+-tree, buffer pool, and lock table with `aurora-core`, but
//! does IO the way Figure 2 describes:
//!
//! * commits require the redo log *and* binlog durably on EBS, and — in
//!   the mirrored configuration — shipped synchronously to the standby's
//!   EBS pair first (steps 1–5, sequential, additive latency),
//! * row locks are held until the commit chain completes (no early
//!   release: this is what makes hot rows so expensive, Table 5),
//! * dirty pages are flushed by a background flusher, on eviction (a
//!   foreground stall), and wholesale at checkpoints (which gate new
//!   writes — "checkpointing [has] positive correlation with the
//!   foreground load"),
//! * crash recovery replays the redo log from the last checkpoint before
//!   the engine opens, then rolls back in-flight transactions.
//!
//! Group-commit quality is the `group_commit_limit` knob: MySQL 5.6's
//! binlog serialization (the `prepare_commit_mutex` era) batches poorly;
//! 5.7 batches better. Both are far from Aurora's fully asynchronous
//! pipeline.

use std::collections::VecDeque;

use aurora_sim::hash::FxHashMap as HashMap;

use aurora_core::btree::{BTree, BTreeError, TreeMeta};
use aurora_core::buffer::BufferPool;
use aurora_core::engine::exec::{
    decode_undo, encode_undo, plan_write, schedule_cpu, PoolProvider, RowChange,
};
use aurora_core::engine::InstanceSpec;
use aurora_core::locks::{LockOutcome, LockTable};
use aurora_core::wire::{ClientRequest, ClientResponse, Op, OpResult, TxnResult, TxnSpec};
use aurora_log::{LogRecord, Lsn, Page, PageId, PgId, RecordBody, TxnId};
use aurora_sim::{name, Actor, ActorEvent, Ctx, NodeId, SimDuration, SimTime, Tag};

use crate::wire::*;

const TAG_FLUSHER: Tag = 1;
const TAG_SWEEP: Tag = 2;
const TAG_REPLAY_DONE: Tag = 3;
const TAG_BOOTSTRAP: Tag = 4;
const TAG_MUTEX_BASE: Tag = 1 << 46;
const TAG_CPU_BASE: Tag = 1 << 48;

/// Which MySQL the baseline imitates (§6.1 compares 5.6 and 5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MysqlFlavor {
    V56,
    V57,
}

/// Baseline engine configuration.
#[derive(Debug, Clone)]
pub struct MysqlConfig {
    pub instance: InstanceSpec,
    pub flavor: MysqlFlavor,
    pub row_size: usize,
    pub bootstrap_rows: u64,
    pub cpu_per_op: SimDuration,
    pub cpu_per_read: SimDuration,
    pub cpu_per_commit: SimDuration,
    /// Thread-per-connection scheduling overhead: effective CPU cost is
    /// multiplied by `1 + (active_conns / thrash_conns)^2` (§7.2 — MySQL
    /// cannot "handle many concurrent connections"; Aurora can).
    pub thrash_conns: u64,
    /// Primary EBS volume node.
    pub ebs: NodeId,
    /// Standby instance node (mirrored configuration; None = single-AZ).
    pub standby: Option<NodeId>,
    /// Binlog replication targets.
    pub binlog_replicas: Vec<NodeId>,
    /// Max transactions folded into one commit-chain round (group commit).
    pub group_commit_limit: usize,
    /// Serialized time each write statement spends holding the redo/binlog
    /// mutex (the InnoDB `log_sys`/`prepare_commit_mutex` path): a single
    /// resource regardless of vCPUs, and the main reason MySQL write
    /// throughput does not scale with instance size (Figure 7's flat
    /// MySQL lines).
    pub serial_log_cost: SimDuration,
    /// Redo records between checkpoints.
    pub checkpoint_every_records: u64,
    /// Background flusher cadence and batch size.
    pub flusher_interval: SimDuration,
    pub flusher_batch: usize,
    pub lock_wait_timeout: SimDuration,
    /// Recovery replay speed (records/second).
    pub replay_rate: u64,
}

impl MysqlConfig {
    /// Flavor-tuned defaults: 5.6 has the `prepare_commit_mutex`-era group
    /// commit (poor batching) and slightly higher per-op cost; 5.7 batches
    /// commits well. Mirrored configurations should additionally set
    /// `standby` (which serializes the chain across AZs).
    pub fn tuned(ebs: NodeId, flavor: MysqlFlavor) -> Self {
        let mut cfg = Self::new(ebs);
        cfg.flavor = flavor;
        match flavor {
            MysqlFlavor::V56 => {
                cfg.group_commit_limit = 24;
                cfg.serial_log_cost = SimDuration::from_micros(120);
                cfg.cpu_per_op = SimDuration::from_micros(70);
            }
            MysqlFlavor::V57 => {
                cfg.group_commit_limit = 64;
                cfg.serial_log_cost = SimDuration::from_micros(30);
                cfg.cpu_per_op = SimDuration::from_micros(60);
            }
        }
        cfg
    }

    pub fn new(ebs: NodeId) -> Self {
        MysqlConfig {
            instance: InstanceSpec::r3_8xlarge(),
            flavor: MysqlFlavor::V57,
            row_size: 96,
            bootstrap_rows: 0,
            cpu_per_op: SimDuration::from_micros(60),
            cpu_per_read: SimDuration::from_micros(40),
            cpu_per_commit: SimDuration::from_micros(30),
            thrash_conns: 2_500,
            ebs,
            standby: None,
            binlog_replicas: Vec::new(),
            group_commit_limit: 32,
            serial_log_cost: SimDuration::from_micros(50),
            checkpoint_every_records: 400_000,
            flusher_interval: SimDuration::from_millis(2),
            flusher_batch: 64,
            lock_wait_timeout: SimDuration::from_secs(2),
            replay_rate: 2_000_000,
        }
    }
}

#[derive(Debug)]
enum Phase {
    Cpu,
    PageWait,
    LockWait { key: u64, since: SimTime },
    EvictWait,
}

struct RunningTxn {
    conn: u64,
    client: NodeId,
    issued_at: SimTime,
    spec: TxnSpec,
    pc: usize,
    results: Vec<OpResult>,
    txn: TxnId,
    phase: Phase,
    op_started: SimTime,
    undo_ops: Vec<Op>,
    wrote: bool,
    rollback: bool,
}

struct CommitWaiter {
    conn: u64,
    client: NodeId,
    issued_at: SimTime,
    results: Vec<OpResult>,
    txn: TxnId,
    #[allow(dead_code)]
    commit_lsn: Lsn,
}

/// One in-flight commit-chain round.
struct FlushRound {
    /// 0 = waiting log ack, 1 = waiting binlog ack, 2 = waiting standby.
    stage: u8,
    commits: Vec<CommitWaiter>,
    bytes: usize,
}

struct PendingRead {
    page: PageId,
    conns: Vec<u64>,
}

enum PendingEvict {
    /// waiting for (doublewrite, page) acks; then retry the conns
    Flush {
        remaining: u8,
        #[allow(dead_code)]
        victim: PageId,
        conns: Vec<u64>,
        checkpoint: bool,
    },
}

pub struct MysqlEngine {
    cfg: MysqlConfig,
    tree: BTree,
    // ---- survives crash (the checkpoint record lives in the log header)
    durable_checkpoint: Lsn,
    // ---- volatile
    status: Status,
    pool: BufferPool,
    next_lsn: u64,
    log_buffer: Vec<LogRecord>,
    log_buffer_bytes: usize,
    commit_queue: VecDeque<CommitWaiter>,
    flush: Option<FlushRound>,
    locks: LockTable,
    running: HashMap<u64, RunningTxn>,
    next_txn: u64,
    next_req: u64,
    next_synthetic: u64,
    reads: HashMap<u64, PendingRead>,
    page_waits: HashMap<PageId, u64>,
    evictions: HashMap<u64, PendingEvict>,
    vcpu_free: Vec<SimTime>,
    redo_since_checkpoint: u64,
    checkpoint_active: bool,
    checkpoint_queue: Vec<PageId>,
    stalled_writes: VecDeque<u64>,
    flusher_outstanding: u64,
    binlog_seq: u64,
    replay_started: SimTime,
    pending_rollbacks: Vec<(TxnId, Vec<Op>)>,
    bootstrap_next: u64,
    /// The single log mutex: free-at timestamp.
    log_mutex_free: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Bootstrapping,
    Ready,
    Recovering,
}

enum ExecStall {
    Miss(PageId),
    Abort(String),
}

fn stall_from(e: BTreeError) -> ExecStall {
    match e {
        BTreeError::Miss(m) => ExecStall::Miss(m.0),
        other => ExecStall::Abort(other.to_string()),
    }
}

impl MysqlEngine {
    pub fn new(cfg: MysqlConfig) -> Self {
        let tree = BTree::new(TreeMeta::for_row_size(cfg.row_size, PageId(0)));
        let pool = BufferPool::new(cfg.instance.buffer_pages);
        let vcpus = cfg.instance.vcpus as usize;
        MysqlEngine {
            tree,
            pool,
            durable_checkpoint: Lsn::ZERO,
            status: Status::Bootstrapping,
            next_lsn: 1,
            log_buffer: Vec::new(),
            log_buffer_bytes: 0,
            commit_queue: VecDeque::new(),
            flush: None,
            locks: LockTable::new(),
            running: HashMap::default(),
            next_txn: 1,
            next_req: 1,
            next_synthetic: 1 << 40,
            reads: HashMap::default(),
            page_waits: HashMap::default(),
            evictions: HashMap::default(),
            vcpu_free: vec![SimTime::ZERO; vcpus],
            redo_since_checkpoint: 0,
            checkpoint_active: false,
            checkpoint_queue: Vec::new(),
            stalled_writes: VecDeque::new(),
            flusher_outstanding: 0,
            binlog_seq: 0,
            replay_started: SimTime::ZERO,
            pending_rollbacks: Vec::new(),
            bootstrap_next: 0,
            log_mutex_free: SimTime::ZERO,
            cfg,
        }
    }

    /// Inspection.
    pub fn is_ready(&self) -> bool {
        self.status == Status::Ready
    }

    fn alloc_lsns(&mut self, bodies: Vec<RecordBody>, txn: TxnId) -> (Lsn, Lsn) {
        let first = Lsn(self.next_lsn);
        for body in bodies {
            let lsn = Lsn(self.next_lsn);
            self.next_lsn += 1;
            let rec = LogRecord {
                lsn,
                prev_in_pg: Lsn(lsn.0 - 1),
                pg: PgId(0),
                txn,
                is_cpl: true,
                body,
            };
            if let Some(page) = rec.page() {
                self.pool.set_lsn(page, rec.lsn);
            }
            self.log_buffer_bytes += rec.wire_size();
            self.log_buffer.push(rec);
            self.redo_since_checkpoint += 1;
        }
        (first, Lsn(self.next_lsn - 1))
    }

    // ---- the commit chain (Figure 2) ----

    fn maybe_start_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.flush.is_some() || self.commit_queue.is_empty() {
            return;
        }
        let take = self
            .cfg
            .group_commit_limit
            .max(1)
            .min(self.commit_queue.len());
        let commits: Vec<CommitWaiter> = self.commit_queue.drain(..take).collect();
        // everything staged so far rides along (log writes are sequential)
        let records = std::mem::take(&mut self.log_buffer);
        let bytes = std::mem::take(&mut self.log_buffer_bytes).max(512);
        let req_id = self.next_req;
        self.next_req += 1;
        ctx.inc(name!("mysql.log_flushes"), 1);
        ctx.send(
            self.cfg.ebs,
            EbsAppend {
                req_id,
                bytes,
                records,
                binlog: false,
            },
        );
        self.flush = Some(FlushRound {
            stage: 0,
            commits,
            bytes,
        });
    }

    fn on_flush_ack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(round) = self.flush.as_mut() else {
            return;
        };
        match round.stage {
            0 => {
                // stage 2: binlog fsync (its own sequential write — the
                // "statement log archived to S3" of Figure 2)
                round.stage = 1;
                let req_id = self.next_req;
                self.next_req += 1;
                let bytes = (round.commits.len() * 128).max(512);
                ctx.send(
                    self.cfg.ebs,
                    EbsAppend {
                        req_id,
                        bytes,
                        records: Vec::new(),
                        binlog: true,
                    },
                );
            }
            1 => {
                if let Some(standby) = self.cfg.standby {
                    // stage 3: synchronous block shipping to the standby
                    round.stage = 2;
                    let req_id = self.next_req;
                    self.next_req += 1;
                    let bytes = round.bytes;
                    ctx.send(standby, StandbyShip { req_id, bytes });
                } else {
                    self.complete_flush(ctx);
                }
            }
            _ => self.complete_flush(ctx),
        }
    }

    fn complete_flush(&mut self, ctx: &mut Ctx<'_>) {
        let round = self.flush.take().expect("flush round");
        let now = ctx.now();
        for cw in round.commits {
            // traditional: locks are held until the commit is durable
            self.locks.release_all(cw.txn);
            ctx.inc(name!("mysql.commits"), 1);
            ctx.inc(name!("mysql.write_txns"), 1);
            ctx.record(name!("mysql.txn_ns"), now.since(cw.issued_at).nanos());
            ctx.record(name!("mysql.commit_ns"), now.since(cw.issued_at).nanos());
            ctx.send(
                cw.client,
                ClientResponse {
                    conn: cw.conn,
                    result: TxnResult::Committed(cw.results),
                    issued_at: cw.issued_at,
                },
            );
            // asynchronous binlog shipping to replication replicas
            self.binlog_seq += 1;
            for r in self.cfg.binlog_replicas.clone() {
                ctx.send(
                    r,
                    BinlogEvent {
                        seq: self.binlog_seq,
                        bytes: 128,
                        committed_at: now,
                    },
                );
            }
        }
        self.resume_lock_waiters(ctx);
        self.maybe_start_flush(ctx);
        self.maybe_checkpoint(ctx);
    }

    // ---- checkpointing ----

    fn maybe_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        if self.checkpoint_active || self.redo_since_checkpoint < self.cfg.checkpoint_every_records
        {
            return;
        }
        self.checkpoint_active = true;
        self.checkpoint_queue = self.pool.dirty_pages();
        ctx.inc(name!("mysql.checkpoints"), 1);
        self.drive_checkpoint(ctx);
    }

    fn drive_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        if !self.checkpoint_active {
            return;
        }
        // issue up to flusher_batch page flushes per call
        let mut issued = 0;
        while issued < self.cfg.flusher_batch {
            let Some(page_id) = self.checkpoint_queue.pop() else {
                break;
            };
            if self.flush_page(ctx, page_id, true) {
                issued += 1;
            }
        }
        if self.checkpoint_queue.is_empty() && self.flusher_outstanding == 0 {
            // checkpoint complete: durable position advances
            self.checkpoint_active = false;
            self.durable_checkpoint = Lsn(self.next_lsn - 1);
            self.redo_since_checkpoint = 0;
            // release stalled writers
            let stalled: Vec<u64> = self.stalled_writes.drain(..).collect();
            for conn in stalled {
                if self.running.contains_key(&conn) {
                    self.exec_current_op(ctx, conn);
                }
            }
        }
    }

    /// Write a dirty page out: double-write first, then in place (2 IOs).
    /// Returns false if the page is no longer dirty/resident.
    fn flush_page(&mut self, ctx: &mut Ctx<'_>, page_id: PageId, checkpoint: bool) -> bool {
        let Some(page) = self.pool.peek(page_id) else {
            return false;
        };
        let page = page.clone();
        let req_id = self.next_req;
        self.next_req += 1;
        self.flusher_outstanding += 2;
        self.evictions.insert(
            req_id,
            PendingEvict::Flush {
                remaining: 2,
                victim: page_id,
                conns: Vec::new(),
                checkpoint,
            },
        );
        ctx.inc(name!("mysql.page_flushes"), 1);
        ctx.send(
            self.cfg.ebs,
            EbsWritePage {
                req_id,
                page_id,
                page: page.clone(),
                doublewrite: true,
            },
        );
        ctx.send(
            self.cfg.ebs,
            EbsWritePage {
                req_id,
                page_id,
                page,
                doublewrite: false,
            },
        );
        self.pool.mark_clean(page_id);
        true
    }

    // ---- transaction execution ----

    fn begin_request(&mut self, ctx: &mut Ctx<'_>, client: NodeId, req: ClientRequest) {
        if self.status == Status::Recovering {
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
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let conn = req.conn;
        self.running.insert(
            conn,
            RunningTxn {
                conn,
                client,
                issued_at: req.issued_at,
                spec: req.txn,
                pc: 0,
                results: Vec::new(),
                txn,
                phase: Phase::Cpu,
                op_started: ctx.now(),
                undo_ops: Vec::new(),
                wrote: false,
                rollback: false,
            },
        );
        self.start_op(ctx, conn);
    }

    fn start_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let Some(rt) = self.running.get_mut(&conn) else {
            return;
        };
        rt.op_started = ctx.now();
        rt.phase = Phase::Cpu;
        let base = if rt.pc >= rt.spec.ops.len() {
            self.cfg.cpu_per_commit
        } else if rt.spec.ops[rt.pc].is_read() {
            self.cfg.cpu_per_read
        } else {
            self.cfg.cpu_per_op
        };
        // thread-per-connection scheduling overhead at high concurrency
        let active = self.running.len() as f64;
        let thrash = 1.0 + (active / self.cfg.thrash_conns.max(1) as f64).powi(2);
        let cost = base.mul_f64(thrash);
        schedule_cpu(ctx, &mut self.vcpu_free, cost, TAG_CPU_BASE + conn);
    }

    fn exec_current_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let Some(rt) = self.running.get(&conn) else {
            return;
        };
        if rt.pc >= rt.spec.ops.len() {
            self.finish_txn(ctx, conn);
            return;
        }
        let op = rt.spec.ops[rt.pc].clone();
        let txn = rt.txn;
        let is_rollback = rt.rollback;

        // checkpoint gate: new writes stall while a checkpoint drains
        // ("reduce … interference with foreground transactions" is exactly
        // what this engine cannot do)
        if self.checkpoint_active && op.write_key().is_some() && !is_rollback {
            ctx.inc(name!("mysql.checkpoint_stalls"), 1);
            self.stalled_writes.push_back(conn);
            return;
        }

        if let Some(key) = op.write_key() {
            match self.locks.acquire(key, txn) {
                LockOutcome::Granted => {}
                LockOutcome::Queued => {
                    ctx.inc(name!("mysql.lock_waits"), 1);
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
                    Op::Get(_) => name!("mysql.select_ns"),
                    Op::Scan(_, _) => name!("mysql.scan_ns"),
                    Op::Insert(_, _) => name!("mysql.insert_ns"),
                    Op::Update(_, _) | Op::Upsert(_, _) => name!("mysql.update_ns"),
                    Op::Delete(_) => name!("mysql.delete_ns"),
                };
                let is_write = op.write_key().is_some();
                let rt = self.running.get_mut(&conn).unwrap();
                let elapsed = ctx.now().since(rt.op_started).nanos();
                rt.results.push(result);
                rt.pc += 1;
                ctx.record(kind, elapsed);
                if is_write && self.cfg.serial_log_cost > SimDuration::ZERO {
                    // copy the record into the redo/binlog buffers under
                    // the single log mutex — serialized across all vCPUs
                    let now = ctx.now();
                    let start = if self.log_mutex_free > now {
                        self.log_mutex_free
                    } else {
                        now
                    };
                    let end = start + self.cfg.serial_log_cost;
                    self.log_mutex_free = end;
                    ctx.set_timer(end - now, TAG_MUTEX_BASE + conn);
                    return;
                }
                self.start_op(ctx, conn);
            }
            Err(ExecStall::Miss(page)) => {
                if let Some(rt) = self.running.get_mut(&conn) {
                    rt.phase = Phase::PageWait;
                }
                self.request_page(ctx, page, conn);
            }
            Err(ExecStall::Abort(reason)) => {
                self.abort_txn(ctx, conn, reason);
            }
        }
    }

    fn try_exec_op(&mut self, conn: u64, op: &Op) -> Result<OpResult, ExecStall> {
        let txn = self.running.get(&conn).expect("running").txn;
        let tree = self.tree;
        let row_size = self.cfg.row_size;
        match op {
            Op::Get(k) => {
                let mut p = PoolProvider::new(&mut self.pool);
                tree.get(&mut p, *k).map(OpResult::Row).map_err(stall_from)
            }
            Op::Scan(k, n) => {
                let mut p = PoolProvider::new(&mut self.pool);
                tree.scan(&mut p, *k, *n)
                    .map(OpResult::Rows)
                    .map_err(stall_from)
            }
            write => {
                let key = write.write_key().unwrap();
                // read old value
                let old = tree
                    .get(&mut PoolProvider::new(&mut self.pool), key)
                    .map_err(stall_from)?;
                let (change, inverse) =
                    plan_write(write, old, row_size).map_err(ExecStall::Abort)?;
                let mut p = PoolProvider::new(&mut self.pool);
                match &change {
                    RowChange::Insert(row) => tree.insert(&mut p, key, row),
                    RowChange::Update(row) => tree.update(&mut p, key, row),
                    RowChange::Delete => tree.delete(&mut p, key),
                }
                .map_err(stall_from)?;
                let mut bodies = p.bodies;
                // log the logical undo alongside (as InnoDB redo-logs undo)
                bodies.push(RecordBody::Undo {
                    data: encode_undo(txn, &inverse),
                });
                let rt = self.running.get_mut(&conn).unwrap();
                let first_write = !rt.wrote;
                let mut all = Vec::with_capacity(bodies.len() + 1);
                if first_write && !rt.rollback {
                    all.push(RecordBody::TxnBegin);
                }
                all.extend(bodies);
                rt.wrote = true;
                rt.undo_ops.push(inverse);
                self.alloc_lsns(all, txn);
                Ok(OpResult::Done)
            }
        }
    }

    fn finish_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let rt = self.running.remove(&conn).expect("running");
        if rt.rollback {
            self.alloc_lsns(vec![RecordBody::TxnAbort], rt.txn);
            self.locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            return;
        }
        if !rt.wrote {
            ctx.inc(name!("mysql.commits"), 1);
            ctx.inc(name!("mysql.read_txns"), 1);
            ctx.record(name!("mysql.txn_ns"), ctx.now().since(rt.issued_at).nanos());
            ctx.send(
                rt.client,
                ClientResponse {
                    conn: rt.conn,
                    result: TxnResult::Committed(rt.results),
                    issued_at: rt.issued_at,
                },
            );
            return;
        }
        let (_, commit_lsn) = self.alloc_lsns(vec![RecordBody::TxnCommit], rt.txn);
        self.commit_queue.push_back(CommitWaiter {
            conn: rt.conn,
            client: rt.client,
            issued_at: rt.issued_at,
            results: rt.results,
            txn: rt.txn,
            commit_lsn,
        });
        self.maybe_start_flush(ctx);
    }

    fn abort_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64, reason: String) {
        let Some(rt) = self.running.remove(&conn) else {
            return;
        };
        if rt.rollback {
            ctx.inc(name!("mysql.rollback_errors"), 1);
            self.locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            return;
        }
        ctx.inc(name!("mysql.aborts"), 1);
        ctx.send(
            rt.client,
            ClientResponse {
                conn: rt.conn,
                result: TxnResult::Aborted(reason),
                issued_at: rt.issued_at,
            },
        );
        if !rt.wrote {
            self.locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            return;
        }
        let inverse_ops: Vec<Op> = rt.undo_ops.iter().rev().cloned().collect();
        self.spawn_rollback(ctx, rt.txn, inverse_ops);
    }

    fn spawn_rollback(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, inverse_ops: Vec<Op>) {
        let conn = self.next_synthetic;
        self.next_synthetic += 1;
        self.running.insert(
            conn,
            RunningTxn {
                conn,
                client: aurora_sim::sim::EXTERNAL,
                issued_at: ctx.now(),
                spec: TxnSpec { ops: inverse_ops },
                pc: 0,
                results: Vec::new(),
                txn,
                phase: Phase::Cpu,
                op_started: ctx.now(),
                undo_ops: Vec::new(),
                wrote: true,
                rollback: true,
            },
        );
        self.start_op(ctx, conn);
    }

    fn resume_lock_waiters(&mut self, ctx: &mut Ctx<'_>) {
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

    // ---- reads / eviction ----

    fn request_page(&mut self, ctx: &mut Ctx<'_>, page: PageId, conn: u64) {
        if let Some(req_id) = self.page_waits.get(&page) {
            if let Some(pr) = self.reads.get_mut(req_id) {
                if !pr.conns.contains(&conn) {
                    pr.conns.push(conn);
                }
                return;
            }
        }
        let req_id = self.next_req;
        self.next_req += 1;
        self.page_waits.insert(page, req_id);
        self.reads.insert(
            req_id,
            PendingRead {
                page,
                conns: vec![conn],
            },
        );
        ctx.inc(name!("mysql.page_fetches"), 1);
        ctx.send(
            self.cfg.ebs,
            EbsReadPage {
                req_id,
                page_id: page,
            },
        );
    }

    fn on_read_resp(&mut self, ctx: &mut Ctx<'_>, resp: EbsReadResp) {
        let Some(pr) = self.reads.remove(&resp.req_id) else {
            return;
        };
        self.page_waits.remove(&pr.page);
        // room must be made: a dirty LRU victim forces a foreground flush
        // before the fetched page can come in ("the extra penalty of
        // evicting and flushing a dirty cache page")
        while self.pool.len() >= self.pool.capacity() {
            let Some((victim, dirty)) = self.pool.lru_victim() else {
                break;
            };
            if dirty {
                ctx.inc(name!("mysql.evict_flushes"), 1);
                let req_id = self.next_req - 1; // reuse: flush_page assigns its own
                let _ = req_id;
                // flush synchronously from the txn's perspective: park the
                // conns until the page write completes
                let page = self.pool.peek(victim).unwrap().clone();
                let req_id = self.next_req;
                self.next_req += 1;
                self.flusher_outstanding += 2;
                self.evictions.insert(
                    req_id,
                    PendingEvict::Flush {
                        remaining: 2,
                        victim,
                        conns: pr.conns.clone(),
                        checkpoint: false,
                    },
                );
                ctx.send(
                    self.cfg.ebs,
                    EbsWritePage {
                        req_id,
                        page_id: victim,
                        page: page.clone(),
                        doublewrite: true,
                    },
                );
                ctx.send(
                    self.cfg.ebs,
                    EbsWritePage {
                        req_id,
                        page_id: victim,
                        page,
                        doublewrite: false,
                    },
                );
                self.pool.mark_clean(victim);
                self.pool.remove(victim);
                // stash the fetched page for when the flush acks
                self.pool.insert_unchecked(resp.page_id, resp.page);
                for conn in &pr.conns {
                    if let Some(rt) = self.running.get_mut(conn) {
                        rt.phase = Phase::EvictWait;
                    }
                }
                return;
            }
            self.pool.remove(victim);
        }
        self.pool.insert_unchecked(resp.page_id, resp.page);
        for conn in pr.conns {
            if self.running.contains_key(&conn) {
                self.exec_current_op(ctx, conn);
            }
        }
    }

    fn on_ebs_ack(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        // page-flush acks
        if let Some(PendingEvict::Flush { remaining, .. }) = self.evictions.get_mut(&req_id) {
            *remaining -= 1;
            self.flusher_outstanding = self.flusher_outstanding.saturating_sub(1);
            if *remaining == 0 {
                let Some(PendingEvict::Flush {
                    conns, checkpoint, ..
                }) = self.evictions.remove(&req_id)
                else {
                    unreachable!()
                };
                for conn in conns {
                    if self.running.contains_key(&conn) {
                        self.exec_current_op(ctx, conn);
                    }
                }
                if checkpoint {
                    self.drive_checkpoint(ctx);
                }
            }
            return;
        }
        // otherwise this is the commit chain's log/binlog ack
        self.on_flush_ack(ctx);
    }

    // ---- bootstrap / recovery ----

    fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let tree = self.tree;
        self.pool.insert_unchecked(PageId(0), Page::new());
        let bodies = {
            let mut p = PoolProvider::new(&mut self.pool);
            tree.create(&mut p).expect("create");
            p.bodies
        };
        self.alloc_lsns(bodies, TxnId::SYSTEM);
        self.bootstrap_next = 0;
        self.bootstrap_chunk(ctx);
    }

    fn bootstrap_chunk(&mut self, ctx: &mut Ctx<'_>) {
        const CHUNK: u64 = 4_000;
        let tree = self.tree;
        let rows = self.cfg.bootstrap_rows;
        let end = (self.bootstrap_next + CHUNK).min(rows);
        for k in self.bootstrap_next..end {
            let row = aurora_core::engine::bootstrap_row(k, self.cfg.row_size);
            let bodies = {
                let mut p = PoolProvider::new(&mut self.pool);
                tree.insert(&mut p, k, &row).expect("bootstrap insert");
                p.bodies
            };
            self.alloc_lsns(bodies, TxnId::SYSTEM);
            // ship the log in chunks so the EBS actor isn't flooded
            if self.log_buffer.len() >= 4_096 {
                let records = std::mem::take(&mut self.log_buffer);
                let bytes = std::mem::take(&mut self.log_buffer_bytes);
                let req_id = self.next_req;
                self.next_req += 1;
                ctx.send(
                    self.cfg.ebs,
                    EbsAppend {
                        req_id,
                        bytes,
                        records,
                        binlog: false,
                    },
                );
            }
        }
        self.bootstrap_next = end;
        if end < rows {
            // flush dirty pages in the background as the load proceeds so
            // the final checkpoint is not one giant burst
            let dirty = self.pool.dirty_pages();
            for page_id in dirty.into_iter().take(512) {
                if let Some(page) = self.pool.peek(page_id) {
                    let page = page.clone();
                    let req_id = self.next_req;
                    self.next_req += 1;
                    ctx.send(
                        self.cfg.ebs,
                        EbsWritePage {
                            req_id,
                            page_id,
                            page,
                            doublewrite: false,
                        },
                    );
                    self.pool.mark_clean(page_id);
                }
            }
            ctx.set_timer(SimDuration::from_millis(2), TAG_BOOTSTRAP);
            return;
        }
        // final flush: bootstrap pages durable, checkpoint taken
        let dirty = self.pool.dirty_pages();
        for page_id in dirty {
            if let Some(page) = self.pool.peek(page_id) {
                let page = page.clone();
                let req_id = self.next_req;
                self.next_req += 1;
                ctx.send(
                    self.cfg.ebs,
                    EbsWritePage {
                        req_id,
                        page_id,
                        page,
                        doublewrite: false,
                    },
                );
                self.pool.mark_clean(page_id);
            }
        }
        let records = std::mem::take(&mut self.log_buffer);
        let bytes = std::mem::take(&mut self.log_buffer_bytes);
        if !records.is_empty() {
            let req_id = self.next_req;
            self.next_req += 1;
            ctx.send(
                self.cfg.ebs,
                EbsAppend {
                    req_id,
                    bytes,
                    records,
                    binlog: false,
                },
            );
        }
        self.durable_checkpoint = Lsn(self.next_lsn - 1);
        self.redo_since_checkpoint = 0;
        self.pool.shrink_to_capacity(Lsn(u64::MAX));
        self.status = Status::Ready;
        ctx.inc(name!("mysql.bootstrap_rows"), self.cfg.bootstrap_rows);
    }

    fn start_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.status = Status::Recovering;
        self.replay_started = ctx.now();
        let req_id = self.next_req;
        self.next_req += 1;
        ctx.send(
            self.cfg.ebs,
            ReplayReq {
                req_id,
                from_lsn: Lsn::ZERO,
            },
        );
    }

    fn on_replay(&mut self, ctx: &mut Ctx<'_>, records: Vec<LogRecord>) {
        // charge replay time for the tail since the checkpoint — this is
        // the cost Aurora eliminates (§4.3)
        let tail = records
            .iter()
            .filter(|r| r.lsn > self.durable_checkpoint)
            .count() as u64;
        let replay = SimDuration::from_secs_f64(tail as f64 / self.cfg.replay_rate.max(1) as f64);
        // fold the tail into the EBS page images
        let apply: Vec<LogRecord> = records
            .iter()
            .filter(|r| r.lsn > self.durable_checkpoint)
            .cloned()
            .collect();
        ctx.send(self.cfg.ebs, crate::ebs::ApplyToPages { records: apply });
        // reconstruct txn status + logical undo set
        let mut begun: Vec<TxnId> = Vec::new();
        let mut finished: Vec<TxnId> = Vec::new();
        let mut undos: Vec<(Lsn, TxnId, Op)> = Vec::new();
        let mut max_lsn = 0u64;
        let mut max_txn = 0u64;
        for r in &records {
            max_lsn = max_lsn.max(r.lsn.0);
            max_txn = max_txn.max(r.txn.0);
            match &r.body {
                RecordBody::TxnBegin => begun.push(r.txn),
                RecordBody::TxnCommit | RecordBody::TxnAbort => finished.push(r.txn),
                RecordBody::Undo { data } => {
                    if let Some((t, op)) = decode_undo(data) {
                        undos.push((r.lsn, t, op));
                    }
                }
                _ => {}
            }
        }
        self.next_lsn = max_lsn + 1;
        self.next_txn = max_txn + 1;
        let in_flight: Vec<TxnId> = begun
            .into_iter()
            .filter(|t| !finished.contains(t))
            .collect();
        // stash rollbacks to run after the replay pause (BTreeMap so the
        // rollback order is txn-id order, not hash order)
        let mut per_txn: std::collections::BTreeMap<TxnId, Vec<(Lsn, Op)>> =
            std::collections::BTreeMap::new();
        for (lsn, t, op) in undos {
            if in_flight.contains(&t) {
                per_txn.entry(t).or_default().push((lsn, op));
            }
        }
        self.pending_rollbacks = per_txn
            .into_iter()
            .map(|(t, mut ops)| {
                ops.sort_by_key(|(l, _)| std::cmp::Reverse(*l));
                (t, ops.into_iter().map(|(_, op)| op).collect())
            })
            .collect();
        ctx.set_timer(replay, TAG_REPLAY_DONE);
    }
}

impl Actor for MysqlEngine {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                self.bootstrap(ctx);
                ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Restarted => {
                self.start_recovery(ctx);
                ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Timer { tag } => match tag {
                TAG_FLUSHER => {
                    if !self.checkpoint_active {
                        let dirty = self.pool.dirty_pages();
                        for page_id in dirty.into_iter().take(self.cfg.flusher_batch) {
                            self.flush_page(ctx, page_id, false);
                        }
                    }
                    ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                }
                TAG_SWEEP => {
                    let now = ctx.now();
                    let timed_out: Vec<u64> = self
                        .running
                        .iter()
                        .filter(|(_, rt)| {
                            matches!(rt.phase, Phase::LockWait { since, .. }
                                if now.since(since) > self.cfg.lock_wait_timeout)
                        })
                        .map(|(c, _)| *c)
                        .collect();
                    for conn in timed_out {
                        ctx.inc(name!("mysql.lock_timeouts"), 1);
                        self.abort_txn(ctx, conn, "lock wait timeout".into());
                    }
                    ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
                }
                TAG_BOOTSTRAP if self.status == Status::Bootstrapping => {
                    self.bootstrap_chunk(ctx);
                }
                TAG_REPLAY_DONE => {
                    self.status = Status::Ready;
                    ctx.inc(name!("mysql.recoveries"), 1);
                    ctx.record(
                        name!("mysql.recovery_ns"),
                        ctx.now().since(self.replay_started).nanos(),
                    );
                    let rollbacks = std::mem::take(&mut self.pending_rollbacks);
                    for (t, ops) in rollbacks {
                        self.spawn_rollback(ctx, t, ops);
                    }
                }
                t if t >= TAG_CPU_BASE => {
                    self.exec_current_op(ctx, t - TAG_CPU_BASE);
                }
                t if t >= TAG_MUTEX_BASE => {
                    // log mutex released: proceed to the next op
                    self.start_op(ctx, t - TAG_MUTEX_BASE);
                }
                _ => {}
            },
            ActorEvent::Message { from, msg } => {
                let _ = from;
                let msg = match msg.downcast::<ClientRequest>() {
                    Ok(req) => {
                        self.begin_request(ctx, from, req);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsAck>() {
                    Ok(a) => {
                        self.on_ebs_ack(ctx, a.req_id);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsReadResp>() {
                    Ok(r) => {
                        self.on_read_resp(ctx, r);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<StandbyAck>() {
                    Ok(_) => {
                        self.on_flush_ack(ctx);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(r) = msg.downcast::<ReplayResp>() {
                    self.on_replay(ctx, r.records);
                }
            }
            ActorEvent::DiskDone { .. } => {}
        }
    }

    fn on_crash(&mut self) {
        self.status = Status::Recovering;
        self.pool.clear();
        self.log_buffer.clear();
        self.log_buffer_bytes = 0;
        self.commit_queue.clear();
        self.flush = None;
        self.locks = LockTable::new();
        self.running.clear();
        self.reads.clear();
        self.page_waits.clear();
        self.evictions.clear();
        self.stalled_writes.clear();
        self.checkpoint_active = false;
        self.checkpoint_queue.clear();
        self.flusher_outstanding = 0;
        self.pending_rollbacks.clear();
        self.log_mutex_free = SimTime::ZERO;
        let vcpus = self.cfg.instance.vcpus as usize;
        self.vcpu_free = vec![SimTime::ZERO; vcpus];
        // durable_checkpoint survives (it lives in the log header on EBS)
    }
}
