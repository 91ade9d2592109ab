//! Workload generators.
//!
//! A [`WorkloadActor`] models a fleet of client connections against one
//! database node. Closed-loop mode (the SysBench/TPC-C way) keeps exactly
//! one transaction in flight per connection; open-loop mode issues
//! transactions at a fixed aggregate rate regardless of completions (used
//! by the replica-lag experiments, which fix writes/sec).
//!
//! Mixes follow the benchmarks the paper uses:
//! * **SysBench read-only** — point selects (reported as reads/sec),
//! * **SysBench write-only** — index/non-index update statements
//!   (reported as writes/sec),
//! * **SysBench OLTP** — 10 point selects, 1 range scan, 4 writes,
//! * **TPC-C-like** — New-Order-shaped: hot warehouse/district rows
//!   under a skewed distribution plus uniform item lines (tpmC ∝
//!   committed transactions/minute),
//! * **Web** — the §6.2 customer workload: a small read-heavy
//!   transaction per web request.

use aurora_core::wire::{ClientRequest, ClientResponse, Op, TxnResult, TxnSpec};
use aurora_sim::{name, Actor, ActorEvent, Ctx, NodeId, SimDuration, SimRng, Tag};

const TAG_OPEN_LOOP: Tag = 1;

/// Transaction mix.
#[derive(Debug, Clone)]
pub enum Mix {
    /// `selects` point reads per transaction.
    ReadOnly { selects: usize },
    /// `writes` update statements per transaction.
    WriteOnly { writes: usize },
    /// Classic SysBench OLTP: 10 selects, 1 scan(10), 4 writes.
    Oltp,
    /// New-Order-like: 1 hot warehouse update, 1 hot district update,
    /// `items` uniform item reads + stock writes.
    TpccLike { warehouses: u64, items: usize },
    /// Web request: `reads` point selects + `writes` updates.
    Web { reads: usize, writes: usize },
}

impl Mix {
    /// Write statements per transaction (for writes/sec reporting).
    pub fn writes_per_txn(&self) -> u64 {
        match self {
            Mix::ReadOnly { .. } => 0,
            Mix::WriteOnly { writes } => *writes as u64,
            Mix::Oltp => 4,
            Mix::TpccLike { items, .. } => 2 + *items as u64,
            Mix::Web { writes, .. } => *writes as u64,
        }
    }

    /// Read statements per transaction.
    pub fn reads_per_txn(&self) -> u64 {
        match self {
            Mix::ReadOnly { selects } => *selects as u64,
            Mix::WriteOnly { .. } => 0,
            Mix::Oltp => 11,
            Mix::TpccLike { items, .. } => 1 + *items as u64,
            Mix::Web { reads, .. } => *reads as u64,
        }
    }
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Database node to drive.
    pub target: NodeId,
    /// Concurrent connections.
    pub connections: usize,
    pub mix: Mix,
    /// Keys are drawn from `[0, keyspace)` (the bootstrap row range).
    pub keyspace: u64,
    /// Open-loop arrival rate in transactions/sec (None = closed loop).
    pub rate: Option<f64>,
    /// RNG seed fork.
    pub seed: u64,
    /// Value payload size.
    pub value_size: usize,
}

/// Generate one transaction of the given mix. Shared by the classic
/// [`WorkloadActor`] and the scale-out session fleet (`fleet` module) so
/// both drivers draw identical op streams from identical RNG state.
pub fn gen_txn(mix: &Mix, keyspace: u64, value_size: usize, rng: &mut SimRng) -> TxnSpec {
    let ks = keyspace.max(1);
    let vs = value_size;
    let mut val_rng = rng.fork();
    let mut val = move || {
        let mut v = vec![0u8; vs];
        val_rng.bytes(&mut v);
        v
    };
    let ops = match mix.clone() {
        Mix::ReadOnly { selects } => (0..selects)
            .map(|_| Op::Get(rng.range_u64(0, ks)))
            .collect(),
        Mix::WriteOnly { writes } => (0..writes)
            .map(|_| Op::Upsert(rng.range_u64(0, ks), val()))
            .collect(),
        Mix::Oltp => {
            let mut ops: Vec<Op> = (0..10).map(|_| Op::Get(rng.range_u64(0, ks))).collect();
            ops.push(Op::Scan(rng.range_u64(0, ks), 10));
            for _ in 0..4 {
                ops.push(Op::Upsert(rng.range_u64(0, ks), val()));
            }
            ops
        }
        Mix::TpccLike { warehouses, items } => {
            // hot rows: warehouse w occupies key w, district rows the
            // next 10*warehouses keys; items above that
            let w = rng.skewed_index(warehouses as usize, 0.7) as u64;
            let d = rng.range_u64(0, 10);
            let mut ops = vec![
                Op::Get(w),
                Op::Upsert(w, val()),                       // W_YTD update
                Op::Upsert(warehouses + w * 10 + d, val()), // D_NEXT_O_ID
            ];
            let item_base = warehouses * 11;
            for _ in 0..items {
                let item = item_base + rng.range_u64(0, ks.saturating_sub(item_base).max(1));
                ops.push(Op::Get(item));
                ops.push(Op::Upsert(item, val()));
            }
            ops
        }
        Mix::Web { reads, writes } => {
            let mut ops: Vec<Op> = (0..reads).map(|_| Op::Get(rng.range_u64(0, ks))).collect();
            for _ in 0..writes {
                ops.push(Op::Upsert(rng.range_u64(0, ks), val()));
            }
            ops
        }
    };
    TxnSpec { ops }
}

/// Drives transactions and records client-side statistics:
/// `client.commits`, `client.aborts`, `client.txn_ns`.
pub struct WorkloadActor {
    cfg: WorkloadConfig,
    rng: SimRng,
    next_conn: u64,
    /// committed / aborted seen (inspection)
    pub commits: u64,
    pub aborts: u64,
}

impl WorkloadActor {
    pub fn new(cfg: WorkloadConfig) -> Self {
        let rng = SimRng::new(cfg.seed ^ 0x5EED_F00D);
        WorkloadActor {
            cfg,
            rng,
            next_conn: 0,
            commits: 0,
            aborts: 0,
        }
    }

    fn gen_txn(&mut self) -> TxnSpec {
        gen_txn(
            &self.cfg.mix.clone(),
            self.cfg.keyspace,
            self.cfg.value_size,
            &mut self.rng,
        )
    }

    fn launch(&mut self, ctx: &mut Ctx<'_>) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let txn = self.gen_txn();
        ctx.send(
            self.cfg.target,
            ClientRequest {
                conn,
                txn,
                issued_at: ctx.now(),
            },
        );
    }

    fn open_loop_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rate) = self.cfg.rate else { return };
        // exponential inter-arrival at the aggregate rate
        let gap = self.rng.exponential(1.0 / rate.max(1e-9));
        ctx.set_timer(SimDuration::from_secs_f64(gap), TAG_OPEN_LOOP);
        self.launch(ctx);
    }
}

impl Actor for WorkloadActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start | ActorEvent::Restarted => {
                if self.cfg.rate.is_some() {
                    self.open_loop_tick(ctx);
                } else {
                    for _ in 0..self.cfg.connections {
                        self.launch(ctx);
                    }
                }
            }
            ActorEvent::Timer { tag: TAG_OPEN_LOOP } => self.open_loop_tick(ctx),
            ActorEvent::Message { msg, .. } => {
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    let latency = ctx.now().since(resp.issued_at).nanos();
                    match resp.result {
                        TxnResult::Committed(_) => {
                            self.commits += 1;
                            ctx.inc(name!("client.commits"), 1);
                            ctx.record(name!("client.txn_ns"), latency);
                        }
                        TxnResult::Aborted(_) => {
                            self.aborts += 1;
                            ctx.inc(name!("client.aborts"), 1);
                        }
                    }
                    // closed loop: replace the finished transaction
                    if self.cfg.rate.is_none() {
                        self.launch(ctx);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mix: Mix) -> WorkloadConfig {
        WorkloadConfig {
            target: 0,
            connections: 4,
            mix,
            keyspace: 1_000,
            rate: None,
            seed: 7,
            value_size: 16,
        }
    }

    #[test]
    fn mixes_generate_expected_shapes() {
        let mut w = WorkloadActor::new(cfg(Mix::Oltp));
        let t = w.gen_txn();
        assert_eq!(t.ops.len(), 15);
        assert_eq!(t.ops.iter().filter(|o| o.is_read()).count(), 11);

        let mut w = WorkloadActor::new(cfg(Mix::WriteOnly { writes: 4 }));
        let t = w.gen_txn();
        assert_eq!(t.ops.len(), 4);
        assert!(t.ops.iter().all(|o| !o.is_read()));

        let mut w = WorkloadActor::new(cfg(Mix::ReadOnly { selects: 10 }));
        let t = w.gen_txn();
        assert!(t.ops.iter().all(|o| o.is_read()));
    }

    #[test]
    fn tpcc_mix_hits_hot_rows() {
        let mut w = WorkloadActor::new(cfg(Mix::TpccLike {
            warehouses: 10,
            items: 3,
        }));
        let mut warehouse_hits = vec![0u32; 10];
        for _ in 0..1_000 {
            let t = w.gen_txn();
            if let Op::Get(k) = t.ops[0] {
                warehouse_hits[k as usize] += 1;
            }
        }
        // skew: warehouse 0 absorbs far more than 1/10 of the traffic
        assert!(warehouse_hits[0] > 200, "{warehouse_hits:?}");
    }

    #[test]
    fn writes_and_reads_per_txn_accounting() {
        assert_eq!(Mix::Oltp.writes_per_txn(), 4);
        assert_eq!(Mix::Oltp.reads_per_txn(), 11);
        assert_eq!(Mix::WriteOnly { writes: 2 }.writes_per_txn(), 2);
        assert_eq!(Mix::ReadOnly { selects: 5 }.reads_per_txn(), 5);
        assert_eq!(
            Mix::TpccLike {
                warehouses: 10,
                items: 5
            }
            .writes_per_txn(),
            7
        );
    }

    #[test]
    fn keys_stay_in_keyspace() {
        let mut w = WorkloadActor::new(cfg(Mix::WriteOnly { writes: 8 }));
        for _ in 0..200 {
            for op in w.gen_txn().ops {
                if let Some(k) = op.write_key() {
                    assert!(k < 1_000);
                }
            }
        }
    }
}
