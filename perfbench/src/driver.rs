//! Open-loop client driver with exact client-side latency.
//!
//! Requests arrive as a Poisson process at a settable rate, whatever the
//! system does with earlier ones. Each request is built with the public
//! `gen_txn`, so the op stream matches the program's own workload mixes.
//! Latency is taken from the request's due time, exactly, in simulated
//! nanoseconds: no histogram buckets. Aborted and shed requests, and
//! requests still unanswered when the run ends, count as failed.
//!
//! The driver also tracks, per key, which acknowledged upsert must be the
//! row's final value: an upsert that started with no other write to its key
//! in flight and saw none issued before its acknowledgement. The read-back
//! check compares those keys' rows after the run drains.

use std::collections::HashMap;

use aurora_bench::workload::{gen_txn, Mix};
use aurora_core::wire::{ClientRequest, ClientResponse, Op, TxnResult};
use aurora_sim::{Actor, ActorEvent, Ctx, NodeId, SimDuration, SimRng, Tag};

use crate::report::Digest;

const TAG_ARRIVAL: Tag = 1;

/// Engine rows are the written value zero-padded to this many bytes.
pub const ROW_SIZE: usize = 96;

/// Digest of a row as stored by the engine (zero-padded to `ROW_SIZE`).
pub fn row_hash(value: &[u8]) -> u64 {
    let mut row = [0u8; ROW_SIZE];
    let n = value.len().min(ROW_SIZE);
    row[..n].copy_from_slice(&value[..n]);
    let mut d = Digest::new();
    d.bytes(&row);
    d.finish()
}

/// One phase (warmup, a rung's settle, a rung's window, the drain after
/// `stop`). `issued`, `committed` and `latencies_ns` belong to the requests
/// issued in the phase; `completed` counts the commits whose response
/// arrived in it, so it falls below the offered rate when the system cannot
/// keep up.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub issued: u64,
    pub committed: u64,
    pub completed: u64,
    /// Exact latency of each committed request, ns from its due time.
    pub latencies_ns: Vec<u64>,
}

struct Pending {
    due_ns: u64,
    phase: usize,
    /// (key, write generation, row hash, key idle when issued)
    writes: Vec<(u64, u32, u64, bool)>,
}

#[derive(Clone, Copy, Default)]
struct KeyState {
    generation: u32,
    in_flight: u16,
    /// Hash of the row the key must hold, 0 while unknown.
    expected: u64,
}

/// The driver actor. See module docs.
pub struct OpenLoop {
    target: NodeId,
    mix: Mix,
    keyspace: u64,
    value_size: usize,
    rng: SimRng,
    rate: f64,
    phase: usize,
    stopped: bool,
    next_conn: u64,
    pending: HashMap<u64, Pending>,
    keys: Vec<KeyState>,
    pub phases: Vec<PhaseStats>,
}

impl OpenLoop {
    pub fn new(
        target: NodeId,
        mix: Mix,
        keyspace: u64,
        value_size: usize,
        rate: f64,
        seed: u64,
    ) -> Self {
        OpenLoop {
            target,
            mix,
            keyspace,
            value_size,
            rng: SimRng::new(seed ^ 0x0BE4_C4B1_0000_0001),
            rate,
            phase: 0,
            stopped: false,
            next_conn: 1,
            pending: HashMap::new(),
            keys: vec![KeyState::default(); keyspace as usize],
            phases: vec![PhaseStats::default()],
        }
    }

    /// Start a new phase at `rate` txn/s; returns its index.
    pub fn begin_phase(&mut self, rate: f64) -> usize {
        self.rate = rate;
        self.phases.push(PhaseStats::default());
        self.phase = self.phases.len() - 1;
        self.phase
    }

    /// Stop issuing and open the drain phase. Later responses still count
    /// toward the phase that issued them, and are completed in the drain.
    pub fn stop(&mut self) {
        self.stopped = true;
        self.begin_phase(0.0);
    }

    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Keys whose final row is known, with the expected row hash, in key
    /// order.
    pub fn expected_rows(&self) -> Vec<(u64, u64)> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.expected != 0 && k.in_flight == 0)
            .map(|(i, k)| (i as u64, k.expected))
            .collect()
    }

    fn arrive(&mut self, ctx: &mut Ctx<'_>) {
        if self.stopped {
            return;
        }
        let gap = self.rng.exponential(1.0 / self.rate.max(1e-9));
        ctx.set_timer(SimDuration::from_secs_f64(gap), TAG_ARRIVAL);

        let txn = gen_txn(&self.mix, self.keyspace, self.value_size, &mut self.rng);
        // last write to a key inside one transaction wins
        let mut last: Vec<(u64, u64)> = Vec::new();
        for op in &txn.ops {
            if let Op::Upsert(k, v) = op {
                let h = row_hash(v);
                match last.iter_mut().find(|(key, _)| key == k) {
                    Some(slot) => slot.1 = h,
                    None => last.push((*k, h)),
                }
            }
        }
        let writes = last
            .into_iter()
            .map(|(k, h)| {
                let ks = &mut self.keys[k as usize];
                let idle = ks.in_flight == 0;
                ks.generation = ks.generation.wrapping_add(1);
                ks.in_flight += 1;
                ks.expected = 0;
                (k, ks.generation, h, idle)
            })
            .collect();
        let conn = self.next_conn;
        self.next_conn += 1;
        let now = ctx.now();
        self.pending.insert(
            conn,
            Pending {
                due_ns: now.nanos(),
                phase: self.phase,
                writes,
            },
        );
        self.phases[self.phase].issued += 1;
        ctx.send(
            self.target,
            ClientRequest {
                conn,
                txn,
                issued_at: now,
            },
        );
    }

    fn on_response(&mut self, now_ns: u64, resp: ClientResponse) {
        let Some(p) = self.pending.remove(&resp.conn) else {
            return; // duplicate delivery
        };
        let committed = matches!(resp.result, TxnResult::Committed(_));
        for (k, generation, h, idle) in p.writes {
            let ks = &mut self.keys[k as usize];
            ks.in_flight -= 1;
            if committed && idle && ks.generation == generation && ks.in_flight == 0 {
                ks.expected = h;
            }
        }
        if committed {
            let stats = &mut self.phases[p.phase];
            stats.committed += 1;
            stats.latencies_ns.push(now_ns - p.due_ns);
            self.phases[self.phase].completed += 1;
        }
    }
}

impl Actor for OpenLoop {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => self.arrive(ctx),
            ActorEvent::Timer { tag: TAG_ARRIVAL } => self.arrive(ctx),
            ActorEvent::Message { msg, .. } => {
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    self.on_response(ctx.now().nanos(), resp);
                }
            }
            _ => {}
        }
    }
}
