//! Memory-lean session fleet for connection-scale experiments.
//!
//! A [`SessionFleet`] models tens of thousands to a million *logical
//! sessions* against one proxy node. The classic [`crate::workload`]
//! actor keeps per-connection request state and one kernel timer per
//! open-loop arrival; at 1M sessions that is 1M timer-wheel entries and
//! megabytes of per-session state. The fleet instead keeps one `u32`
//! per idle session:
//!
//! * Sessions are identified by dense indices `0..sessions`; the wire
//!   connection id is `base_conn + idx` (base assignments keep ids dense
//!   across all fleets so the proxy's session bitmap stays small).
//! * Idle sessions sit in a coarse internal **think wheel**
//!   (`Vec<Vec<u32>>`, one bucket per `tick`), driven by a *single*
//!   kernel timer per fleet. Think times are exponentially distributed
//!   with mean `think`, quantized to the tick (10 ms by default —
//!   human-scale think times do not need microsecond resolution).
//! * A session has at most one transaction in flight: it re-enters the
//!   wheel only when its response (commit, abort or shed) arrives.
//!
//! Total fleet state is O(sessions) × 4 bytes plus the bucket ring, so a
//! million open-loop sessions fit comfortably in memory — the point of
//! the §6.3 "thousands of connections" scale-out story.
//!
//! Metrics: `fleet.issued`, `fleet.commits`, `fleet.aborts`,
//! `fleet.sheds` (aborts whose reason starts with `"shed"` — proxy
//! admission control), `fleet.txn_ns` (committed end-to-end latency).

use aurora_core::wire::{ClientRequest, ClientResponse, TxnResult};
use aurora_sim::{name, Actor, ActorEvent, Ctx, NodeId, SimDuration, SimRng, Tag};

use crate::workload::{gen_txn, Mix};

const TAG_TICK: Tag = 1;

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Proxy node this fleet's sessions connect through.
    pub proxy: NodeId,
    /// Logical sessions.
    pub sessions: u32,
    /// First wire connection id (`conn = base_conn + idx`).
    pub base_conn: u64,
    pub mix: Mix,
    pub keyspace: u64,
    pub value_size: usize,
    /// Mean think time between a response and the session's next
    /// transaction (exponential).
    pub think: SimDuration,
    /// Initial issues are spread uniformly over this ramp, so a million
    /// sessions do not stampede the proxy in one event.
    pub ramp: SimDuration,
    /// Think-wheel granularity (one kernel timer per tick).
    pub tick: SimDuration,
    pub seed: u64,
}

impl FleetConfig {
    pub fn new(proxy: NodeId, sessions: u32) -> FleetConfig {
        FleetConfig {
            proxy,
            sessions,
            base_conn: 0,
            mix: Mix::WriteOnly { writes: 1 },
            keyspace: 10_000,
            value_size: 64,
            think: SimDuration::from_secs(1),
            ramp: SimDuration::from_millis(400),
            tick: SimDuration::from_millis(10),
            seed: 1,
        }
    }
}

/// The fleet actor. See module docs.
pub struct SessionFleet {
    cfg: FleetConfig,
    rng: SimRng,
    /// Think wheel: `buckets[t % W]` holds sessions due at tick `t`.
    buckets: Vec<Vec<u32>>,
    /// Ticks elapsed since start (bucket cursor).
    tick_no: u64,
    /// Scratch for the bucket being drained (swap, not realloc).
    scratch: Vec<u32>,
    pub issued: u64,
    pub commits: u64,
    pub aborts: u64,
    pub sheds: u64,
}

impl SessionFleet {
    pub fn new(cfg: FleetConfig) -> SessionFleet {
        assert!(cfg.sessions > 0);
        assert!(cfg.tick.nanos() > 0);
        let rng = SimRng::new(cfg.seed ^ 0x5EED_F1EE_7000_0001 ^ cfg.base_conn);
        // The wheel must span the think-time clamp ceiling (8× mean) and
        // the initial ramp; +2 slots of slack for rounding.
        let tick_ns = cfg.tick.nanos();
        let horizon_ns = (cfg.think.nanos().saturating_mul(8)).max(cfg.ramp.nanos());
        let slots = (horizon_ns / tick_ns + 2).max(4) as usize;
        SessionFleet {
            cfg,
            rng,
            buckets: (0..slots).map(|_| Vec::new()).collect(),
            tick_no: 0,
            scratch: Vec::new(),
            issued: 0,
            commits: 0,
            aborts: 0,
            sheds: 0,
        }
    }

    /// Wheel width in ticks.
    fn wheel_slots(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Park `idx` to wake `delay_ticks` from now (clamped into the wheel).
    fn park(&mut self, idx: u32, delay_ticks: u64) {
        let w = self.wheel_slots();
        let d = delay_ticks.clamp(1, w - 1);
        let slot = ((self.tick_no + d) % w) as usize;
        self.buckets[slot].push(idx);
    }

    /// Sample a think delay in ticks: exponential with mean `think`,
    /// clamped to [1 tick, 8× mean].
    fn think_ticks(&mut self) -> u64 {
        let mean = self.cfg.think.secs_f64();
        let d = self.rng.exponential(mean).min(mean * 8.0);
        let tick = self.cfg.tick.secs_f64();
        ((d / tick).round() as u64).max(1)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        let txn = gen_txn(
            &self.cfg.mix.clone(),
            self.cfg.keyspace,
            self.cfg.value_size,
            &mut self.rng,
        );
        self.issued += 1;
        ctx.inc(name!("fleet.issued"), 1);
        ctx.send(
            self.cfg.proxy,
            ClientRequest {
                conn: self.cfg.base_conn + idx as u64,
                txn,
                issued_at: ctx.now(),
            },
        );
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.tick_no += 1;
        let slot = (self.tick_no % self.wheel_slots()) as usize;
        // swap, don't realloc: the ring keeps the (now empty) scratch vec
        self.scratch.clear();
        std::mem::swap(&mut self.scratch, &mut self.buckets[slot]);
        let n = self.scratch.len();
        for i in 0..n {
            let idx = self.scratch[i];
            self.issue(ctx, idx);
        }
        ctx.set_timer(self.cfg.tick, TAG_TICK);
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: ClientResponse) {
        let Some(off) = resp.conn.checked_sub(self.cfg.base_conn) else {
            return;
        };
        if off >= self.cfg.sessions as u64 {
            return;
        }
        let idx = off as u32;
        match &resp.result {
            TxnResult::Committed(_) => {
                self.commits += 1;
                ctx.inc(name!("fleet.commits"), 1);
                ctx.record(
                    name!("fleet.txn_ns"),
                    ctx.now().since(resp.issued_at).nanos(),
                );
            }
            TxnResult::Aborted(reason) if reason.starts_with("shed") => {
                self.sheds += 1;
                ctx.inc(name!("fleet.sheds"), 1);
            }
            TxnResult::Aborted(_) => {
                self.aborts += 1;
                ctx.inc(name!("fleet.aborts"), 1);
            }
        }
        let d = self.think_ticks();
        self.park(idx, d);
    }
}

impl Actor for SessionFleet {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                // Spread first issues uniformly over the ramp.
                let tick_ns = self.cfg.tick.nanos();
                let ramp_ns = self.cfg.ramp.nanos();
                let n = self.cfg.sessions as u64;
                for idx in 0..self.cfg.sessions {
                    let at_ns = ramp_ns.saturating_mul(idx as u64) / n;
                    self.park(idx, at_ns / tick_ns + 1);
                }
                ctx.set_timer(self.cfg.tick, TAG_TICK);
            }
            // in-flight state survives a restart; just resume ticking
            ActorEvent::Restarted => {
                ctx.set_timer(self.cfg.tick, TAG_TICK);
            }
            ActorEvent::Timer { tag: TAG_TICK } => self.on_tick(ctx),
            ActorEvent::Message { msg, .. } => {
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    self.on_response(ctx, resp);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(sessions: u32) -> SessionFleet {
        SessionFleet::new(FleetConfig::new(0, sessions))
    }

    #[test]
    fn wheel_spans_think_clamp_and_ramp() {
        let f = fleet(100);
        // think 1 s, tick 10 ms → 8 s horizon → ≥ 800 slots
        assert!(f.wheel_slots() >= 800, "{}", f.wheel_slots());

        let mut cfg = FleetConfig::new(0, 10);
        cfg.ramp = SimDuration::from_secs(20); // ramp longer than think clamp
        let f = SessionFleet::new(cfg);
        assert!(f.wheel_slots() >= 2_000);
    }

    #[test]
    fn park_clamps_into_wheel() {
        let mut f = fleet(10);
        let w = f.wheel_slots();
        f.park(3, 0); // below → 1 tick
        f.park(4, w * 10); // beyond → w-1 ticks
        let one = ((f.tick_no + 1) % w) as usize;
        let far = ((f.tick_no + w - 1) % w) as usize;
        assert_eq!(f.buckets[one], vec![3]);
        assert_eq!(f.buckets[far], vec![4]);
    }

    #[test]
    fn think_ticks_bounded() {
        let mut f = fleet(10);
        // think 1 s @ 10 ms ticks: samples in [1, ~800]
        for _ in 0..10_000 {
            let t = f.think_ticks();
            assert!((1..=801).contains(&t), "{t}");
        }
    }

    #[test]
    fn idle_state_is_four_bytes_per_session() {
        let mut f = fleet(1_000);
        for idx in 0..1_000u32 {
            f.park(idx, 1 + (idx as u64 % 700));
        }
        let parked: usize = f.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(parked, 1_000);
    }
}
