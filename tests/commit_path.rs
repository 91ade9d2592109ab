//! Commit-path regression tests for the adaptive group-commit work: the
//! flush-timer armed-guard (no doubled cadence across failover), ack
//! latency attribution under packet chaos (retransmits must not smear the
//! histogram, duplicated acks must not inflate it), the adaptive policy's
//! idle-pipe fast path, and bit-identical replay of the new timer logic.

use aurora::core::cluster::{Cluster, ClusterConfig};
use aurora::core::engine::{EngineActor, EngineStatus, RetransmitPolicy, ShipPolicy};
use aurora::core::wire::{Op, Promote, TxnResult, TxnSpec};
use aurora::log::{Lsn, PgId, SegmentId};
use aurora::quorum::VolumeEpoch;
use aurora::sim::hash::FxHasher;
use aurora::sim::{BrownoutSpec, FaultPlan, PacketChaos, SimDuration};
use std::hash::{Hash, Hasher};

fn value_of(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v[8..16].copy_from_slice(&version.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    v
}

/// Regression for the double-armed flush timer: Start, Restarted and
/// Promote each used to arm TAG_FLUSH unconditionally, so a writer that
/// was fenced to standby and promoted back ran **two** periodic flush
/// chains — double the tick cadence, different batching per seed. The
/// armed-guard must keep the cadence flat across the fence/promote cycle.
#[test]
fn promote_after_fence_does_not_double_arm_the_flush_timer() {
    let mut c = Cluster::build_with(ClusterConfig::default(), |e| {
        e.ship_policy = ShipPolicy::FixedInterval;
    });
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready
    );

    let ticks_over_100ms = |c: &mut Cluster| {
        let before = c.sim.metrics.counter_total("engine.flush_ticks");
        c.sim.run_for(SimDuration::from_millis(100));
        c.sim.metrics.counter_total("engine.flush_ticks") - before
    };
    let baseline = ticks_over_100ms(&mut c);
    assert!(baseline > 0, "fixed-interval flush timer must tick");

    // a newer writer owns the volume: fence this one down to standby (its
    // periodic flush chain keeps ticking — the timer outlives the status)
    c.sim.tell(
        c.engine,
        aurora::storage::wire::WriteFenced {
            segment: SegmentId::new(PgId(0), 0),
            batch_end: Lsn(0),
            epoch: VolumeEpoch(7),
        },
    );
    c.sim.run_for(SimDuration::from_millis(5));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Standby
    );

    // ... and promote it back: pre-guard this armed a second chain
    c.sim.tell(c.engine, Promote);
    let mut ready = false;
    for _ in 0..400 {
        c.sim.run_for(SimDuration::from_millis(10));
        if c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready {
            ready = true;
            break;
        }
    }
    assert!(ready, "promoted writer must recover to Ready");

    let after = ticks_over_100ms(&mut c);
    assert!(
        after <= baseline + baseline / 10,
        "flush cadence grew after fence/promote (double-armed timer): \
         {baseline} ticks/100ms before, {after} after"
    );
    assert!(
        after + baseline / 10 >= baseline,
        "flush chain died across fence/promote: {baseline} -> {after}"
    );
}

/// Ack-latency attribution under packet chaos. Two invariants:
///
/// * a retransmitted batch attributes its late acks to the send that
///   plausibly elicited them (`last_sent`), not the original ship —
///   otherwise every network-loss retry smears a 15ms+ outlier into the
///   commit-path histogram;
/// * duplicated acks (chaos copies, retransmit-regenerated acks) record
///   **nothing**: at most one `engine.ack_ns` sample per (batch, pg,
///   replica) send, so the histogram count never exceeds the original
///   send count.
#[test]
fn ack_latency_attribution_survives_drops_and_duplicates() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 99,
        bootstrap_rows: 0,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    let ms = SimDuration::from_millis;
    let plan = FaultPlan::new().packet_chaos_for(
        ms(10),
        ms(1500),
        PacketChaos {
            drop: 0.25,
            duplicate: 0.25,
            delay: 0.20,
            delay_by: ms(2),
        },
    );
    c.sim.install_fault_plan(&plan);

    let mut conn = 0u64;
    for round in 0..75u64 {
        for k in 0..8u64 {
            conn += 1;
            c.submit(conn, TxnSpec::single(Op::Upsert(k, value_of(round + 1))));
        }
        c.sim.run_for(ms(20));
    }
    c.sim.run_for(SimDuration::from_secs(2));

    assert!(
        c.sim.net().chaos_duplicated > 0,
        "packet duplication must have fired"
    );
    let retransmits = c.sim.metrics.counter_total("engine.log_write_retransmits");
    assert!(retransmits > 0, "drops must have forced retransmissions");

    let ack = c.sim.metrics.histogram_total("engine.ack_ns");
    let sends = c.sim.metrics.counter_total("engine.log_write_ios");
    assert!(ack.count() > 0, "acks must have been recorded");
    assert!(
        ack.count() <= sends,
        "more ack samples ({}) than original sends ({sends}): \
         a duplicated or regenerated ack was recorded twice",
        ack.count()
    );
    // The retransmit deadline is 15ms (sweeped every 5ms): an ack
    // attributed to the send that elicited it stays far below that, while
    // first-ship attribution would record the full 15ms+ retry gap.
    let bound = SimDuration::from_millis(10).nanos();
    assert!(
        ack.max() < bound,
        "ack {}us recorded against a stale ship time (retransmit smear)",
        ack.max() / 1_000
    );
}

/// The adaptive policy's reason for existing: an idle pipe ships a lone
/// commit immediately instead of waiting out the group-commit deadline.
/// With a deliberately huge flush interval the difference is stark.
#[test]
fn adaptive_policy_ships_idle_commits_without_deadline_wait() {
    fn lone_commit_latency_ns(policy: ShipPolicy) -> u64 {
        let mut c = Cluster::build_with(
            ClusterConfig {
                seed: 7,
                bootstrap_rows: 0,
                ..Default::default()
            },
            move |e| {
                e.ship_policy = policy;
                e.flush_interval = SimDuration::from_millis(20);
            },
        );
        c.sim.run_for(SimDuration::from_millis(300));
        c.submit(1, TxnSpec::single(Op::Upsert(1, value_of(1))));
        c.sim.run_for(SimDuration::from_millis(100));
        let rs = c.responses();
        let resp = rs.first().expect("commit response");
        assert!(matches!(resp.result, TxnResult::Committed(_)));
        let h = c.sim.metrics.histogram_total("engine.commit_ns");
        assert_eq!(h.count(), 1);
        h.max()
    }

    let fixed = lone_commit_latency_ns(ShipPolicy::FixedInterval);
    let adaptive = lone_commit_latency_ns(ShipPolicy::Adaptive);
    assert!(
        fixed > SimDuration::from_millis(5).nanos(),
        "fixed-interval lone commit should wait on the 20ms deadline, took {}us",
        fixed / 1_000
    );
    assert!(
        adaptive < SimDuration::from_millis(5).nanos(),
        "adaptive lone commit must ship immediately, took {}us",
        adaptive / 1_000
    );
    assert!(
        adaptive * 4 < fixed,
        "adaptive ({adaptive}ns) should be far below fixed ({fixed}ns)"
    );
}

/// Same seed => bit-identical run under the **adaptive** policy with a
/// pipeline depth of 1 — the configuration that maximally exercises the
/// new timer logic (immediate ships, deadline arms, ack-drain re-flushes,
/// timer cancels). Both ship reasons must actually fire, and every
/// per-node counter must replay exactly.
#[test]
fn adaptive_timer_logic_replays_bit_identically() {
    type Digest = (Vec<(u32, String, u64)>, u64, u64, u64, u64, u64);
    fn run() -> Digest {
        let mut c = Cluster::build_with(
            ClusterConfig {
                seed: 512,
                bootstrap_rows: 0,
                ..Default::default()
            },
            |e| {
                e.ship_policy = ShipPolicy::Adaptive;
                e.ship_pipeline_depth = 1;
            },
        );
        c.sim.run_for(SimDuration::from_millis(300));
        let mut conn = 0u64;
        for round in 0..40u64 {
            for k in 0..16u64 {
                conn += 1;
                c.submit(conn, TxnSpec::single(Op::Upsert(k, value_of(round + 1))));
            }
            c.sim.run_for(SimDuration::from_millis(5));
        }
        c.sim.run_for(SimDuration::from_secs(1));
        let counters: Vec<(u32, String, u64)> = c
            .sim
            .metrics
            .counters_snapshot()
            .into_iter()
            .map(|(o, n, v)| (o, n.to_string(), v))
            .collect();
        (
            counters,
            c.sim.metrics.counter_total("engine.commits"),
            c.sim.metrics.counter_total("engine.ship_immediate"),
            c.sim.metrics.counter_total("engine.ship_deadline"),
            c.sim.net().packets,
            c.sim.now().nanos(),
        )
    }

    let a = run();
    let b = run();
    assert!(a.1 > 0, "workload must commit");
    assert!(a.2 > 0, "immediate ships must fire (idle-pipe path)");
    assert!(a.3 > 0, "deadline ships must fire (full-pipe path)");
    assert_eq!(a, b, "adaptive timer logic diverged between same-seed runs");
}

/// Pins every ship × retransmit policy pair to a golden digest. Each pair
/// runs one seed through a one-node disk brownout under 4% packet loss,
/// so retransmits, hedges, health strikes and both flush paths all fire;
/// the digest covers every per-node counter, the packet count and the
/// final clock. Any change to the order of sends, timers, RNG draws or
/// metric calls on the commit path moves at least one digest.
#[test]
fn every_ship_and_retransmit_policy_replays_its_golden_digest() {
    fn digest(ship: ShipPolicy, retransmit: RetransmitPolicy) -> u64 {
        let mut c = Cluster::build_with(
            ClusterConfig {
                seed: 23,
                with_control: true,
                ..Default::default()
            },
            move |e| {
                e.ship_policy = ship;
                e.retransmit_policy = retransmit;
            },
        );
        c.sim.run_for(SimDuration::from_millis(300));
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::new()
            .brownout_for(
                ms(50),
                ms(1500),
                c.storage[2],
                BrownoutSpec {
                    ramp_secs: 0.05,
                    peak_factor: 200.0,
                },
            )
            .packet_chaos_for(
                ms(10),
                ms(1500),
                PacketChaos {
                    drop: 0.04,
                    duplicate: 0.0,
                    delay: 0.0,
                    delay_by: ms(0),
                },
            );
        c.sim.install_fault_plan(&plan);
        let mut conn = 0u64;
        for round in 0..100u64 {
            for k in 0..8u64 {
                conn += 1;
                c.submit(conn, TxnSpec::single(Op::Upsert(k, value_of(round + 1))));
            }
            c.sim.run_for(ms(20));
        }
        c.sim.run_for(SimDuration::from_secs(1));
        assert!(
            c.sim.metrics.counter_total("engine.log_write_retransmits") > 0,
            "{ship:?}/{retransmit:?}: packet loss must force retransmits"
        );
        let mut h = FxHasher::default();
        c.sim.metrics.counters_snapshot().hash(&mut h);
        c.sim.net().packets.hash(&mut h);
        c.sim.now().nanos().hash(&mut h);
        h.finish()
    }

    const GOLDEN: [(ShipPolicy, RetransmitPolicy, u64); 4] = [
        (
            ShipPolicy::Adaptive,
            RetransmitPolicy::Hedged,
            3986544114664919186,
        ),
        (
            ShipPolicy::Adaptive,
            RetransmitPolicy::Fixed,
            7422506258093273641,
        ),
        (
            ShipPolicy::FixedInterval,
            RetransmitPolicy::Hedged,
            3723790425908355846,
        ),
        (
            ShipPolicy::FixedInterval,
            RetransmitPolicy::Fixed,
            4141521956588504224,
        ),
    ];
    let got: Vec<(ShipPolicy, RetransmitPolicy, u64)> = GOLDEN
        .iter()
        .map(|&(ship, retransmit, _)| (ship, retransmit, digest(ship, retransmit)))
        .collect();
    assert_eq!(got, GOLDEN, "a policy pair diverged from its golden run");
}
