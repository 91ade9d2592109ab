//! Connection-scale harness: sharded clusters under 5k–1M sessions.
//!
//! Builds a [`ShardedCluster`] (N independent volumes behind a proxy
//! tier), attaches one [`SessionFleet`] per proxy, warms it up until the
//! admitted-session count and the commit rate stabilize (Table 3's
//! warmup criterion, derived from the connection count rather than
//! hardcoded), then measures a window and extracts throughput, commit
//! latency percentiles and the proxy shed rate.
//!
//! Capacity math for the default step ladder (think time 1 s, one
//! upsert per transaction, r3.xlarge shard writers ≈ 17k writes/sec
//! each): 5k sessions/1 shard and 50k/4 run well under capacity, 250k/16
//! approaches it, and 1M/16 oversubscribes ~3.6× — the proxy tier sheds
//! the excess at its admission queues and throughput *holds* near fleet
//! capacity instead of collapsing.

use aurora_core::cluster::{ClusterConfig, ShardedCluster, ShardedConfig};
use aurora_core::engine::{EngineStatus, InstanceSpec};
use aurora_core::proxy::ProxyConfig;
use aurora_quorum::QuorumConfig;
use aurora_sim::{NodeOpts, SimDuration, Zone};

use crate::fleet::{FleetConfig, SessionFleet};
use crate::harness::{calib, peak_rss_kb};
use crate::workload::Mix;

/// Parameters for one connection-scale step.
#[derive(Debug, Clone)]
pub struct ConnscaleParams {
    pub seed: u64,
    /// Total logical sessions, split evenly across the proxies.
    pub sessions: u32,
    pub shards: usize,
    /// Proxy nodes (default: one per shard).
    pub proxies: usize,
    /// Bootstrap rows per shard == fleet keyspace.
    pub rows_per_shard: u64,
    pub mix: Mix,
    /// Mean session think time.
    pub think: SimDuration,
    pub window: SimDuration,
    /// Stabilization cap: warmup never exceeds this.
    pub max_warmup: SimDuration,
}

impl ConnscaleParams {
    pub fn new(sessions: u32, shards: usize) -> ConnscaleParams {
        ConnscaleParams {
            seed: 42,
            sessions,
            shards,
            proxies: shards,
            rows_per_shard: 10_000,
            mix: Mix::WriteOnly { writes: 1 },
            think: SimDuration::from_secs(1),
            window: SimDuration::from_millis(400),
            max_warmup: SimDuration::from_secs(3),
        }
    }
}

/// Measured outcome of one connection-scale step.
#[derive(Debug, Clone)]
pub struct ConnscaleStats {
    pub sessions: u32,
    pub shards: usize,
    /// Warmup actually used (stabilization time), seconds.
    pub warmup_s: f64,
    /// Distinct sessions the proxy tier admitted (cumulative).
    pub admitted: u64,
    pub commits: u64,
    pub aborts: u64,
    /// Transactions shed by proxy admission control in the window.
    pub sheds: u64,
    /// Committed transactions/sec.
    pub tps: f64,
    /// Client-observed (fleet) latency of committed transactions.
    pub txn_p50_ms: Option<f64>,
    pub txn_p99_ms: Option<f64>,
    /// Engine commit (seal → durable ack) latency, all shards pooled.
    pub commit_p50_ms: Option<f64>,
    pub commit_p99_ms: Option<f64>,
    /// Proxy queue wait of forwarded (non-shed) requests.
    pub queue_p99_ms: Option<f64>,
    /// sheds / (commits + aborts + sheds) over the window.
    pub shed_rate: f64,
    /// Peak-RSS growth across the whole step (build + warmup + window),
    /// kB. Process-global and therefore NOT deterministic — report it,
    /// never fold it into comparison digests.
    pub rss_delta_kb: u64,
    /// Per-shard rollup over the window: how evenly the hash ring spread
    /// the offered load, and whether any one shard's commit path lagged
    /// the fleet. Attribution rides on the proxy's per-shard counters
    /// (`proxy.shard_forwarded` / `proxy.shard_sheds`, owned by each
    /// shard's writer) and the writer's own commit metrics.
    pub per_shard: Vec<ShardRollup>,
}

/// One shard's slice of a connection-scale window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRollup {
    pub shard: usize,
    /// Requests the proxy tier forwarded into this shard.
    pub forwarded: u64,
    /// Requests shed at admission while targeting this shard.
    pub sheds: u64,
    /// Transactions this shard's writer committed.
    pub commits: u64,
    /// This shard's commit p99 (None = no commits in the window).
    pub commit_p99_ms: Option<f64>,
}

fn ns_ms(v: u64) -> f64 {
    v as f64 / 1e6
}

/// Warmup until the deployment reaches steady state, Table 3 style but
/// *derived* from the connection count: run in slices until (a) ≥ 99% of
/// the sessions have been admitted by the proxy tier and (b) the
/// commit rate moved < 8% between consecutive slices, twice in a row.
/// Returns the warmup spent. Capped by `max_warmup` — overload steps
/// (rate plateaus at capacity) stabilize, wedged ones just hit the cap.
fn warm_until_stable(c: &mut ShardedCluster, p: &ConnscaleParams) -> SimDuration {
    let slice = SimDuration::from_millis(150);
    let mut spent = SimDuration::ZERO;
    let mut prev_total = 0u64;
    let mut prev_slice: Option<u64> = None;
    let mut stable = 0u32;
    while spent < p.max_warmup {
        c.sim.run_for(slice);
        spent = spent + slice;
        // completions this slice: commits + sheds + aborts (an overloaded
        // step stabilizes at capacity-plus-shedding, not at zero sheds)
        let m = &c.sim.metrics;
        let total = m.counter_total("fleet.commits")
            + m.counter_total("fleet.sheds")
            + m.counter_total("fleet.aborts");
        let this = total - prev_total;
        prev_total = total;
        let admitted: u64 = (0..c.proxies.len())
            .map(|i| c.proxy_actor(i).sessions_seen)
            .sum();
        let admitted_ok = admitted >= (p.sessions as u64 * 99) / 100;
        let flat = matches!(prev_slice, Some(prev) if prev > 0 && this > 0 && {
            let (hi, lo) = (this.max(prev) as f64, this.min(prev) as f64);
            (hi - lo) / hi <= 0.08
        });
        prev_slice = Some(this);
        if admitted_ok && flat {
            stable += 1;
            if stable >= 2 {
                break;
            }
        } else {
            stable = 0;
        }
    }
    spent
}

/// Run one connection-scale step and return its statistics.
pub fn run_connscale_step(p: &ConnscaleParams) -> ConnscaleStats {
    let rss_before = peak_rss_kb();

    let total_pages_hint = p.rows_per_shard / 12 + 256;
    let pgs = ((total_pages_hint / 2_000) + 1).min(16) as u32;
    let shard_cfg = ClusterConfig {
        seed: p.seed,
        pgs,
        pages_per_pg: (total_pages_hint / pgs as u64 + 1).max(1_000),
        storage_nodes: 6,
        replicas: 0,
        instance: InstanceSpec::r3("r3.xlarge", 4, 8_000),
        bootstrap_rows: p.rows_per_shard,
        quorum: QuorumConfig::aurora(),
        ..Default::default()
    };
    let mut c = ShardedCluster::build_with(
        ShardedConfig {
            seed: p.seed,
            shards: p.shards,
            proxies: p.proxies,
            shard: shard_cfg,
            proxy: ProxyConfig {
                slots_per_shard: 32,
                queue_watermark: 1_024,
                queue_deadline: SimDuration::from_millis(200),
                ..ProxyConfig::default()
            },
            expected_sessions: p.sessions as usize,
        },
        |_, e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
        },
    );

    // wait for every shard's bootstrap, then let the fleets drain
    let mut guard = 0;
    while !c.all_ready() {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000, "sharded bootstrap never finished");
    }
    debug_assert!(c.shards.iter().all(|s| c
        .sim
        .actor::<aurora_core::EngineActor>(s.engine)
        .status()
        == EngineStatus::Ready));
    c.sim.run_for(SimDuration::from_millis(200));

    // one fleet per proxy; dense connection ids across fleets
    let proxies = c.proxies.clone();
    let per = p.sessions / proxies.len() as u32;
    let rem = p.sessions % proxies.len() as u32;
    let mut base_conn = 0u64;
    for (i, &proxy) in proxies.iter().enumerate() {
        let count = per + u32::from((i as u32) < rem);
        if count == 0 {
            continue;
        }
        let mut fc = FleetConfig::new(proxy, count);
        fc.base_conn = base_conn;
        fc.mix = p.mix.clone();
        fc.keyspace = p.rows_per_shard;
        fc.think = p.think;
        fc.seed = p.seed;
        c.sim.add_node(
            format!("fleet-{i}"),
            Zone((i % 3) as u8),
            Box::new(SessionFleet::new(fc)),
            NodeOpts::default(),
        );
        base_conn += count as u64;
    }

    let warmup = warm_until_stable(&mut c, p);
    c.sim.clear_stats();
    c.sim.run_for(p.window);

    let m = &c.sim.metrics;
    let commits = m.counter_total("fleet.commits");
    let aborts = m.counter_total("fleet.aborts");
    let sheds = m.counter_total("fleet.sheds");
    let secs = p.window.secs_f64();
    let txn = m.histogram_total("fleet.txn_ns");
    let commit = m.histogram_total("engine.commit_ns");
    let queue = m.histogram_total("proxy.queue_ns");
    let admitted: u64 = (0..proxies.len())
        .map(|i| c.proxy_actor(i).sessions_seen)
        .sum();
    let denom = (commits + aborts + sheds).max(1);
    let per_shard = (0..p.shards)
        .map(|i| {
            let owner = c.shards[i].engine;
            ShardRollup {
                shard: i,
                forwarded: m.counter(owner, "proxy.shard_forwarded"),
                sheds: m.counter(owner, "proxy.shard_sheds"),
                commits: m.counter(owner, "engine.commits"),
                commit_p99_ms: m
                    .histogram(owner, "engine.commit_ns")
                    .and_then(|h| h.try_quantile(0.99))
                    .map(ns_ms),
            }
        })
        .collect();

    crate::experiments::note_sim(&c.sim);
    ConnscaleStats {
        sessions: p.sessions,
        shards: p.shards,
        warmup_s: warmup.secs_f64(),
        admitted,
        commits,
        aborts,
        sheds,
        tps: commits as f64 / secs,
        txn_p50_ms: txn.try_quantile(0.50).map(ns_ms),
        txn_p99_ms: txn.try_quantile(0.99).map(ns_ms),
        commit_p50_ms: commit.try_quantile(0.50).map(ns_ms),
        commit_p99_ms: commit.try_quantile(0.99).map(ns_ms),
        queue_p99_ms: queue.try_quantile(0.99).map(ns_ms),
        shed_rate: sheds as f64 / denom as f64,
        rss_delta_kb: peak_rss_kb().saturating_sub(rss_before),
        per_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::parallel_map;

    /// Each connscale step is an independent simulation, so fanning the
    /// ladder across worker threads must be byte-identical to a
    /// sequential run (modulo RSS, which is process-global by contract).
    #[test]
    fn connscale_is_bit_identical_across_jobs() {
        let steps: Vec<(u32, usize)> = vec![(300, 1), (400, 2)];
        let run = |jobs: usize| -> Vec<String> {
            parallel_map(
                &steps,
                jobs,
                |&(sessions, shards)| {
                    let mut p = ConnscaleParams::new(sessions, shards);
                    p.window = SimDuration::from_millis(200);
                    let s = run_connscale_step(&p);
                    // everything deterministic; rss_delta_kb deliberately out
                    format!(
                        "{} {} {:.3} {} {} {} {} {:.1} {:?} {:?} {:?} {:?} {:?} {:.4} {:?}",
                        s.sessions,
                        s.shards,
                        s.warmup_s,
                        s.admitted,
                        s.commits,
                        s.aborts,
                        s.sheds,
                        s.tps,
                        s.txn_p50_ms,
                        s.txn_p99_ms,
                        s.commit_p50_ms,
                        s.commit_p99_ms,
                        s.queue_p99_ms,
                        s.shed_rate,
                        s.per_shard,
                    )
                },
                |_, _| {},
            )
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential, parallel);
    }

    /// The hash ring spreads sessions evenly, so every shard must see
    /// real traffic and no shard may dominate: the CI gate asserts the
    /// same bound on the full ladder's JSON.
    #[test]
    fn per_shard_rollups_are_attributed_and_bounded() {
        let mut p = ConnscaleParams::new(400, 2);
        p.window = SimDuration::from_millis(200);
        let s = run_connscale_step(&p);
        assert_eq!(s.per_shard.len(), 2);
        for r in &s.per_shard {
            assert!(r.forwarded > 0, "shard {} saw no traffic", r.shard);
            assert!(r.commits > 0, "shard {} committed nothing", r.shard);
            assert!(r.commit_p99_ms.is_some());
        }
        let max = s.per_shard.iter().map(|r| r.forwarded).max().unwrap();
        let min = s.per_shard.iter().map(|r| r.forwarded).min().unwrap();
        assert!(
            (max as f64) < 3.0 * min as f64,
            "load spread too skewed: {max} vs {min}"
        );
    }
}
