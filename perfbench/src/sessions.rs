//! `sessions-32k`: 32k think-time sessions over four shards through the
//! proxy tier, driven by the program's `SessionFleet`.
//!
//! Offered load is ~32k txn/s (one upsert per transaction, 1 s mean think
//! time) against four r3.xlarge writers, below the capacity knee where the
//! sizing runs repeated exactly; the saturated 50k/4 point did not.
//! Client latency comes from the fleet's own `fleet.txn_ns` histogram
//! (1/16-of-a-power-of-two buckets): the fleet owns its sessions, so the
//! benchmark cannot time them exactly from outside.

use std::sync::atomic::{AtomicBool, Ordering};

use aurora_bench::fleet::{FleetConfig, SessionFleet};
use aurora_bench::harness::{calib, peak_rss_kb};
use aurora_bench::workload::Mix;
use aurora_core::cluster::{ClusterConfig, ShardedCluster, ShardedConfig};
use aurora_core::engine::{EngineActor, InstanceSpec};
use aurora_core::proxy::ProxyConfig;
use aurora_core::wire::{Op, OpResult, TxnResult, TxnSpec};
use aurora_log::SegmentId;
use aurora_sim::{NodeId, NodeOpts, SimDuration, Zone};
use aurora_storage::StorageNode;

use crate::driver::row_hash;
use crate::layers::{window_layers, window_start, SpanTable};
use crate::report::{ratio, Digest, Metrics, Rep, Spans};
use crate::Instrument;

const SHARDS: usize = 4;
const SESSIONS: u32 = 32_000;
const ROWS_PER_SHARD: u64 = 10_000;
const WARMUP: SimDuration = SimDuration::from_millis(1_400);
const WINDOW: SimDuration = SimDuration::from_millis(1_000);
/// Marker rows written and read back through the proxy after the drain.
const MARKERS: u64 = 64;
const MARKER_CONN: u64 = 1 << 40;

static FLEET_MEASURED: AtomicBool = AtomicBool::new(false);

pub fn run(seed: u64, instrument: Instrument, spans: &mut Spans) -> Result<Rep, String> {
    let hwm_before = peak_rss_kb();
    let setup = spans.begin("setup");
    let g = spans.begin("cluster.build");
    let total_pages_hint = ROWS_PER_SHARD / 12 + 256;
    let pgs = ((total_pages_hint / 2_000) + 1).min(16) as u32;
    let mut c = ShardedCluster::build_with(
        ShardedConfig {
            seed,
            shards: SHARDS,
            proxies: SHARDS,
            shard: ClusterConfig {
                seed,
                pgs,
                pages_per_pg: (total_pages_hint / pgs as u64 + 1).max(1_000),
                storage_nodes: 6,
                replicas: 0,
                instance: InstanceSpec::r3("r3.xlarge", 4, 8_000),
                bootstrap_rows: ROWS_PER_SHARD,
                ..Default::default()
            },
            proxy: ProxyConfig {
                slots_per_shard: 32,
                queue_watermark: 1_024,
                queue_deadline: SimDuration::from_millis(200),
                ..ProxyConfig::default()
            },
            expected_sessions: SESSIONS as usize,
        },
        |_, e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
        },
    );
    let build_s = spans.end(g);

    let g = spans.begin("engine.bootstrap");
    let mut guard = 0;
    while !c.all_ready() {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        if guard > 10_000 {
            return Err("sharded bootstrap never finished".into());
        }
    }
    let bootstrap_s = spans.end(g);

    let g = spans.begin("warmup");
    c.sim.run_for(SimDuration::from_millis(200));
    let proxies = c.proxies.clone();
    let per = SESSIONS / proxies.len() as u32;
    let mut fleets = Vec::new();
    for (i, &proxy) in proxies.iter().enumerate() {
        let mut fc = FleetConfig::new(proxy, per);
        fc.base_conn = i as u64 * per as u64;
        fc.mix = Mix::WriteOnly { writes: 1 };
        fc.keyspace = ROWS_PER_SHARD;
        fc.seed = seed;
        fleets.push(c.sim.add_node(
            format!("fleet-{i}"),
            Zone((i % 3) as u8),
            Box::new(SessionFleet::new(fc)),
            NodeOpts::default(),
        ));
    }
    c.sim.run_for(WARMUP);
    // Peak-RSS growth over build and warmup per session, as the connscale
    // experiment reports it. The peak is per process, so only the first
    // repetition shows it.
    let first_fleet = !FLEET_MEASURED.swap(true, Ordering::Relaxed);
    let rss_per_session = peak_rss_kb().saturating_sub(hwm_before) as f64 / SESSIONS as f64;
    let warmup_s = spans.end(g);
    let setup_s = spans.end(setup);

    instrument.enable(&mut c.sim);
    let storage: Vec<NodeId> = c
        .shards
        .iter()
        .flat_map(|s| s.storage.iter().copied())
        .collect();
    c.sim.clear_stats();
    let start = window_start(&c.sim, &storage);
    let measured = spans.begin("window");
    let g = spans.begin("run_for");
    c.sim.run_for(WINDOW);
    spans.end(g);
    let host_s = spans.end(measured);

    let g = spans.begin("extract");
    let mut layers = Metrics::default();
    window_layers(&c.sim, &storage, &start, host_s, &mut layers);
    if instrument == Instrument::SimTrace {
        let mut t = SpanTable::default();
        t.add_buffer(&c.sim.trace);
        t.report(&mut layers);
    }
    let m = &c.sim.metrics;
    let issued = m.counter_total("fleet.issued");
    let commits = m.counter_total("fleet.commits");
    let aborts = m.counter_total("fleet.aborts");
    let sheds = m.counter_total("fleet.sheds");
    let txn = m.histogram_total("fleet.txn_ns");
    let engine_commits = m.counter_total("engine.commits") as f64;
    let window_s = WINDOW.secs_f64();
    let mut sim = Metrics::default();
    sim.set("tps", "1/s", commits as f64 / window_s);
    sim.set(
        "txn_p50_ms",
        "ms",
        txn.try_quantile(0.50).unwrap_or(0) as f64 / 1e6,
    );
    sim.set(
        "txn_p99_ms",
        "ms",
        txn.try_quantile(0.99).unwrap_or(0) as f64 / 1e6,
    );
    sim.set(
        "failed_share",
        "ratio",
        ratio((aborts + sheds) as f64, issued as f64),
    );
    sim.set(
        "ios_per_txn",
        "count",
        ratio(
            c.sim.net().class_packets("log_write") as f64,
            engine_commits,
        ),
    );
    sim.set(
        "net_bytes_per_txn",
        "B",
        ratio(c.sim.net().bytes as f64, engine_commits),
    );

    layers.set(
        "proxy.queue_p99_ms",
        "ms",
        m.histogram_total("proxy.queue_ns")
            .try_quantile(0.99)
            .unwrap_or(0) as f64
            / 1e6,
    );
    layers.set(
        "proxy.shed_share",
        "ratio",
        ratio(sheds as f64, m.counter_total("proxy.requests") as f64),
    );
    let forwarded: Vec<u64> = c
        .shards
        .iter()
        .map(|s| m.counter(s.engine, "proxy.shard_forwarded"))
        .collect();
    let (max, min) = (
        forwarded.iter().copied().max().unwrap_or(0),
        forwarded.iter().copied().min().unwrap_or(0),
    );
    layers.set("proxy.shard_spread", "ratio", ratio(max as f64, min as f64));
    if first_fleet {
        layers.set("fleet.rss_kb_per_session", "kB", rss_per_session);
    }
    layers.set("cluster.build_s", "s", build_s);
    layers.set("engine.bootstrap_s", "s", bootstrap_s);
    layers.set("warmup_s", "s", warmup_s);
    let mut digest = Digest::new();
    digest.sim(&c.sim);
    spans.end(g);

    // Stop the load: a crashed fleet issues nothing and drops late replies.
    let g = spans.begin("drain");
    for &f in &fleets {
        c.sim.crash(f);
    }
    c.sim.run_for(SimDuration::from_secs(1));
    spans.end(g);

    let g = spans.begin("checks");
    let checked = check(&mut c, &mut digest);
    spans.end(g);
    checked?;

    Ok(Rep {
        setup_s,
        host_s,
        sim,
        layers,
        digest: digest.finish(),
        attempted: issued,
        failed: aborts + sheds,
    })
}

/// Correctness gate: proxies drained, every shard's protection groups at
/// equal SCLs, no stale page served, and marker rows written through the
/// proxy read back byte for byte.
fn check(c: &mut ShardedCluster, digest: &mut Digest) -> Result<(), String> {
    for i in 0..c.proxies.len() {
        let busy: usize = c
            .proxy_actor(i)
            .lane_depths()
            .iter()
            .map(|(in_flight, queued)| in_flight + queued)
            .sum();
        if busy > 0 {
            return Err(format!(
                "proxy {i} still holds {busy} requests after the drain"
            ));
        }
    }
    for (i, shard) in c.shards.iter().enumerate() {
        if c.sim.actor::<EngineActor>(shard.engine).staged_records() > 0 {
            return Err(format!("shard {i}: staged records never shipped"));
        }
        for m in &shard.memberships {
            let scls: Vec<_> = m
                .slots
                .iter()
                .enumerate()
                .map(|(r, &node)| {
                    c.sim
                        .actor::<StorageNode>(node)
                        .scl(SegmentId::new(m.pg, r as u8))
                })
                .collect();
            if scls.iter().any(|s| s.is_none()) || scls.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!(
                    "shard {i} {:?}: SCLs did not converge: {scls:?}",
                    m.pg
                ));
            }
        }
    }
    if c.sim.metrics.counter_total("oracle.read_past_read_point") > 0 {
        return Err("storage served a page past the read point".into());
    }

    let value = |k: u64| -> Vec<u8> { (0..64).map(|b| (k as u8).wrapping_mul(31) ^ b).collect() };
    let (_, mut cursor) = c.responses_since(0);
    let mut round =
        |c: &mut ShardedCluster, base: u64, get: bool| -> Result<Vec<TxnResult>, String> {
            for k in 0..MARKERS {
                let op = if get {
                    Op::Get(k)
                } else {
                    Op::Upsert(k, value(k))
                };
                c.submit_via((k % SHARDS as u64) as usize, base + k, TxnSpec::single(op));
            }
            let mut got: Vec<Option<TxnResult>> = vec![None; MARKERS as usize];
            for _ in 0..100 {
                c.sim.run_for(SimDuration::from_millis(50));
                let (fresh, next) = c.responses_since(cursor);
                cursor = next;
                for r in fresh {
                    if let Some(i) = r.conn.checked_sub(base).filter(|&i| i < MARKERS) {
                        got[i as usize] = Some(r.result);
                    }
                }
                if got.iter().all(|g| g.is_some()) {
                    break;
                }
            }
            got.into_iter()
                .enumerate()
                .map(|(k, g)| g.ok_or_else(|| format!("marker {k} unanswered")))
                .collect()
        };
    for (k, r) in round(c, MARKER_CONN, false)?.iter().enumerate() {
        if !matches!(r, TxnResult::Committed(_)) {
            return Err(format!("marker write {k}: {r:?}"));
        }
    }
    for (k, r) in round(c, MARKER_CONN + MARKERS, true)?.iter().enumerate() {
        let want = row_hash(&value(k as u64));
        match r {
            TxnResult::Committed(rs) => match rs.first() {
                Some(OpResult::Row(Some(row))) if row_hash(row) == want => digest.u64(want),
                other => return Err(format!("marker {k} read back {other:?}")),
            },
            other => return Err(format!("marker {k} read: {other:?}")),
        }
    }
    Ok(())
}
