//! Single-volume workloads: `oltp-ladder` and `read-miss`.
//!
//! One writer, one read replica, six storage nodes and a control plane,
//! built through `Cluster::build_with` with the harness's calibrated
//! per-statement CPU costs. The open-loop driver (`driver.rs`) offers load
//! at each rung of a fixed rate ladder; the reference rung's window gives
//! the end-to-end numbers and the layer counters.

use aurora_bench::dst::{await_convergence, Oracles};
use aurora_bench::harness::calib;
use aurora_bench::workload::Mix;
use aurora_core::cluster::{Cluster, ClusterConfig};
use aurora_core::engine::{EngineStatus, InstanceSpec};
use aurora_core::wire::{Op, OpResult, TxnResult, TxnSpec};
use aurora_sim::{NodeOpts, Sim, SimDuration, Zone};

use crate::driver::{row_hash, OpenLoop};
use crate::layers::{window_layers, window_start, SpanTable};
use crate::report::{quantile, ratio, Digest, Metrics, Rep, Spans};
use crate::Instrument;

/// Shape of one single-volume workload.
pub struct Spec {
    pub rows: u64,
    /// Buffer cache pages (the instance default holds every row).
    pub buffer_pages: Option<usize>,
    pub mix: Mix,
    /// Offered rates, ascending, txn/s.
    pub rungs: &'static [f64],
    /// Rung whose window gives `tps`, latency and the layer counters.
    pub reference: usize,
    /// Simulated warmup before the first rung.
    pub warmup: SimDuration,
    /// Per rung: settle at the new rate, then measure.
    pub settle: SimDuration,
    pub window: SimDuration,
}

/// `tps_at_slo` is the highest ladder rung whose exact p99 stays within
/// this limit: 16k txn/s meets it and 20k does not at this commit.
const SLO_P99_MS: f64 = 6.0;

pub const OLTP_LADDER: Spec = Spec {
    rows: 20_000,
    buffer_pages: None,
    mix: Mix::Oltp,
    rungs: &[8_000.0, 12_000.0, 16_000.0, 20_000.0],
    reference: 2,
    warmup: SimDuration::from_millis(500),
    settle: SimDuration::from_millis(100),
    window: SimDuration::from_millis(400),
};

/// About 100k rows over ~5.3k leaf pages (sequential bootstrap leaves
/// leaves half full); 1,100 cached pages hold about a fifth of them.
pub const READ_MISS: Spec = Spec {
    rows: 100_000,
    buffer_pages: Some(1_100),
    mix: Mix::Web {
        reads: 8,
        writes: 1,
    },
    rungs: &[8_000.0],
    reference: 0,
    warmup: SimDuration::from_millis(300),
    settle: SimDuration::from_millis(100),
    window: SimDuration::from_millis(1_000),
};

/// Rows read back after the run: every acknowledged upsert whose key had
/// no other write in flight, thinned to at most this many keys.
const READ_BACK_KEYS: usize = 2_000;
/// Read-back connection ids start here, clear of the driver's.
const READ_BACK_CONN: u64 = 1 << 40;

pub fn run(
    spec: &Spec,
    seed: u64,
    instrument: Instrument,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let setup = spans.begin("setup");
    let g = spans.begin("cluster.build");
    let total_pages_hint = spec.rows / 12 + 256;
    let pgs = ((total_pages_hint / 2_000) + 1).min(16) as u32;
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed,
            pgs,
            pages_per_pg: (total_pages_hint / pgs as u64 + 1).max(1_000),
            storage_nodes: 6,
            replicas: 1,
            instance: InstanceSpec::r3_8xlarge(),
            bootstrap_rows: spec.rows,
            with_control: true,
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
            if let Some(bp) = spec.buffer_pages {
                e.instance.buffer_pages = bp;
            }
        },
    );
    let build_s = spans.end(g);

    let g = spans.begin("engine.bootstrap");
    let mut guard = 0;
    while c.engine_actor().status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        if guard > 10_000 {
            return Err("bootstrap never finished".into());
        }
    }
    let bootstrap_s = spans.end(g);

    let g = spans.begin("warmup");
    c.sim.run_for(SimDuration::from_millis(200));
    let driver = c.sim.add_node(
        "perfbench-driver",
        Zone(0),
        Box::new(OpenLoop::new(
            c.engine,
            spec.mix.clone(),
            spec.rows,
            64,
            spec.rungs[0],
            seed,
        )),
        NodeOpts::default(),
    );
    c.sim.run_for(spec.warmup);
    let warmup_s = spans.end(g);
    let setup_s = spans.end(setup);

    instrument.enable(&mut c.sim);
    let measured = spans.begin("window");
    let mut phases = Vec::new();
    let mut layers = Metrics::default();
    let mut extract_s = 0.0;
    let mut window = None;
    for (i, &rate) in spec.rungs.iter().enumerate() {
        c.sim.actor_mut::<OpenLoop>(driver).begin_phase(rate);
        let g = spans.begin("run_for");
        c.sim.run_for(spec.settle);
        spans.end(g);
        let phase = c.sim.actor_mut::<OpenLoop>(driver).begin_phase(rate);
        phases.push(phase);
        if i == spec.reference {
            c.sim.clear_stats();
            let start = window_start(&c.sim, &c.storage);
            let g = spans.begin("run_for");
            c.sim.run_for(spec.window);
            let window_host_s = spans.end(g);
            let g = spans.begin("extract");
            window_layers(&c.sim, &c.storage, &start, window_host_s, &mut layers);
            window = Some(Window::read(&c.sim));
            if instrument == Instrument::SimTrace {
                let mut t = SpanTable::default();
                t.add_buffer(&c.sim.trace);
                t.report(&mut layers);
            }
            extract_s = spans.end(g);
        } else {
            let g = spans.begin("run_for");
            c.sim.run_for(spec.window);
            spans.end(g);
        }
    }
    let host_s = spans.end(measured) - extract_s;
    let window = window.expect("the ladder has a reference rung");

    let mut digest = Digest::new();
    digest.sim(&c.sim);

    let g = spans.begin("drain");
    c.sim.actor_mut::<OpenLoop>(driver).stop();
    let mut waited = 0;
    while c.sim.actor::<OpenLoop>(driver).in_flight() > 0 && waited < 50 {
        c.sim.run_for(SimDuration::from_millis(100));
        waited += 1;
    }
    spans.end(g);

    let g = spans.begin("checks");
    let checked = check(&mut c, driver, &mut digest);
    spans.end(g);
    checked?;

    let d = c.sim.actor::<OpenLoop>(driver);
    let window_s = spec.window.secs_f64();
    let mut sim = Metrics::default();
    let mut tps_at_slo = 0.0;
    for (i, &phase) in phases.iter().enumerate() {
        let p = &d.phases[phase];
        let rate = spec.rungs[i];
        let mut lat = p.latencies_ns.clone();
        let p50 = quantile(&mut lat, 0.50) as f64 / 1e6;
        let p99 = quantile(&mut lat, 0.99) as f64 / 1e6;
        // A growing backlog pushes the exact p99 past the limit; a rung
        // with any aborted or unanswered request does not count either.
        if p99 <= SLO_P99_MS && p.committed == p.issued {
            tps_at_slo = rate;
        }
        if spec.rungs.len() > 1 {
            sim.set(format!("rung_{}.txn_p50_ms", rate as u64), "ms", p50);
            sim.set(format!("rung_{}.txn_p99_ms", rate as u64), "ms", p99);
        }
        digest.u64(p.issued);
        digest.u64(p.committed);
        digest.u64(p.completed);
        for &l in &p.latencies_ns {
            digest.u64(l);
        }
        if i == spec.reference {
            // commits answered inside the window, whenever issued
            sim.set("tps", "1/s", p.completed as f64 / window_s);
            sim.set("txn_p50_ms", "ms", p50);
            sim.set("txn_p99_ms", "ms", p99);
        }
    }
    let attempted: u64 = d.phases.iter().map(|p| p.issued).sum();
    let failed: u64 = d.phases.iter().map(|p| p.issued - p.committed).sum();
    if spec.rungs.len() > 1 {
        sim.set("tps_at_slo", "1/s", tps_at_slo);
    }
    sim.set(
        "failed_share",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );
    sim.set(
        "ios_per_txn",
        "count",
        ratio(window.log_writes, window.engine_commits),
    );
    sim.set(
        "net_bytes_per_txn",
        "B",
        ratio(window.net_bytes, window.engine_commits),
    );
    sim.set("replica_lag_p99_ms", "ms", window.lag_p99_ms);

    layers.set("cluster.build_s", "s", build_s);
    layers.set("engine.bootstrap_s", "s", bootstrap_s);
    layers.set("warmup_s", "s", warmup_s);
    Ok(Rep {
        setup_s,
        host_s,
        sim,
        layers,
        digest: digest.finish(),
        attempted,
        failed,
    })
}

/// Simulated-clock totals of the reference window, read as it closes,
/// before later rungs and the drain add to them.
struct Window {
    engine_commits: f64,
    log_writes: f64,
    net_bytes: f64,
    lag_p99_ms: f64,
}

impl Window {
    fn read(sim: &Sim) -> Self {
        let m = &sim.metrics;
        Window {
            engine_commits: m.counter_total("engine.commits") as f64,
            log_writes: sim.net().class_packets("log_write") as f64,
            net_bytes: sim.net().bytes as f64,
            lag_p99_ms: m
                .histogram_total("replica.lag_ns")
                .try_quantile(0.99)
                .unwrap_or(0) as f64
                / 1e6,
        }
    }
}

/// Correctness gate: every request answered, monotonicity and convergence
/// oracles clean after the drain, and the read-back returns each
/// known-final row byte for byte.
fn check(c: &mut Cluster, driver: aurora_sim::NodeId, digest: &mut Digest) -> Result<(), String> {
    let d = c.sim.actor::<OpenLoop>(driver);
    if d.in_flight() > 0 {
        return Err(format!(
            "{} requests unanswered after the drain",
            d.in_flight()
        ));
    }
    let expected = d.expected_rows();
    let mut oracles = Oracles::new();
    oracles.poll(c);
    let mut violations = await_convergence(c, SimDuration::from_secs(5), &mut oracles);
    violations.extend(oracles.into_violations());
    if c.sim.metrics.counter_total("oracle.read_past_read_point") > 0 {
        return Err("storage served a page past the read point".into());
    }
    if !violations.is_empty() {
        return Err(format!("oracle violations: {violations:?}"));
    }

    if expected.is_empty() {
        return Err("no acknowledged upsert to read back".into());
    }
    let stride = expected.len().div_ceil(READ_BACK_KEYS);
    let sample: Vec<(u64, u64)> = expected.into_iter().step_by(stride).collect();
    let (_, mut cursor) = c.responses_since(0);
    for (i, &(key, _)) in sample.iter().enumerate() {
        c.submit(READ_BACK_CONN + i as u64, TxnSpec::single(Op::Get(key)));
    }
    let mut got = vec![None; sample.len()];
    let mut answered = 0;
    for _ in 0..100 {
        c.sim.run_for(SimDuration::from_millis(50));
        let (fresh, next) = c.responses_since(cursor);
        cursor = next;
        for r in fresh {
            let Some(i) = r.conn.checked_sub(READ_BACK_CONN) else {
                continue;
            };
            if let Some(slot) = got.get_mut(i as usize) {
                if slot.is_none() {
                    answered += 1;
                }
                *slot = Some(r.result);
            }
        }
        if answered == sample.len() {
            break;
        }
    }
    for (i, (key, want)) in sample.iter().enumerate() {
        let row = match &got[i] {
            Some(TxnResult::Committed(rs)) => match rs.first() {
                Some(OpResult::Row(Some(row))) => row.clone(),
                other => return Err(format!("read-back of key {key}: {other:?}")),
            },
            Some(TxnResult::Aborted(why)) => {
                return Err(format!("read-back of key {key} aborted: {why}"))
            }
            None => return Err(format!("read-back of key {key} unanswered")),
        };
        if row_hash(&row) != *want {
            return Err(format!(
                "key {key}: row differs from its last acknowledged upsert"
            ));
        }
        digest.u64(*want);
    }
    Ok(())
}
