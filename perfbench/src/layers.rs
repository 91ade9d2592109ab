//! Per-layer metrics, read from outside the program after a window.
//!
//! Every number here comes from the public surface of `aurora-sim`:
//! `sim.metrics` counters and histograms, `sim.net()` per-class packet and
//! byte counts, `sim.disk_ops` per node and the kernel's queue gauges. The
//! window starts at a `clear_stats` call, so counters are window totals;
//! events, disk ops and overflow pushes, which it does not reset, are
//! snapshotted in `WindowStart`. Two kernel gauges cannot be windowed and
//! cover the whole simulation up to the window's end, set-up included:
//! `queue.high_water` and `queue.reserved_mb` (labelled "whole run").
//!
//! `PER_LAYER` lists every per-layer metric with its unit and the
//! end-to-end metric and workload it should move; a workload that does not
//! exercise a layer reports 0 for it.

use std::collections::BTreeMap;

use aurora_sim::{Histogram, NodeId, Sim, TraceBuffer, TracePhase};

use crate::report::{ratio, Metrics};

/// (name, unit, should move: "e2e metric @ workload")
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // kernel: sim / queue
    ("sim.events", "count", "host_s @ all"),
    ("sim.events_per_txn", "count", "host_s @ all"),
    ("sim.host_ns_per_event", "ns", "host_s @ all"),
    ("sim.events_per_host_s", "1/s", "host_s @ all"),
    (
        "queue.high_water",
        "count",
        "host_s, peak_rss_mb @ sessions-32k (whole run)",
    ),
    ("queue.overflow_pushes", "count", "host_s @ all"),
    (
        "queue.reserved_mb",
        "MB",
        "peak_rss_mb @ sessions-32k (whole run)",
    ),
    // net
    (
        "net.log_write_pkts_per_txn",
        "count",
        "ios_per_txn, net_bytes_per_txn @ oltp-ladder",
    ),
    (
        "net.log_write_bytes_per_txn",
        "B",
        "net_bytes_per_txn @ oltp-ladder",
    ),
    (
        "net.log_ack_pkts_per_txn",
        "count",
        "net_bytes_per_txn @ oltp-ladder",
    ),
    (
        "net.page_read_pkts_per_txn",
        "count",
        "txn_p99_ms @ read-miss",
    ),
    (
        "net.page_resp_bytes_per_txn",
        "B",
        "txn_p99_ms, net_bytes_per_txn @ read-miss",
    ),
    (
        "net.replica_stream_bytes_per_txn",
        "B",
        "net_bytes_per_txn @ oltp-ladder",
    ),
    (
        "net.gossip_pkts_per_txn",
        "count",
        "net_bytes_per_txn @ oltp-ladder",
    ),
    ("net.dropped", "count", "txn_p99_ms @ oltp-ladder"),
    // disk model
    ("disk.writes_per_txn", "count", "txn_p99_ms @ read-miss"),
    ("disk.reads_per_txn", "count", "txn_p99_ms @ read-miss"),
    // engine commit path
    ("engine.commit_p50_ms", "ms", "txn_p50_ms @ oltp-ladder"),
    (
        "engine.commit_p99_ms",
        "ms",
        "txn_p99_ms, tps_at_slo @ oltp-ladder",
    ),
    (
        "engine.ack_p99_us",
        "us",
        "txn_p99_ms, tps_at_slo @ oltp-ladder",
    ),
    (
        "engine.records_per_batch",
        "count",
        "ios_per_txn @ oltp-ladder",
    ),
    (
        "engine.batches_per_commit",
        "count",
        "ios_per_txn @ oltp-ladder",
    ),
    (
        "engine.ship_immediate_share",
        "ratio",
        "txn_p99_ms @ oltp-ladder",
    ),
    (
        "engine.retransmits_per_batch",
        "ratio",
        "txn_p99_ms @ oltp-ladder",
    ),
    (
        "engine.lal_stalls",
        "count",
        "txn_p99_ms, tps_at_slo @ oltp-ladder",
    ),
    (
        "engine.lock_waits",
        "count",
        "txn_p99_ms, tps_at_slo @ oltp-ladder",
    ),
    // engine read path, buffer, btree
    (
        "engine.select_p99_us",
        "us",
        "txn_p50_ms, txn_p99_ms @ read-miss",
    ),
    (
        "engine.page_fetches_per_read",
        "ratio",
        "txn_p50_ms, txn_p99_ms @ read-miss",
    ),
    ("engine.page_fetch_p99_us", "us", "txn_p99_ms @ read-miss"),
    ("engine.read_retries", "count", "txn_p99_ms @ read-miss"),
    // storage node
    (
        "storage.batches_in_per_commit",
        "count",
        "txn_p99_ms @ oltp-ladder, read-miss",
    ),
    (
        "storage.fast_ack_share",
        "ratio",
        "txn_p99_ms @ oltp-ladder, read-miss",
    ),
    (
        "storage.persist_p99_us",
        "us",
        "txn_p99_ms @ oltp-ladder, read-miss",
    ),
    ("storage.page_reads", "count", "txn_p99_ms @ read-miss"),
    ("storage.coalesced", "count", "txn_p99_ms @ read-miss"),
    ("storage.gc_records", "count", "txn_p99_ms @ read-miss"),
    // replica
    (
        "replica.applied_per_commit",
        "count",
        "replica_lag_p99_ms @ oltp-ladder, read-miss",
    ),
    (
        "replica.discarded",
        "count",
        "replica_lag_p99_ms @ oltp-ladder, read-miss",
    ),
    // proxy and fleet
    ("proxy.queue_p99_ms", "ms", "txn_p99_ms @ sessions-32k"),
    ("proxy.shed_share", "ratio", "failed_share @ sessions-32k"),
    ("proxy.shard_spread", "ratio", "txn_p99_ms @ sessions-32k"),
    (
        "fleet.rss_kb_per_session",
        "kB",
        "peak_rss_mb @ sessions-32k",
    ),
    // dst, schedule, control, sweep
    ("dst.host_ms_per_seed_p50", "ms", "host_s @ dst-moderate"),
    ("dst.host_ms_per_seed_p90", "ms", "host_s @ dst-moderate"),
    ("schedule.generate_us", "us", "host_s @ dst-moderate"),
    (
        "dst.commits_per_seed",
        "count",
        "host_s, tps @ dst-moderate",
    ),
    (
        "control.repairs_completed",
        "count",
        "host_s @ dst-moderate",
    ),
    ("engine.recoveries", "count", "host_s @ dst-moderate"),
    ("sweep.speedup", "ratio", "host_s @ dst-moderate"),
    // set-up phases
    ("cluster.build_s", "s", "setup_s @ all"),
    (
        "engine.bootstrap_s",
        "s",
        "setup_s @ oltp-ladder, read-miss, sessions-32k",
    ),
    (
        "warmup_s",
        "s",
        "setup_s @ oltp-ladder, read-miss, sessions-32k",
    ),
    // metrics, telemetry, trace
    ("telemetry.overhead_share", "ratio", "host_s @ all"),
    ("trace.overhead_share", "ratio", "host_s @ all"),
    ("trace.dropped", "count", "host_s @ all"),
    // simulated-time spans read back through TraceBuffer (mean per span)
    (
        "span.engine.commit.self_us",
        "us",
        "txn_p99_ms @ oltp-ladder",
    ),
    (
        "span.storage.persist.self_us",
        "us",
        "txn_p99_ms @ oltp-ladder, read-miss",
    ),
    (
        "span.engine.recovery.self_us",
        "us",
        "host_s @ dst-moderate",
    ),
    ("span.control.repair.self_us", "us", "host_s @ dst-moderate"),
    // estimated host-time share of the window inside the event loop
    ("est.codec_share", "ratio", "host_s @ oltp-ladder"),
    ("est.apply_share", "ratio", "host_s @ read-miss"),
    (
        "est.btree_share",
        "ratio",
        "host_s @ oltp-ladder, read-miss",
    ),
    ("est.histogram_share", "ratio", "host_s @ all"),
    ("est.queue_share", "ratio", "host_s @ all"),
    ("est.covered_share", "ratio", "host_s @ all"),
];

fn hist_ms(h: &Histogram, q: f64) -> f64 {
    h.try_quantile(q).unwrap_or(0) as f64 / 1e6
}

fn hist_us(h: &Histogram, q: f64) -> f64 {
    h.try_quantile(q).unwrap_or(0) as f64 / 1e3
}

/// Snapshot taken when a window opens, for counters `clear_stats` does
/// not reset.
pub struct WindowStart {
    pub events: u64,
    pub overflowed: u64,
    pub disk: Vec<(u64, u64)>,
}

pub fn window_start(sim: &Sim, storage: &[NodeId]) -> WindowStart {
    WindowStart {
        events: sim.events_dispatched(),
        overflowed: sim.events_overflowed(),
        disk: storage.iter().map(|&n| sim.disk_ops(n)).collect(),
    }
}

/// Layer metrics of the window that began at `start`; per-transaction
/// ratios divide by the transactions the engines committed in it.
pub fn window_layers(
    sim: &Sim,
    storage: &[NodeId],
    start: &WindowStart,
    host_window_s: f64,
    out: &mut Metrics,
) {
    let m = &sim.metrics;
    let net = sim.net();
    let commits = m.counter_total("engine.commits") as f64;
    let per_txn = |v: u64| ratio(v as f64, commits);

    let events = sim.events_dispatched() - start.events;
    out.set("sim.events", "count", events as f64);
    out.set("sim.events_per_txn", "count", per_txn(events));
    out.set(
        "sim.host_ns_per_event",
        "ns",
        ratio(host_window_s * 1e9, events as f64),
    );
    out.set(
        "sim.events_per_host_s",
        "1/s",
        ratio(events as f64, host_window_s),
    );
    out.set(
        "queue.high_water",
        "count",
        sim.events_queue_high_water() as f64,
    );
    out.set(
        "queue.overflow_pushes",
        "count",
        (sim.events_overflowed() - start.overflowed) as f64,
    );
    out.set(
        "queue.reserved_mb",
        "MB",
        sim.events_reserved_bytes() as f64 / 1048576.0,
    );

    out.set(
        "net.log_write_pkts_per_txn",
        "count",
        per_txn(net.class_packets("log_write")),
    );
    out.set(
        "net.log_write_bytes_per_txn",
        "B",
        per_txn(net.class_bytes("log_write")),
    );
    out.set(
        "net.log_ack_pkts_per_txn",
        "count",
        per_txn(net.class_packets("log_ack")),
    );
    out.set(
        "net.page_read_pkts_per_txn",
        "count",
        per_txn(net.class_packets("page_read")),
    );
    out.set(
        "net.page_resp_bytes_per_txn",
        "B",
        per_txn(net.class_bytes("page_resp")),
    );
    out.set(
        "net.replica_stream_bytes_per_txn",
        "B",
        per_txn(net.class_bytes("replica_stream")),
    );
    out.set(
        "net.gossip_pkts_per_txn",
        "count",
        per_txn(net.class_packets("gossip")),
    );
    out.set("net.dropped", "count", net.dropped as f64);

    let (mut reads, mut writes) = (0u64, 0u64);
    for (i, &n) in storage.iter().enumerate() {
        let (r, w) = sim.disk_ops(n);
        reads += r - start.disk[i].0;
        writes += w - start.disk[i].1;
    }
    out.set("disk.writes_per_txn", "count", per_txn(writes));
    out.set("disk.reads_per_txn", "count", per_txn(reads));

    let commit = m.histogram_total("engine.commit_ns");
    let batches = m.counter_total("engine.batches") as f64;
    let write_txns = m.counter_total("engine.write_txns") as f64;
    out.set("engine.commit_p50_ms", "ms", hist_ms(&commit, 0.50));
    out.set("engine.commit_p99_ms", "ms", hist_ms(&commit, 0.99));
    out.set(
        "engine.ack_p99_us",
        "us",
        hist_us(&m.histogram_total("engine.ack_ns"), 0.99),
    );
    out.set(
        "engine.records_per_batch",
        "count",
        ratio(m.counter_total("engine.records_shipped") as f64, batches),
    );
    out.set(
        "engine.batches_per_commit",
        "count",
        ratio(batches, write_txns),
    );
    out.set(
        "engine.ship_immediate_share",
        "ratio",
        ratio(m.counter_total("engine.ship_immediate") as f64, batches),
    );
    out.set(
        "engine.retransmits_per_batch",
        "ratio",
        ratio(
            m.counter_total("engine.log_write_retransmits") as f64,
            batches,
        ),
    );
    out.set(
        "engine.lal_stalls",
        "count",
        m.counter_total("engine.lal_stalls") as f64,
    );
    out.set(
        "engine.lock_waits",
        "count",
        m.counter_total("engine.lock_waits") as f64,
    );

    let select = m.histogram_total("engine.select_ns");
    out.set("engine.select_p99_us", "us", hist_us(&select, 0.99));
    out.set(
        "engine.page_fetches_per_read",
        "ratio",
        ratio(
            m.counter_total("engine.page_fetches") as f64,
            select.count() as f64,
        ),
    );
    out.set(
        "engine.page_fetch_p99_us",
        "us",
        hist_us(&m.histogram_total("engine.page_fetch_ns"), 0.99),
    );
    out.set(
        "engine.read_retries",
        "count",
        m.counter_total("engine.read_retries") as f64,
    );

    let batches_in = m.counter_total("storage.batches_in") as f64;
    out.set(
        "storage.batches_in_per_commit",
        "count",
        ratio(batches_in, commits),
    );
    out.set(
        "storage.fast_ack_share",
        "ratio",
        ratio(m.counter_total("storage.fast_acks") as f64, batches_in),
    );
    out.set(
        "storage.persist_p99_us",
        "us",
        hist_us(&m.histogram_total("storage.persist_ns"), 0.99),
    );
    for name in [
        "storage.page_reads",
        "storage.coalesced",
        "storage.gc_records",
    ] {
        out.set(name, "count", m.counter_total(name) as f64);
    }

    out.set(
        "replica.applied_per_commit",
        "count",
        per_txn(m.counter_total("replica.applied")),
    );
    out.set(
        "replica.discarded",
        "count",
        m.counter_total("replica.discarded") as f64,
    );

    out.set(
        "control.repairs_completed",
        "count",
        m.counter_total("control.repairs_completed") as f64,
    );
    out.set(
        "engine.recoveries",
        "count",
        m.counter_total("engine.recoveries") as f64,
    );
    crate::estimate::window_shares(sim, events, host_window_s, out);
}

/// Simulated-time spans read back from the program's trace ring, reduced
/// to per-kind self time: a span's duration minus the time its direct
/// children cover. Span ids restart with every simulation, so each one is
/// folded in separately.
#[derive(Default)]
pub struct SpanTable {
    /// kind -> (closed spans, self ns)
    per_kind: BTreeMap<String, (u64, u64)>,
    dropped: u64,
}

/// (kind, begins, span, parent, at_ns) of one trace event.
type SpanEvent<'a> = (&'a str, bool, u64, u64, u64);

impl SpanTable {
    fn fold<'a>(&mut self, events: impl Iterator<Item = SpanEvent<'a>>) {
        // span id -> (kind, begin, end, parent)
        let mut spans: BTreeMap<u64, (&str, u64, Option<u64>, u64)> = BTreeMap::new();
        for (kind, begins, span, parent, at) in events {
            if begins {
                spans.insert(span, (kind, at, None, parent));
            } else if let Some(s) = spans.get_mut(&span) {
                s.2 = Some(at);
            }
        }
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, begin, end, parent) in spans.values() {
            if let (Some(end), true) = (end, *parent != 0) {
                *child_ns.entry(*parent).or_default() += end - begin;
            }
        }
        for (id, (kind, begin, end, _)) in &spans {
            let Some(end) = end else { continue };
            let own = (end - begin).saturating_sub(child_ns.get(id).copied().unwrap_or(0));
            let slot = self.per_kind.entry(kind.to_string()).or_default();
            slot.0 += 1;
            slot.1 += own;
        }
    }

    pub fn add_buffer(&mut self, buf: &TraceBuffer) {
        self.dropped += buf.dropped();
        self.fold(
            buf.events()
                .filter(|e| e.phase != TracePhase::Instant)
                .map(|e| {
                    (
                        buf.kind_name(e.kind),
                        e.phase == TracePhase::Begin,
                        e.span,
                        e.parent,
                        e.at_ns,
                    )
                }),
        );
    }

    /// The NDJSON rendering of a trace ring (`trace::ndjson`).
    pub fn add_ndjson(&mut self, ndjson: &str) {
        fn field<'a>(line: &'a str, key: &str) -> &'a str {
            let pat = format!("\"{key}\":");
            let rest = line
                .find(&pat)
                .map(|i| &line[i + pat.len()..])
                .unwrap_or("");
            let rest = rest.trim_start_matches('"');
            let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
            &rest[..end]
        }
        let num = |line: &str, key: &str| field(line, key).parse::<u64>().unwrap_or(0);
        self.fold(ndjson.lines().filter_map(|l| {
            let begins = match field(l, "phase") {
                "begin" => true,
                "end" => false,
                _ => return None,
            };
            Some((
                field(l, "kind"),
                begins,
                num(l, "span"),
                num(l, "parent"),
                num(l, "at_ns"),
            ))
        }));
    }

    /// Mean self time per span of the commit, persist, recovery and repair
    /// kinds, and how many events the ring dropped.
    pub fn report(&self, out: &mut Metrics) {
        let get = |k: &str| self.per_kind.get(k).copied().unwrap_or((0, 0));
        for kind in [
            "engine.commit",
            "storage.persist",
            "engine.recovery",
            "control.repair",
        ] {
            let (n, ns) = get(kind);
            out.set(
                format!("span.{kind}.self_us"),
                "us",
                ratio(ns as f64 / 1e3, n as f64),
            );
        }
        out.set("trace.dropped", "count", self.dropped as f64);
    }

    /// Closed spans of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.per_kind.get(kind).map(|v| v.0).unwrap_or(0)
    }
}
