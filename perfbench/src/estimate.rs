//! Estimated host time inside the event loop.
//!
//! The event loop is one host span seen from outside. Its inside is
//! estimated as the window's operation counts times the per-call cost of
//! the layer's public functions, timed here on inputs shaped like the run:
//! redo batches of write records with 64-byte patches, 96-byte rows in a
//! 20k-row B+-tree, latency-sized histogram samples and a near-horizon
//! event queue. Real per-actor attribution needs a profiler inside the
//! kernel; these shares are estimates and are labelled as such.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use aurora_core::btree::MemProvider;
use aurora_core::{BTree, TreeMeta};
use aurora_log::{
    apply_record, codec, LogRecord, Lsn, Page, PageId, Patch, PgId, RecordBody, TxnId,
};
use aurora_sim::{EventQueue, Histogram, Sim, WheelItem};
use bytes::Bytes;

use crate::report::{ratio, Metrics};

/// Host nanoseconds per call.
pub struct Costs {
    pub wire_size_per_record: f64,
    pub apply_record: f64,
    pub btree_get: f64,
    pub btree_update: f64,
    pub histogram_record: f64,
    pub queue_push_pop: f64,
}

static COSTS: OnceLock<Costs> = OnceLock::new();

pub fn costs() -> Option<&'static Costs> {
    COSTS.get()
}

fn write_record(lsn: u64) -> LogRecord {
    LogRecord {
        lsn: Lsn(lsn),
        prev_in_pg: Lsn(lsn.saturating_sub(1)),
        pg: PgId(0),
        txn: TxnId(lsn / 4),
        is_cpl: lsn.is_multiple_of(4),
        body: RecordBody::PageWrite {
            page: PageId(lsn % 64),
            patches: vec![Patch {
                offset: ((lsn * 97) % 3_900) as u32,
                before: Bytes::from(vec![0u8; 64]),
                after: Bytes::from(vec![(lsn % 251) as u8; 64]),
            }],
        },
    }
}

/// Median of five timings of `f`, in ns per call of `n` calls.
fn per_call(n: u64, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[2]
}

struct Item(u64, u64);
impl WheelItem for Item {
    fn at_nanos(&self) -> u64 {
        self.0
    }
    fn seq(&self) -> u64 {
        self.1
    }
}

/// Time the per-call costs once per process.
pub fn measure() -> &'static Costs {
    COSTS.get_or_init(|| {
        let batch: Vec<LogRecord> = (1..=16).map(write_record).collect();
        let wire_size_per_record = per_call(16 * 2_000, || {
            for _ in 0..2_000 {
                black_box(codec::batch_wire_size(black_box(&batch)));
            }
        });

        let records: Vec<LogRecord> = (1..=4_096).map(write_record).collect();
        let mut page = Page::new();
        let apply = per_call(records.len() as u64, || {
            for r in &records {
                let _ = black_box(apply_record(&mut page, r));
            }
        });

        let tree = BTree::new(TreeMeta::for_row_size(96, PageId(0)));
        let mut pages = MemProvider::new();
        tree.create(&mut pages).expect("fresh tree");
        let row = vec![7u8; 96];
        for k in 0..20_000u64 {
            tree.insert(&mut pages, k, &row).expect("bootstrap insert");
        }
        let btree_get = per_call(20_000, || {
            for i in 0..20_000u64 {
                black_box(tree.get(&mut pages, (i * 7_919) % 20_000).ok());
            }
        });
        let btree_update = per_call(2_000, || {
            for i in 0..2_000u64 {
                black_box(tree.update(&mut pages, (i * 7_919) % 20_000, &row).ok());
            }
        });

        let mut h = Histogram::new();
        let histogram_record = per_call(100_000, || {
            for i in 0..100_000u64 {
                h.record(black_box(1_000_000 + (i * 7_919) % 4_000_000));
            }
        });

        let mut q: EventQueue<Item> = EventQueue::new();
        let mut seq = 0u64;
        for i in 0..4_096u64 {
            q.push(Item(i * 1_000, seq));
            seq += 1;
        }
        let queue_push_pop = per_call(100_000, || {
            for i in 0..100_000u64 {
                let it = q.pop().expect("queue is primed");
                q.push(Item(it.0 + 4_096_000 + (i % 7) * 1_000, seq));
                seq += 1;
            }
        });

        Costs {
            wire_size_per_record,
            apply_record: apply,
            btree_get,
            btree_update,
            histogram_record,
            queue_push_pop,
        }
    })
}

/// Estimated shares of the window's host time, from its counts.
pub fn window_shares(sim: &Sim, events: u64, host_window_s: f64, out: &mut Metrics) {
    let Some(c) = costs() else { return };
    let m = &sim.metrics;
    let host_ns = host_window_s * 1e9;
    let shipped = m.counter_total("engine.records_shipped") as f64;
    // each record is sized when the writer sends it to six segments and
    // again when each storage node admits it
    let codec = 12.0 * shipped * c.wire_size_per_record;
    let applied =
        (m.counter_total("storage.coalesced") + m.counter_total("replica.applied")) as f64;
    let apply = applied * c.apply_record;
    let reads = (m.histogram_total("engine.select_ns").count()
        + m.histogram_total("engine.scan_ns").count()) as f64;
    let writes = m.histogram_total("engine.update_ns").count() as f64;
    let btree = reads * c.btree_get + writes * c.btree_update;
    let samples: u64 = m.histograms_snapshot().iter().map(|h| h.2).sum();
    let histogram = samples as f64 * c.histogram_record;
    let queue = events as f64 * c.queue_push_pop;
    let shares = [
        ("est.codec_share", codec),
        ("est.apply_share", apply),
        ("est.btree_share", btree),
        ("est.histogram_share", histogram),
        ("est.queue_share", queue),
    ];
    let mut covered = 0.0;
    for (name, ns) in shares {
        covered += ns;
        out.set(name, "ratio", ratio(ns, host_ns));
    }
    out.set("est.covered_share", "ratio", ratio(covered, host_ns));
}
