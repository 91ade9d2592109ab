//! `dst-moderate`: a fixed range of moderate-intensity fault schedules,
//! swept through `dst::run_seed` on `available_parallelism` workers with
//! every oracle on. This is the loop CI and developers wait for.
//!
//! Seeds `seed * SEEDS .. seed * SEEDS + SEEDS` make one sweep. Set-up
//! builds one DST world, expands every seed into its fault plan and sweeps
//! the first few seeds untimed.

use std::time::Instant;

use aurora_bench::dst::{cluster_config, plan_for_seed, run_seed, DstConfig, DstReport};
use aurora_bench::sweep::{default_jobs, parallel_map};
use aurora_core::cluster::Cluster;

use crate::layers::SpanTable;
use crate::report::{quantile, ratio, Digest, Metrics, Rep, Spans};
use crate::Instrument;

pub const SEEDS: u64 = 300;
/// Seeds swept untimed before the measured sweep (threads, allocator).
const WARMUP_SEEDS: usize = 6;

fn config(seed: u64, instrument: Instrument) -> DstConfig {
    DstConfig {
        seed,
        trace: instrument == Instrument::SimTrace,
        telemetry: instrument == Instrument::Telemetry,
        ..DstConfig::default()
    }
}

/// Sweep the range on `jobs` workers: reports in seed order and the host
/// milliseconds each seed took.
pub fn sweep(seeds: &[u64], jobs: usize, instrument: Instrument) -> (Vec<DstReport>, Vec<f64>) {
    let out = parallel_map(
        seeds,
        jobs,
        |&s| {
            let t = Instant::now();
            let r = run_seed(&config(s, instrument));
            (r, t.elapsed().as_secs_f64() * 1e3)
        },
        |_, _| {},
    );
    out.into_iter().unzip()
}

/// The DST seeds one benchmark seed sweeps.
pub fn seed_range(seed: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(SEEDS);
    (base..base + SEEDS).collect()
}

pub fn run(seed: u64, instrument: Instrument, spans: &mut Spans) -> Result<Rep, String> {
    let seeds = seed_range(seed);

    let setup = spans.begin("setup");
    let g = spans.begin("cluster.build");
    let c = Cluster::build(cluster_config(&config(seeds[0], Instrument::Plain)));
    let build_s = spans.end(g);
    drop(c);
    let g = spans.begin("plan_for_seed");
    let plans: Vec<usize> = seeds
        .iter()
        .map(|&s| plan_for_seed(&config(s, instrument)).len())
        .collect();
    let generate_us = spans.end(g) * 1e6 / SEEDS as f64;
    let g = spans.begin("warmup");
    sweep(&seeds[..WARMUP_SEEDS], default_jobs(), Instrument::Plain);
    let warmup_s = spans.end(g);
    let setup_s = spans.end(setup);

    let measured = spans.begin("window");
    let g = spans.begin("run_seed");
    let (reports, per_seed_ms) = sweep(&seeds, default_jobs(), instrument);
    spans.end(g);
    let host_s = spans.end(measured);

    let g = spans.begin("checks");
    let mut digest = Digest::new();
    let mut failing = Vec::new();
    let mut window_commits = 0u64;
    let mut commits = 0u64;
    let mut p99_ns = Vec::new();
    let mut span_table = SpanTable::default();
    for (r, &plan_len) in reports.iter().zip(&plans) {
        for v in [
            r.seed,
            r.plan_len as u64,
            r.commits,
            r.window_commits,
            r.commit_p99_ns,
            r.clock_ns,
        ] {
            digest.u64(v);
        }
        digest.u64(r.violations.len() as u64);
        if !r.passed() || r.plan_len != plan_len {
            failing.push((r.seed, format!("{:?}", r.violations)));
        }
        window_commits += r.window_commits;
        commits += r.commits;
        p99_ns.push(r.commit_p99_ns);
        if let Some(t) = &r.trace {
            span_table.add_ndjson(&t.ndjson);
        }
    }
    spans.end(g);
    if let Some((s, v)) = failing.first() {
        return Err(format!(
            "{} of {SEEDS} seeds failed; seed {s}: {v}",
            failing.len()
        ));
    }

    let n = SEEDS as f64;
    let window_s = DstConfig::default().window.secs_f64();
    let mut sim = Metrics::default();
    sim.set("tps", "1/s", window_commits as f64 / (n * window_s));
    // the median seed's writer commit p99 inside its fault window
    sim.set(
        "seed_commit_p99_ms",
        "ms",
        quantile(&mut p99_ns, 0.50) as f64 / 1e6,
    );
    sim.set("failed_share", "ratio", failing.len() as f64 / n);

    let mut layers = Metrics::default();
    let mut ms: Vec<u64> = per_seed_ms.iter().map(|m| (m * 1e3) as u64).collect();
    layers.set(
        "dst.host_ms_per_seed_p50",
        "ms",
        quantile(&mut ms, 0.50) as f64 / 1e3,
    );
    layers.set(
        "dst.host_ms_per_seed_p90",
        "ms",
        quantile(&mut ms, 0.90) as f64 / 1e3,
    );
    layers.set("schedule.generate_us", "us", generate_us);
    layers.set("dst.commits_per_seed", "count", ratio(commits as f64, n));
    layers.set("cluster.build_s", "s", build_s);
    layers.set("warmup_s", "s", warmup_s);
    if instrument == Instrument::SimTrace {
        span_table.report(&mut layers);
        layers.set(
            "control.repairs_completed",
            "count",
            span_table.count("control.repair") as f64,
        );
        layers.set(
            "engine.recoveries",
            "count",
            span_table.count("engine.recovery") as f64,
        );
    }
    Ok(Rep {
        setup_s,
        host_s,
        sim,
        layers,
        digest: digest.finish(),
        attempted: SEEDS,
        failed: failing.len() as u64,
    })
}
