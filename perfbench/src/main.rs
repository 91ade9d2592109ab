//! Two-clock benchmark of the Aurora simulation.
//!
//! ```text
//! perfbench --workload <oltp-ladder|read-miss|sessions-32k|dst-moderate>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It repeats the workload, each time from
//! a fresh build with the same seed, until `--seconds` have passed (at
//! least three times), and reports the median set-up and measured host
//! time. Every repetition must pass the workload's correctness checks and
//! produce the same digest of its simulated-time numbers; otherwise the
//! failure is printed and the process exits with code 1 before any result.
//!
//! With `--trace 0` the last stdout line is the end-to-end result as JSON.
//! With `--trace 1` the run adds one repetition with the program's trace
//! ring on and one with its telemetry sampler on, times the per-call cost
//! of the layers' public functions, writes the benchmark's own host-time
//! spans to `.perfbench_out/spans_<workload>_<seed>.ndjson`, and reports every
//! per-layer metric, each labelled with the end-to-end metric it should
//! move.

mod driver;
mod dstw;
mod estimate;
mod layers;
mod report;
mod sessions;
mod single;

use std::process::ExitCode;
use std::time::Instant;

use aurora_sim::{Sim, SloSpec, TelemetryConfig};

use aurora_bench::harness::peak_rss_kb;

use crate::report::{json_num, median, Metrics, Rep, Spans};

pub const WORKLOADS: &[&str] = &["oltp-ladder", "read-miss", "sessions-32k", "dst-moderate"];

/// Repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 12;
/// Where traced runs write the benchmark's host-time spans.
const SPANS_DIR: &str = ".perfbench_out";
/// Trace ring capacity for the traced repetition (~56 B per event).
const TRACE_RING: usize = 1 << 18;

/// Which of the program's observation switches a repetition turns on for
/// its measured phase. Both are observation-only, so the digest must not
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    Plain,
    SimTrace,
    Telemetry,
}

impl Instrument {
    pub fn enable(self, sim: &mut Sim) {
        match self {
            Instrument::Plain => {}
            Instrument::SimTrace => sim.trace.enable(TRACE_RING),
            Instrument::Telemetry => sim.enable_telemetry(TelemetryConfig {
                slos: SloSpec::aurora_defaults(),
                ..TelemetryConfig::default()
            }),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = val()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run_rep(
    workload: &str,
    seed: u64,
    instrument: Instrument,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let g = spans.begin("rep");
    let rep = match workload {
        "oltp-ladder" => single::run(&single::OLTP_LADDER, seed, instrument, spans),
        "read-miss" => single::run(&single::READ_MISS, seed, instrument, spans),
        "sessions-32k" => sessions::run(seed, instrument, spans),
        _ => dstw::run(seed, instrument, spans),
    }?;
    spans.end(g);
    Ok(rep)
}

/// Median per metric name over the repetitions that report it.
fn median_metrics(reps: &[&Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for m in &reps[0].0 {
        let vals: Vec<f64> = reps.iter().filter_map(|r| r.get(&m.name)).collect();
        out.set(m.name.clone(), m.unit, median(&vals));
    }
    out
}

fn print_json(attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload, args.seed
            );
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload.as_str();
    let mut spans = Spans::new();
    if args.trace {
        estimate::measure();
    }
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if args.trace { 2 } else { MIN_REPS };
    while reps.len() < min_reps
        || (started.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        reps.push(run_rep(w, args.seed, Instrument::Plain, &mut spans)?);
    }
    let digest = reps[0].digest;
    if let Some(r) = reps.iter().find(|r| r.digest != digest) {
        return Err(format!(
            "same seed, different simulated results: digest {digest:016x} vs {:016x}",
            r.digest
        ));
    }
    let setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let host_s = median(&reps.iter().map(|r| r.host_s).collect::<Vec<_>>());
    let first = &reps[0];
    println!("workload {w} seed {} reps {}", args.seed, reps.len());
    println!("digest {w} seed {} {digest:016x}", args.seed);
    let list = |f: fn(&Rep) -> f64| {
        reps.iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  per rep: setup_s {} | host_s {}",
        list(|r| r.setup_s),
        list(|r| r.host_s)
    );
    for m in &first.sim.0 {
        println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }

    if !args.trace {
        let mut e2e = Metrics::default();
        e2e.set("setup_s", "s", setup_s);
        e2e.set("host_s", "s", host_s);
        e2e.set("peak_rss_mb", "MB", peak_rss_kb() as f64 / 1024.0);
        let tps = first.sim.get("tps").expect("every workload reports tps");
        e2e.set("tps", "1/s", tps);
        for m in &e2e.0 {
            println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
        print_json(first.attempted, first.failed, &e2e);
        return Ok(());
    }

    // Traced run: the program's own observation switches, one at a time.
    let traced = run_rep(w, args.seed, Instrument::SimTrace, &mut spans)?;
    let sampled = run_rep(w, args.seed, Instrument::Telemetry, &mut spans)?;
    for (what, r) in [("trace", &traced), ("telemetry", &sampled)] {
        if r.digest != digest {
            return Err(format!("turning {what} on changed the simulated results"));
        }
    }
    let plain: Vec<&Metrics> = reps.iter().map(|r| &r.layers).collect();
    let mut layers = median_metrics(&plain);
    for m in &traced.layers.0 {
        if layers.get(&m.name).is_none() {
            layers.set(m.name.clone(), m.unit, m.value);
        }
    }
    layers.set(
        "trace.overhead_share",
        "ratio",
        traced.host_s / host_s - 1.0,
    );
    layers.set(
        "telemetry.overhead_share",
        "ratio",
        sampled.host_s / host_s - 1.0,
    );
    if w == "dst-moderate" {
        let g = spans.begin("sweep.jobs1");
        dstw::sweep(&dstw::seed_range(args.seed), 1, Instrument::Plain);
        let one = spans.end(g);
        layers.set("sweep.speedup", "ratio", one / host_s);
        println!(
            "sweep of {} seeds: jobs 1 {one:.3} s, jobs {} {host_s:.3} s (available_parallelism)",
            dstw::SEEDS,
            aurora_bench::sweep::default_jobs()
        );
    }

    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = format!("{SPANS_DIR}/spans_{w}_{}.ndjson", args.seed);
    std::fs::write(&path, spans.ndjson(w, args.seed)).map_err(|e| format!("{path}: {e}"))?;
    println!("host-time spans: {path}");
    for (name, self_s) in spans.self_time() {
        println!("  span {name:<20} self {self_s:>10.4} s");
    }

    let mut out = Metrics::default();
    println!("per-layer metrics (should move: e2e metric @ workload)");
    for &(name, unit, moves) in layers::PER_LAYER {
        let v = layers.get(name).unwrap_or(0.0);
        println!("  {name:<34} {v:>14.4} {unit:<6} -> {moves}");
        out.set(name, unit, v);
    }
    print_json(first.attempted, first.failed, &out);
    Ok(())
}
