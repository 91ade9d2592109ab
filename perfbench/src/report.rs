//! Result records, statistics helpers, host-time spans and the digest.

use std::time::Instant;

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Ordered list of metrics; a name is set at most once.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric { name, unit, value }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one repetition of a workload produced.
pub struct Rep {
    /// Host seconds spent building, bootstrapping and warming up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Simulated-clock end-to-end metrics. They repeat exactly per seed.
    pub sim: Metrics,
    /// Per-layer metrics, simulated-clock counts and host-time figures.
    pub layers: Metrics,
    /// Digest of every simulated-time number the repetition produced.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Exact quantile of unsorted samples (nearest rank), in the samples' unit.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a digest over the simulated-time numbers of a repetition.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    /// Every counter and histogram of a simulation's registry, plus its
    /// network totals and clock.
    pub fn sim(&mut self, sim: &aurora_sim::Sim) {
        for (owner, name, v) in sim.metrics.counters_snapshot() {
            self.u64(owner as u64);
            self.str(name);
            self.u64(v);
        }
        for (owner, name, count, p50, p95, p99, max) in sim.metrics.histograms_snapshot() {
            self.u64(owner as u64);
            self.str(name);
            for v in [count, p50, p95, p99, max] {
                self.u64(v);
            }
        }
        let net = sim.net();
        for v in [net.packets, net.bytes, net.dropped, sim.now().nanos()] {
            self.u64(v);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One host-time span around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory host-time span recorder. Spans nest by call order; ids are
/// unique within one process, which runs one workload.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

pub struct SpanGuard(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> SpanGuard {
        let parent = self.stack.last().map(|&i| self.spans[i].id).unwrap_or(0);
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: idx as u32 + 1,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        SpanGuard(idx)
    }

    /// Close the span; returns its duration in seconds.
    pub fn end(&mut self, g: SpanGuard) -> f64 {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(g.0), "spans must close innermost first");
        let s = &mut self.spans[g.0];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time per span name (duration minus the time covered by direct
    /// children), seconds, in first-seen order.
    pub fn self_time(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// NDJSON, one span a line.
    pub fn ndjson(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"run\":\"{workload}/{seed}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Render a float for JSON: full precision, never NaN or infinite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
