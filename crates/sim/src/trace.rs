//! Deterministic causal tracing on simulated time.
//!
//! A [`TraceBuffer`] is a ring of fixed-size [`TraceEvent`]s stamped with
//! the **simulated** clock — never the wall clock — so the same seed
//! yields a bit-identical trace. Events carry a `kind` (the id of a
//! [`Name`] descriptor, shared with the metrics; exporters print the
//! name, never the id), a span id with an optional parent for causal
//! chains (commit → quorum ack → VDL advance → replica apply), and two
//! untyped `u64` attributes whose meaning is per-kind (an LSN, a PG, a
//! lag in nanoseconds).
//!
//! Tracing off costs one branch per emit site and allocates nothing;
//! tracing on appends one `Copy` struct into a pre-sized ring (oldest
//! events are evicted first, so the buffer always holds the most recent
//! window — exactly what failure forensics wants). Because simulated time
//! is monotonic, append order *is* time order: spans emit their `Begin`
//! at operation start and their `End` at completion, never back-dated.
//!
//! Two exporters render the ring: [`chrome_trace`] produces Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto; spans
//! become async events on the emitting node's track) and [`ndjson`]
//! produces one JSON object per line for grep/jq. [`watermark_table`]
//! renders the `wm.*` timeline events (VDL/VCL/SCL/PGMRPL) as a per-PG
//! table for DST failure messages.

use crate::metrics::{Name, NameTable};

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    Begin,
    End,
    Instant,
}

/// A span identifier. `SpanId::NONE` (0) is the "tracing disabled"
/// sentinel: ending or parenting on it is a no-op, so emit sites can
/// thread span ids through their pending-operation state unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// One trace record. Fixed-size and `Copy`: recording is a ring store,
/// never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds.
    pub at_ns: u64,
    /// Emitting node id.
    pub actor: u32,
    /// Kind name id (resolve with [`TraceBuffer::kind_name`]).
    pub kind: u32,
    pub phase: TracePhase,
    /// Span this event opens/closes; 0 for instants without a span.
    pub span: u64,
    /// Parent span, 0 if none.
    pub parent: u64,
    /// Per-kind attribute (conventionally an LSN).
    pub a0: u64,
    /// Per-kind attribute (conventionally a PG or segment index).
    pub a1: u64,
}

/// Ring-buffered deterministic trace recorder. Lives on the [`crate::Sim`]
/// next to the metrics registry; actors emit through `Ctx::trace_*`.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    enabled: bool,
    cap: usize,
    ring: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Span ids handed out so far (ids start at 1; 0 is the sentinel).
    next_span: u64,
    /// Events evicted from the ring (oldest-first).
    dropped: u64,
}

impl TraceBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn tracing on with room for `cap` events (older events evict
    /// first). Resets the ring and the span counter so two same-seed runs
    /// that enable at the same point produce byte-identical traces.
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap.max(1);
        self.ring.clear();
        self.head = 0;
        self.next_span = 0;
        self.dropped = 0;
    }

    /// Turn tracing off; the recorded events stay readable.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Resolve a kind id back to its name.
    pub fn kind_name(&self, kind: u32) -> &'static str {
        NameTable::read()
            .names()
            .get(kind as usize)
            .copied()
            .unwrap_or("?")
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            // evict oldest-first: overwrite the head, advance it
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Open a span. Returns `SpanId::NONE` when tracing is off, so the
    /// disabled cost at the emit site is this one branch.
    #[inline]
    pub fn begin(
        &mut self,
        at_ns: u64,
        actor: u32,
        kind: &Name,
        parent: SpanId,
        a0: u64,
        a1: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let kind = kind.id();
        self.next_span += 1;
        let span = self.next_span;
        self.push(TraceEvent {
            at_ns,
            actor,
            kind,
            phase: TracePhase::Begin,
            span,
            parent: parent.0,
            a0,
            a1,
        });
        SpanId(span)
    }

    /// Close a span. No-op when tracing is off or `span` is the sentinel
    /// (e.g. the span was opened before tracing was enabled).
    #[inline]
    pub fn end(&mut self, at_ns: u64, actor: u32, kind: &Name, span: SpanId, a0: u64, a1: u64) {
        if !self.enabled || span.is_none() {
            return;
        }
        let kind = kind.id();
        self.push(TraceEvent {
            at_ns,
            actor,
            kind,
            phase: TracePhase::End,
            span: span.0,
            parent: 0,
            a0,
            a1,
        });
    }

    /// Record a standalone event (watermark advances, apply marks).
    #[inline]
    pub fn instant(
        &mut self,
        at_ns: u64,
        actor: u32,
        kind: &Name,
        parent: SpanId,
        a0: u64,
        a1: u64,
    ) {
        if !self.enabled {
            return;
        }
        let kind = kind.id();
        self.push(TraceEvent {
            at_ns,
            actor,
            kind,
            phase: TracePhase::Instant,
            span: 0,
            parent: parent.0,
            a0,
            a1,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring[self.head..]
            .iter()
            .chain(self.ring[..self.head].iter())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted oldest-first because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop recorded events but keep the span counter
    /// (so spans still open across a warm-up boundary keep unique ids).
    pub fn clear_events(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Microseconds with nanosecond fraction, as Chrome's `ts` field expects.
fn ts_us(at_ns: u64) -> String {
    format!("{}.{:03}", at_ns / 1_000, at_ns % 1_000)
}

/// Render the buffer as Chrome `trace_event` JSON: open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>. Spans become async
/// events (`b`/`e`) keyed by span id on the emitting node's track;
/// instants become thread-scoped `i` events. `name_of` maps a node id to
/// its display name.
pub fn chrome_trace(buf: &TraceBuffer, name_of: impl Fn(u32) -> String) -> String {
    chrome_trace_with(buf, name_of, &[])
}

/// [`chrome_trace`] plus extra pre-rendered event objects (no trailing
/// comma or newline) spliced into the same JSON array — used by the
/// telemetry flight recorder to add counter tracks next to the spans.
pub fn chrome_trace_with(
    buf: &TraceBuffer,
    name_of: impl Fn(u32) -> String,
    extra: &[String],
) -> String {
    let mut actors: Vec<u32> = buf.events().map(|e| e.actor).collect();
    actors.sort_unstable();
    actors.dedup();
    let mut out = String::from("[\n");
    for a in &actors {
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}},\n",
            a,
            json_escape(&name_of(*a))
        ));
    }
    let n = buf.len();
    for (i, e) in buf.events().enumerate() {
        let kind = json_escape(buf.kind_name(e.kind));
        let comma = if i + 1 == n && extra.is_empty() {
            ""
        } else {
            ","
        };
        match e.phase {
            TracePhase::Begin | TracePhase::End => {
                let ph = if e.phase == TracePhase::Begin {
                    "b"
                } else {
                    "e"
                };
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"aurora\",\"ph\":\"{}\",\"id\":\"0x{:x}\",\
                     \"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"parent\":\"0x{:x}\",\
                     \"a0\":{},\"a1\":{}}}}}{}\n",
                    kind,
                    ph,
                    e.span,
                    e.actor,
                    ts_us(e.at_ns),
                    e.parent,
                    e.a0,
                    e.a1,
                    comma
                ));
            }
            TracePhase::Instant => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"aurora\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"parent\":\"0x{:x}\",\
                     \"a0\":{},\"a1\":{}}}}}{}\n",
                    kind,
                    e.actor,
                    ts_us(e.at_ns),
                    e.parent,
                    e.a0,
                    e.a1,
                    comma
                ));
            }
        }
    }
    for (i, line) in extra.iter().enumerate() {
        let comma = if i + 1 == extra.len() { "" } else { "," };
        out.push_str(line);
        out.push_str(comma);
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Render the buffer as newline-delimited JSON, one event per line —
/// the grep/jq-friendly twin of [`chrome_trace`].
pub fn ndjson(buf: &TraceBuffer, name_of: impl Fn(u32) -> String) -> String {
    let mut out = String::new();
    for e in buf.events() {
        let phase = match e.phase {
            TracePhase::Begin => "begin",
            TracePhase::End => "end",
            TracePhase::Instant => "instant",
        };
        out.push_str(&format!(
            "{{\"at_ns\":{},\"actor\":{},\"actor_name\":\"{}\",\"kind\":\"{}\",\
             \"phase\":\"{}\",\"span\":{},\"parent\":{},\"a0\":{},\"a1\":{}}}\n",
            e.at_ns,
            e.actor,
            json_escape(&name_of(e.actor)),
            json_escape(buf.kind_name(e.kind)),
            phase,
            e.span,
            e.parent,
            e.a0,
            e.a1,
        ));
    }
    out
}

/// Render the watermark timeline (`wm.vdl` / `wm.vcl` / `wm.scl` /
/// `wm.pgmrpl` instants, `a0` = LSN, `a1` = PG) as a per-PG table.
/// DST negative tests append this to failure messages so a violated
/// oracle shows the watermark *history*, not just the final values.
pub fn watermark_table(buf: &TraceBuffer) -> String {
    let is_wm = |e: &TraceEvent| buf.kind_name(e.kind).starts_with("wm.");
    let mut pgs: Vec<u64> = buf.events().filter(|e| is_wm(e)).map(|e| e.a1).collect();
    pgs.sort_unstable();
    pgs.dedup();
    let mut out = String::from("== watermark timeline ==\n");
    if pgs.is_empty() {
        out.push_str("(no watermark events recorded — was tracing enabled?)\n");
        return out;
    }
    for pg in pgs {
        out.push_str(&format!("-- pg {pg} --\n"));
        for e in buf.events().filter(|e| is_wm(e) && e.a1 == pg) {
            out.push_str(&format!(
                "  +{:>12}us  node {:>3}  {:<10}  lsn {}\n",
                e.at_ns / 1_000,
                e.actor,
                buf.kind_name(e.kind),
                e.a0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;

    fn ev(buf: &TraceBuffer) -> Vec<(u64, u64)> {
        buf.events().map(|e| (e.at_ns, e.a0)).collect()
    }

    #[test]
    fn disabled_buffer_records_nothing_and_hands_out_sentinels() {
        let mut b = TraceBuffer::new();
        let s = b.begin(1, 0, name!("x"), SpanId::NONE, 0, 0);
        assert!(s.is_none());
        b.end(2, 0, name!("x"), s, 0, 0);
        b.instant(3, 0, name!("y"), SpanId::NONE, 0, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_first_without_reordering() {
        let mut b = TraceBuffer::new();
        b.enable(4);
        for t in 0..10u64 {
            b.instant(t, 0, name!("k"), SpanId::NONE, t, 0);
        }
        // only the newest 4 remain, still in time order
        assert_eq!(ev(&b), vec![(6, 6), (7, 7), (8, 8), (9, 9)]);
        assert_eq!(b.dropped(), 6);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn span_ids_are_unique_and_parented() {
        let mut b = TraceBuffer::new();
        b.enable(16);
        let root = b.begin(1, 0, name!("commit"), SpanId::NONE, 42, 0);
        let child = b.begin(2, 0, name!("quorum"), root, 42, 0);
        assert_ne!(root, child);
        b.end(3, 0, name!("quorum"), child, 0, 0);
        b.end(4, 0, name!("commit"), root, 0, 0);
        let events: Vec<&TraceEvent> = b.events().collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].parent, root.0);
        assert_eq!(events[2].phase, TracePhase::End);
        assert_eq!(events[2].span, child.0);
    }

    #[test]
    fn kinds_share_the_name_table_and_survive_clear() {
        static KIND: Name = Name::new("trace.test.commit");
        let mut b = TraceBuffer::new();
        b.enable(8);
        b.instant(1, 0, &KIND, SpanId::NONE, 0, 0);
        b.instant(2, 0, name!("trace.test.commit"), SpanId::NONE, 0, 0);
        let kinds: Vec<u32> = b.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![KIND.id(), KIND.id()]);
        b.clear_events();
        assert!(b.is_empty());
        assert_eq!(b.kind_name(KIND.id()), "trace.test.commit");
        assert_eq!(b.kind_name(u32::MAX), "?");
    }

    #[test]
    fn exporters_are_pure_functions_of_the_ring() {
        let mut b = TraceBuffer::new();
        b.enable(8);
        let s = b.begin(1_500, 2, name!("engine.commit"), SpanId::NONE, 7, 0);
        b.instant(2_000, 2, name!("wm.vdl"), s, 7, 0);
        b.end(2_500, 2, name!("engine.commit"), s, 7, 0);
        let name = |a: u32| format!("node-{a}");
        let c1 = chrome_trace(&b, name);
        let c2 = chrome_trace(&b, name);
        assert_eq!(c1, c2);
        assert!(c1.contains("\"ph\":\"b\""));
        assert!(c1.contains("\"ph\":\"e\""));
        assert!(c1.contains("\"ts\":1.500"));
        let nd = ndjson(&b, name);
        assert_eq!(nd.lines().count(), 3);
        assert!(nd.contains("\"kind\":\"wm.vdl\""));
        let wm = watermark_table(&b);
        assert!(wm.contains("wm.vdl"));
        assert!(wm.contains("lsn 7"));
    }
}
