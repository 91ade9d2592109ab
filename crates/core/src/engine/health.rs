//! Gray-failure health tracking (§2.2/§4.1): the writer's view of each
//! storage member, fed by the ack/nack/timeout stream.
//!
//! A 4/6 write quorum lets the engine treat a *slow* member like a *dead*
//! one. [`SegmentHealth`] scores every (PG, replica-slot) member — an
//! ack-latency EWMA plus a saturating strike counter — steers reads away
//! from non-healthy members, and reports persistently bad ones to the
//! control plane so it can fence and repair them before they fail hard.

use std::collections::BTreeMap;

use aurora_log::{Lsn, PgId, SegmentId};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{name, Ctx, SimDuration, SimTime, SpanId};
use aurora_storage::wire as swire;

use super::{membership, EngineConfig};

/// Health classification of one (PG, replica-slot) storage member, as seen
/// from the engine's ack/nack/timeout stream (§4.1's monitoring loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    Healthy = 0,
    /// Enough recent strikes that reads prefer other members.
    Suspect = 1,
    /// Persistently bad: reported to the control plane for proactive
    /// fencing (repair onto a spare before the node fails hard).
    Degraded = 2,
}

/// EWMA weight for ack-latency samples.
const HEALTH_EWMA_ALPHA: f64 = 0.2;
/// Strikes at which a member becomes [`HealthState::Suspect`].
const HEALTH_SUSPECT_STRIKES: u32 = 3;
/// Strikes at which a member becomes [`HealthState::Degraded`]. Backoff
/// spacing keeps a typical crash window (~5 strikes before the control
/// plane's 600ms dead-node path fires) below this, so hard deaths are
/// still handled by the dead path; only *persistent* gray behavior —
/// long brownouts, nack storms — accumulates past it.
const HEALTH_DEGRADE_STRIKES: u32 = 8;
/// Strike counter ceiling (so recovery does not take forever).
const HEALTH_STRIKE_CAP: u32 = 16;
/// A non-healthy member with no strikes for this long resets to healthy
/// (the fault window ended; convergence oracle relies on this).
const HEALTH_IDLE_CLEAR: SimDuration = SimDuration::from_secs(1);

/// Per-(PG, slot) health tracker entry.
#[derive(Debug, Clone)]
struct NodeHealth {
    /// Ack-latency EWMA in nanoseconds (0 = no samples yet).
    ewma_ns: f64,
    /// Saturating counter of recent timeouts / nacks / re-ships.
    strikes: u32,
    state: HealthState,
    last_strike: SimTime,
    /// Suspect report already sent for the current degradation episode.
    reported: bool,
}

impl Default for NodeHealth {
    fn default() -> Self {
        NodeHealth {
            ewma_ns: 0.0,
            strikes: 0,
            state: HealthState::Healthy,
            last_strike: SimTime::ZERO,
            reported: false,
        }
    }
}

fn health_state_for(strikes: u32) -> HealthState {
    if strikes >= HEALTH_DEGRADE_STRIKES {
        HealthState::Degraded
    } else if strikes >= HEALTH_SUSPECT_STRIKES {
        HealthState::Suspect
    } else {
        HealthState::Healthy
    }
}

/// Compact (pg, slot) key for `engine.health` trace instants.
fn health_key(segment: SegmentId) -> u64 {
    ((segment.pg.0 as u64) << 8) | segment.replica as u64
}

/// Trace a member entering `state`.
fn trace_health(ctx: &mut Ctx<'_>, segment: SegmentId, state: HealthState) {
    let key = health_key(segment);
    ctx.trace_instant(name!("engine.health"), SpanId::NONE, key, state as u64);
}

/// The engine's volatile view of every storage member: completeness (the
/// last SCL each segment reported) and health. A restarted engine
/// re-learns both from scratch.
#[derive(Default)]
pub(super) struct SegmentHealth {
    /// BTreeMap: the decay sweep iterates it and emits trace instants, so
    /// iteration order must be deterministic.
    members: BTreeMap<SegmentId, NodeHealth>,
    /// Latest SCL per segment, from write acks, truncate acks and nacks.
    scls: HashMap<SegmentId, Lsn>,
    /// Test-only fault: freeze the tracker (no good-ack decay, no idle
    /// reset) so seeded suspect state lingers forever. Deliberately NOT
    /// cleared by [`SegmentHealth::clear`] — the DST health-convergence
    /// oracle must catch the lingering suspects even across restarts.
    frozen: bool,
}

impl SegmentHealth {
    /// Forget everything (crash): health and completeness are volatile.
    pub(super) fn clear(&mut self) {
        self.members.clear();
        self.scls.clear();
    }

    /// The slot→node mapping of `pg` changed: stale health verdicts must
    /// not follow a slot onto its replacement node.
    pub(super) fn forget_pg(&mut self, pg: PgId) {
        self.members.retain(|seg, _| seg.pg != pg);
    }

    pub(super) fn note_scl(&mut self, segment: SegmentId, scl: Lsn) {
        self.scls.insert(segment, scl);
    }

    pub(super) fn state(&self, segment: SegmentId) -> HealthState {
        self.members
            .get(&segment)
            .map(|h| h.state)
            .unwrap_or(HealthState::Healthy)
    }

    pub(super) fn suspect_count(&self) -> usize {
        self.members
            .values()
            .filter(|h| h.state != HealthState::Healthy)
            .count()
    }

    /// Ack-latency EWMA of a member in nanoseconds (0 with no samples).
    pub(super) fn ewma_ns(&self, segment: SegmentId) -> f64 {
        self.members.get(&segment).map(|h| h.ewma_ns).unwrap_or(0.0)
    }

    /// Test-only: mark a member degraded and freeze the tracker.
    pub(super) fn taint(&mut self, segment: SegmentId) {
        self.frozen = true;
        let h = self.members.entry(segment).or_default();
        h.strikes = HEALTH_DEGRADE_STRIKES;
        h.state = HealthState::Degraded;
    }

    /// Record one bad signal (timeout, nack, unacked slot at a full
    /// retransmit) against a member, escalating healthy → suspect →
    /// degraded by strike thresholds. Entering degraded reports the member
    /// to the control plane once per episode, which fences the segment and
    /// repairs it onto a spare *before* the node fails hard.
    pub(super) fn strike(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId, cfg: &EngineConfig) {
        let now = ctx.now();
        let h = self.members.entry(segment).or_default();
        h.strikes = (h.strikes + 1).min(HEALTH_STRIKE_CAP);
        h.last_strike = now;
        let new_state = health_state_for(h.strikes);
        let changed = new_state != h.state;
        h.state = new_state;
        let wants_report = new_state == HealthState::Degraded && !h.reported;
        ctx.inc(name!("engine.health_strikes"), 1);
        if changed {
            trace_health(ctx, segment, new_state);
        }
        if !wants_report {
            return;
        }
        // Differential observability: a member is only a *suspect* if its
        // peers look fine. When several members of the same PG are striking
        // at once the fault is the network (or this writer), not that one
        // disk — fencing would burn spares on a fault no repair can fix.
        // `reported` stays unset on suppression, so the report re-arms on
        // the next strike once the member is the lone outlier.
        let isolated = !self.members.iter().any(|(seg, peer)| {
            seg.pg == segment.pg
                && seg.replica != segment.replica
                && peer.state != HealthState::Healthy
        });
        if !isolated {
            return;
        }
        if let Some(control) = cfg.control {
            if let Some(h) = self.members.get_mut(&segment) {
                h.reported = true;
            }
            ctx.inc(name!("engine.suspect_reports"), 1);
            ctx.trace_instant(
                name!("engine.suspect"),
                SpanId::NONE,
                health_key(segment),
                0,
            );
            let node = membership(&cfg.memberships, segment.pg).slots[segment.replica as usize];
            ctx.send(control, swire::SuspectReport { segment, node });
        }
    }

    /// Fold a fresh (non-duplicate) write-ack into the member's EWMA and
    /// decay its strike counter — good signals walk a member back down
    /// through suspect to healthy.
    pub(super) fn note_ack(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId, latency_ns: u64) {
        let h = self.members.entry(segment).or_default();
        h.ewma_ns = if h.ewma_ns == 0.0 {
            latency_ns as f64
        } else {
            HEALTH_EWMA_ALPHA * latency_ns as f64 + (1.0 - HEALTH_EWMA_ALPHA) * h.ewma_ns
        };
        if self.frozen {
            return;
        }
        if h.strikes > 0 {
            h.strikes -= 1;
        }
        let new_state = health_state_for(h.strikes);
        let changed = new_state != h.state;
        h.state = new_state;
        if new_state == HealthState::Healthy {
            h.reported = false;
        }
        if changed {
            trace_health(ctx, segment, new_state);
        }
    }

    /// Sweep-driven idle reset: a non-healthy member with no strikes for
    /// [`HEALTH_IDLE_CLEAR`] returns to healthy (its fault window ended
    /// and traffic may no longer flow its way, so ack-driven decay alone
    /// cannot clear it). The DST health-convergence oracle relies on this.
    pub(super) fn decay(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        if self.frozen {
            return;
        }
        let mut cleared: Vec<SegmentId> = Vec::new();
        for (seg, h) in self.members.iter_mut() {
            if h.state != HealthState::Healthy && now.since(h.last_strike) > HEALTH_IDLE_CLEAR {
                h.strikes = 0;
                h.state = HealthState::Healthy;
                h.reported = false;
                cleared.push(*seg);
            }
        }
        for seg in cleared {
            trace_health(ctx, seg, HealthState::Healthy);
        }
    }

    /// §4.2.3: choose one of `pg`'s `slots` replicas whose SCL covers
    /// `bar` — no quorum read needed in the normal path. Complete members
    /// the tracker considers healthy are preferred; with no complete
    /// member (post-recovery), the highest known SCL wins, else slot 0.
    pub(super) fn pick_segment(
        &self,
        ctx: &mut Ctx<'_>,
        pg: PgId,
        bar: Lsn,
        slots: u8,
        avoid: Option<u8>,
    ) -> SegmentId {
        let candidates: Vec<u8> = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .filter(|r| {
                self.scls
                    .get(&SegmentId::new(pg, *r))
                    .is_some_and(|scl| *scl >= bar)
            })
            .collect();
        if !candidates.is_empty() {
            let healthy: Vec<u8> = candidates
                .iter()
                .copied()
                .filter(|r| {
                    self.members
                        .get(&SegmentId::new(pg, *r))
                        .is_none_or(|h| h.state == HealthState::Healthy)
                })
                .collect();
            let pool = if healthy.is_empty() {
                &candidates
            } else {
                &healthy
            };
            let pick = pool[ctx.rng().index(pool.len())];
            return SegmentId::new(pg, pick);
        }
        let best = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .max_by_key(|r| self.scls.get(&SegmentId::new(pg, *r)).copied())
            .unwrap_or(0);
        SegmentId::new(pg, best)
    }
}
