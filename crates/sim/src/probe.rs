//! Test-harness actor.
//!
//! A [`Probe`] is a node that records every message it receives and can be
//! told (via [`Relay`] injected with [`crate::Sim::tell`]) to send a
//! payload to another node *from inside the simulation*, so replies route
//! back to it. Integration tests across the workspace use probes to play
//! the role of a database instance against real storage-node actors.

use crate::metrics::Name;
use crate::msg::{Msg, Payload};
use crate::name;
use crate::sim::{Actor, ActorEvent, Ctx, NodeId};

/// Instruction to a probe: forward `msg` to `dst`.
#[derive(Debug)]
pub struct Relay {
    pub dst: NodeId,
    pub msg: Msg,
}

impl Relay {
    pub fn new(dst: NodeId, payload: impl Payload) -> Relay {
        Relay {
            dst,
            msg: Msg::new(payload),
        }
    }
}

impl Payload for Relay {
    fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
    fn class(&self) -> &'static Name {
        name!("relay")
    }
}

/// Records everything it hears.
#[derive(Default)]
pub struct Probe {
    /// Received messages, in arrival order, excluding relays.
    pub inbox: Vec<(NodeId, Msg)>,
}

impl Probe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages of type `T` received so far, with senders.
    pub fn received<T: Payload>(&self) -> Vec<(NodeId, &T)> {
        self.inbox
            .iter()
            .filter_map(|(from, m)| m.downcast_ref::<T>().map(|t| (*from, t)))
            .collect()
    }

    /// Count of messages of type `T`.
    pub fn count<T: Payload>(&self) -> usize {
        self.received::<T>().len()
    }

    /// Messages of type `T` at or after inbox position `cursor`, plus the
    /// new cursor (the current inbox length). Lets harness tick loops poll
    /// incrementally instead of re-scanning the whole cumulative inbox —
    /// the difference between O(n) and O(n²) over a long run.
    pub fn received_since<T: Payload>(&self, cursor: usize) -> (Vec<(NodeId, &T)>, usize) {
        let start = cursor.min(self.inbox.len());
        let out = self.inbox[start..]
            .iter()
            .filter_map(|(from, m)| m.downcast_ref::<T>().map(|t| (*from, t)))
            .collect();
        (out, self.inbox.len())
    }
}

impl Actor for Probe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        if let ActorEvent::Message { from, msg } = ev {
            match msg.downcast::<Relay>() {
                Ok(relay) => ctx.send_msg(relay.dst, relay.msg),
                Err(msg) => self.inbox.push((from, msg)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NodeOpts, Sim, Zone};
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn probe_relays_and_records() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Zone(0), Box::new(Probe::new()), NodeOpts::default());
        let b = sim.add_node("b", Zone(0), Box::new(Probe::new()), NodeOpts::default());
        sim.tell(a, Relay::new(b, Ping(7)));
        sim.run_for(SimDuration::from_millis(5));
        let probe_b = sim.actor::<Probe>(b);
        assert_eq!(probe_b.count::<Ping>(), 1);
        assert_eq!(probe_b.received::<Ping>()[0], (a, &Ping(7)));
        assert_eq!(sim.actor::<Probe>(a).inbox.len(), 0);
    }
}
