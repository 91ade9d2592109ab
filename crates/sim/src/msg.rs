//! Dynamically-typed simulation messages.
//!
//! The simulator kernel is protocol-agnostic: the storage crate defines the
//! storage-node wire protocol, the engine crate defines the client and
//! replication protocols, and both travel through the same simulated
//! network. A [`Msg`] is a boxed [`Payload`], and receivers downcast to the
//! protocol enum they expect.
//!
//! Every payload reports a `wire_size` so the network layer can account for
//! bytes — the paper's Table 1 is fundamentally a *byte/packet counting*
//! experiment, so sizes are first-class here.

use std::any::Any;
use std::fmt;

use crate::metrics::Name;
use crate::name;

/// A message payload that can travel through the simulated network.
pub trait Payload: Any + fmt::Debug + Send {
    /// Approximate serialized size in bytes, used for bandwidth accounting.
    fn wire_size(&self) -> usize;

    /// A short label for per-class network statistics (e.g. `"log_write"`).
    fn class(&self) -> &'static Name {
        name!("msg")
    }

    /// Clone hook used by the fault-injection layer to duplicate packets.
    /// `Clone` payloads should return `Some(Msg::new(self.clone()))`;
    /// the default (`None`) exempts the payload from duplication (e.g.
    /// harness-internal relays that carry an unclonable [`Msg`]).
    fn clone_boxed(&self) -> Option<Msg> {
        None
    }
}

/// A type-erased message.
pub struct Msg {
    inner: Box<dyn Any + Send>,
    size: usize,
    class: &'static Name,
    debug: fn(&(dyn Any + Send), &mut fmt::Formatter<'_>) -> fmt::Result,
    clone: fn(&(dyn Any + Send)) -> Option<Msg>,
}

fn debug_as<T: Payload>(any: &(dyn Any + Send), f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match any.downcast_ref::<T>() {
        Some(t) => fmt::Debug::fmt(t, f),
        None => write!(f, "<payload>"),
    }
}

fn clone_as<T: Payload>(any: &(dyn Any + Send)) -> Option<Msg> {
    any.downcast_ref::<T>().and_then(|t| t.clone_boxed())
}

impl Msg {
    /// Wrap a payload.
    pub fn new<T: Payload>(payload: T) -> Msg {
        let size = payload.wire_size();
        let class = payload.class();
        Msg {
            inner: Box::new(payload),
            size,
            class,
            debug: debug_as::<T>,
            clone: clone_as::<T>,
        }
    }

    /// Duplicate the message if its payload supports it (see
    /// [`Payload::clone_boxed`]). Used by packet-duplication faults.
    pub fn try_clone(&self) -> Option<Msg> {
        (self.clone)(self.inner.as_ref())
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        self.size
    }

    /// The payload's statistics class.
    pub fn class(&self) -> &'static Name {
        self.class
    }

    /// Is the payload of type `T`?
    pub fn is<T: Payload>(&self) -> bool {
        self.inner.is::<T>()
    }

    /// Consume and downcast; returns `Err(self)` if the type is wrong.
    pub fn downcast<T: Payload>(self) -> Result<T, Msg> {
        if self.inner.is::<T>() {
            let b: Box<T> = self.inner.downcast().expect("checked is::<T>()");
            Ok(*b)
        } else {
            Err(self)
        }
    }

    /// Borrow and downcast.
    pub fn downcast_ref<T: Payload>(&self) -> Option<&T> {
        self.inner.downcast_ref::<T>()
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.debug)(self.inner.as_ref(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            8
        }
        fn class(&self) -> &'static Name {
            name!("ping")
        }
    }

    #[derive(Debug)]
    struct Pong;
    impl Payload for Pong {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn roundtrip_downcast() {
        let m = Msg::new(Ping(7));
        assert_eq!(m.wire_size(), 8);
        assert_eq!(m.class().name(), "ping");
        assert!(m.is::<Ping>());
        assert!(!m.is::<Pong>());
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(7));
    }

    #[test]
    fn wrong_downcast_returns_msg() {
        let m = Msg::new(Ping(9));
        let m = m.downcast::<Pong>().unwrap_err();
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(9));
    }

    #[test]
    fn downcast_ref_and_debug() {
        let m = Msg::new(Ping(3));
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(3)));
        assert_eq!(format!("{m:?}"), "Ping(3)");
        assert_eq!(Msg::new(Pong).class().name(), "msg");
    }
}
