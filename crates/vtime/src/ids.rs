//! Identity newtypes for the entities of a deployed TART application.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($repr);

        impl $name {
            /// Creates an id from its raw numeric value.
            pub const fn new(raw: $repr) -> Self {
                $name(raw)
            }

            /// Returns the raw numeric value.
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for $repr {
            fn from(id: $name) -> $repr {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Identifies a wire: a directed, reliable, FIFO stream of ticks from one
    /// sender port to one receiver port.
    ///
    /// Wire ids double as the deterministic tie-breaker when two messages
    /// carry the same virtual time (§II.E, footnote 2), so they must be
    /// assigned identically on every run — in TART they come from the static
    /// wiring of the application, which is known prior to deployment.
    WireId, "w", u32
);

id_newtype!(
    /// Identifies a component within an application.
    ComponentId, "c", u32
);

id_newtype!(
    /// Identifies an execution engine (a machine or container hosting
    /// components, with an associated passive backup).
    EngineId, "e", u32
);

id_newtype!(
    /// Identifies a port on a component. Ports are the named endpoints wires
    /// attach to; input ports receive messages, output ports send them.
    PortId, "p", u16
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_raw_values() {
        assert!(WireId::new(1) < WireId::new(2));
        assert!(ComponentId::new(10) > ComponentId::new(9));
    }

    #[test]
    fn debug_display_prefixes() {
        assert_eq!(format!("{:?}", WireId::new(3)), "w3");
        assert_eq!(format!("{}", ComponentId::new(4)), "c4");
        assert_eq!(format!("{}", EngineId::new(5)), "e5");
        assert_eq!(format!("{}", PortId::new(6)), "p6");
    }

    #[test]
    fn raw_round_trip() {
        let w = WireId::from(7u32);
        assert_eq!(u32::from(w), 7);
        assert_eq!(w.raw(), 7);
        let p = PortId::from(2u16);
        assert_eq!(u16::from(p), 2);
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(WireId::new(1), "a");
        m.insert(WireId::new(2), "b");
        assert_eq!(m[&WireId::new(2)], "b");
    }
}
