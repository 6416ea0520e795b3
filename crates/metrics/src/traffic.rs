//! Transmission counting by message class.

use std::fmt;

/// Declares a label vocabulary: a fieldless enum whose variants are each
/// listed with the one string they are written as (`Variant = "label"`).
/// `ALL`, `index`, `label` and `from_label` are derived from that one
/// list, so the two directions cannot disagree and a new variant is one
/// line.
#[macro_export]
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// Position of this variant in `ALL` (stable dense array key).
            pub fn index(self) -> usize {
                self as usize
            }

            /// The label this variant is written as in JSONL output and
            /// tables.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Inverse of `label` (journal parsing).
            pub fn from_label(label: &str) -> Option<$name> {
                match label {
                    $($label => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

label_enum! {
    /// The kind of application (or control) message a transmission carried.
    ///
    /// The first ten variants are the paper's message types (Fig. 6(a));
    /// `Fetch`/`FetchReply` are the data transfers of the push/pull baselines;
    /// `RouteControl` covers RREQ/RREP/RERR overhead of the routing substrate.
    pub enum MessageClass {
        /// Periodic invalidation flood from a source host.
        Invalidation = "INVALIDATION",
        /// Source-to-relay data push.
        Update = "UPDATE",
        /// Cache-peer poll.
        Poll = "POLL",
        /// Poll answer: copy is up to date.
        PollAckA = "POLL_ACK_A",
        /// Poll answer: copy was stale, fresh content attached.
        PollAckB = "POLL_ACK_B",
        /// Relay-peer candidacy application.
        Apply = "APPLY",
        /// Candidacy approval.
        ApplyAck = "APPLY_ACK",
        /// Relay-peer resignation.
        Cancel = "CANCEL",
        /// Relay asking the source for missed content.
        GetNew = "GET_NEW",
        /// Source answering `GetNew` with fresh content.
        SendNew = "SEND_NEW",
        /// Baseline cache-miss fetch request.
        Fetch = "FETCH",
        /// Baseline fetch reply carrying content.
        FetchReply = "FETCH_REPLY",
        /// Replica write routed to the item's source host (extension,
        /// future work §6 item 3).
        WriteRequest = "WRITE_REQ",
        /// Source's acknowledgement of an applied replica write.
        WriteAck = "WRITE_ACK",
        /// RREQ/RREP/RERR routing overhead.
        RouteControl = "ROUTE_CTRL",
        /// Rejoin-resync version digest flooded by a recovering node.
        ResyncDigest = "RESYNC_DIGEST",
        /// Unicast reply to a resync digest carrying newer-known versions.
        ResyncAck = "RESYNC_ACK",
        /// Receiver acknowledgement of a sequence-stamped update.
        DeliveryAck = "DELIVERY_ACK",
        /// Relay-lease handover grant to an elected neighbor.
        Handover = "HANDOVER",
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// MAC-level transmission counters: every radio transmission of every hop
/// (including flood rebroadcasts and routing control) counts once — the
/// "number of messages" metric of Fig. 7 and Fig. 9(a).
///
/// # Example
///
/// ```
/// use mp2p_metrics::{MessageClass, TrafficStats};
///
/// let mut t = TrafficStats::default();
/// t.record(MessageClass::Poll, 48);
/// t.record(MessageClass::Poll, 48);
/// t.record(MessageClass::Update, 1_024);
/// assert_eq!(t.transmissions(), 3);
/// assert_eq!(t.by_class(MessageClass::Poll), 2);
/// assert_eq!(t.bytes(), 1_120);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    per_class: [u64; MessageClass::ALL.len()],
    bytes: u64,
}

impl TrafficStats {
    /// Records one transmission of `bytes` bytes carrying `class`.
    pub fn record(&mut self, class: MessageClass, bytes: u32) {
        self.per_class[class.index()] += 1;
        self.bytes += u64::from(bytes);
    }

    /// Total transmissions across all classes.
    pub fn transmissions(&self) -> u64 {
        self.per_class.iter().sum()
    }

    /// Transmissions of one class.
    pub fn by_class(&self, class: MessageClass) -> u64 {
        self.per_class[class.index()]
    }

    /// Total bytes on the air.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Transmissions that carried application payload (everything except
    /// routing control).
    pub fn app_transmissions(&self) -> u64 {
        self.transmissions() - self.by_class(MessageClass::RouteControl)
    }

    /// Adds another instrument's counts into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (a, b) in self.per_class.iter_mut().zip(other.per_class.iter()) {
            *a += b;
        }
        self.bytes += other.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_partition_total() {
        let mut t = TrafficStats::default();
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                t.record(class, 10);
            }
        }
        let sum: u64 = MessageClass::ALL.iter().map(|&c| t.by_class(c)).sum();
        assert_eq!(sum, t.transmissions());
        assert_eq!(t.transmissions(), (1..=19).sum::<u64>());
        assert_eq!(t.bytes(), 10 * t.transmissions());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TrafficStats::default();
        let mut b = TrafficStats::default();
        a.record(MessageClass::Poll, 48);
        b.record(MessageClass::Poll, 48);
        b.record(MessageClass::RouteControl, 32);
        a.merge(&b);
        assert_eq!(a.by_class(MessageClass::Poll), 2);
        assert_eq!(a.transmissions(), 3);
        assert_eq!(a.app_transmissions(), 2);
        assert_eq!(a.bytes(), 128);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = MessageClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MessageClass::ALL.len());
    }

    #[test]
    fn from_label_inverts_label() {
        for class in MessageClass::ALL {
            assert_eq!(MessageClass::from_label(class.label()), Some(class));
        }
        // Near misses (one character short, the other case) must miss.
        for class in MessageClass::ALL {
            let label = class.label();
            for miss in [&label[..label.len() - 1], &label.to_lowercase()] {
                if MessageClass::ALL.iter().all(|c| c.label() != miss) {
                    assert_eq!(MessageClass::from_label(miss), None, "{miss}");
                }
            }
        }
        assert_eq!(MessageClass::from_label("NOPE"), None);
        assert_eq!(MessageClass::from_label(""), None);
    }
}
