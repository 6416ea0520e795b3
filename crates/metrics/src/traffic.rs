//! Transmission counting by message class, and the label vocabularies
//! the protocols, the instruments and the journal share.

/// Declares a label vocabulary: a fieldless enum whose variants are each
/// listed with the one string they are written as (`Variant = "label"`).
/// `ALL`, `index`, `label`, `from_label` and `Display` (which writes the
/// label) are derived from that one list, so the two directions cannot
/// disagree and a new variant is one line.
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
            /// tables. A `const fn`, so the journal writer can lay every
            /// label out at compile time.
            pub const fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Inverse of `label` (journal parsing): the variant whose
            /// label is exactly these bytes.
            pub fn from_label(label: &[u8]) -> Option<$name> {
                match label {
                    $(label if label == $label.as_bytes() => Some($name::$variant),)+
                    _ => None,
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.label())
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

label_enum! {
    /// Who answered a query (the paper's three answer paths: the item's
    /// source host, a relay peer holding a pushed copy, or the querying
    /// peer's own cached copy).
    pub enum ServedBy {
        /// Answered by the item's source host (master copy).
        Source = "source",
        /// Answered by a relay peer on the item's relay table.
        Relay = "relay",
        /// Answered from the local cache without contacting anyone.
        Cache = "cache",
    }
}

label_enum! {
    /// A relay-peer state-machine transition (Fig. 5): candidacy
    /// application, promotion, demotion, and the GET_NEW/SEND_NEW resync
    /// exchange a stale relay runs against the source.
    pub enum RelayTransitionKind {
        /// A candidate sent APPLY to the source host.
        ApplySent = "apply_sent",
        /// The peer became a relay (APPLY_ACK received, or an UPDATE push
        /// implicitly confirmed candidacy).
        Promoted = "promoted",
        /// The peer resigned relay duty (CANCEL sent or demotion swept).
        Demoted = "demoted",
        /// A stale relay asked the source for missed content (GET_NEW).
        ResyncStarted = "resync_started",
        /// The relay's copy was refreshed (SEND_NEW or UPDATE arrived).
        ResyncCompleted = "resync_completed",
    }
}

label_enum! {
    /// The consistency guarantee a query requests (Section 3,
    /// Eq. 3.2.1–3.2.3), weakest first; the label is the paper's figure
    /// legend and the journal's `"level"` field. The protocol crate
    /// calls this type `ConsistencyLevel`.
    #[derive(PartialOrd, Ord)]
    pub enum LevelTag {
        /// Weak consistency: any previously correct value may be returned.
        Weak = "WC",
        /// Δ-consistency: the answer is at most Δ behind the master copy
        /// ("in RPCC, TTP is the Δ value", Section 4.4).
        Delta = "DC",
        /// Strong consistency: the answer equals the master copy at serve
        /// time.
        Strong = "SC",
    }
}

label_enum! {
    /// The causal phase a query entered while being resolved. Together with
    /// the journal's `query_issued` / `query_served` records these phase
    /// markers reconstruct the span tree of each query: issue → (phases) →
    /// answer, with per-phase sim-time durations.
    ///
    /// A query with *no* phase events was a local hit: it was answered in the
    /// same instant it was issued, from this node's own copy.
    pub enum SpanPhase {
        /// A POLL was unicast to the last known relay peer (RPCC attempt 1).
        PollUnicast = "poll_unicast",
        /// A POLL went out as a TTL-scoped flood (expanding ring or baseline
        /// broadcast).
        PollFlood = "poll_flood",
        /// A content FETCH was sent to the item's source host (cache miss or
        /// push-baseline refresh).
        Fetch = "fetch",
        /// The push-baseline query parked, waiting for the next invalidation
        /// report.
        PushWait = "push_wait",
        /// Routed retries were exhausted; one max-TTL flood toward the source
        /// went out (hardened degradation path).
        FallbackFlood = "fallback_flood",
        /// All attempts exhausted; the query lingers for a late answer before
        /// failing.
        Grace = "grace",
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
    fn labels_are_unique() {
        let mut labels: Vec<_> = MessageClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MessageClass::ALL.len());
    }

    #[test]
    fn from_label_inverts_label() {
        for class in MessageClass::ALL {
            assert_eq!(
                MessageClass::from_label(class.label().as_bytes()),
                Some(class)
            );
        }
        // Near misses (one byte short, the other case) must miss.
        for class in MessageClass::ALL {
            let label = class.label();
            for miss in [&label[..label.len() - 1], &label.to_lowercase()] {
                if MessageClass::ALL.iter().all(|c| c.label() != miss) {
                    assert_eq!(MessageClass::from_label(miss.as_bytes()), None, "{miss}");
                }
            }
        }
        assert_eq!(MessageClass::from_label(b"NOPE"), None);
        assert_eq!(MessageClass::from_label(b""), None);
    }
}
