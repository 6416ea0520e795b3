//! The protocol message set (Fig. 6(a)) plus the baselines' fetch pair.

use mp2p_cache::Version;
use mp2p_metrics::MessageClass;
use mp2p_sim::ItemId;

use crate::recovery::VersionDigest;

/// Fixed per-message header overhead in bytes (ids, versions, MAC/IP
/// framing).
pub(crate) const HEADER_BYTES: u32 = 40;

/// An application-layer message of the consistency protocols.
///
/// The variants mirror Fig. 6(a) of the paper; `Fetch`/`FetchReply` are
/// the cache-miss/refresh transfer used by the push and pull baselines.
/// Messages carrying item content (`Update`, `SendNew`, `PollAckB`,
/// `FetchReply`) have sizes that include `content_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMsg {
    /// `INVALIDATION(ID_d, OP_d, VER_d)` — periodic source flood.
    Invalidation {
        /// The advertised item.
        item: ItemId,
        /// Current master version.
        version: Version,
        /// Recovery-layer sequence number for receiver-side duplicate
        /// suppression. Rides in the fixed 40-byte header (it replaces
        /// framing slack), so it never changes [`ProtoMsg::size_bytes`];
        /// `None` when acked delivery is off.
        seq: Option<u64>,
    },
    /// `UPDATE(ID_d, OP_d, RP_d, CT_d, VER_d)` — source pushes fresh
    /// content to a relay peer.
    Update {
        /// The updated item.
        item: ItemId,
        /// New master version.
        version: Version,
        /// Content payload size.
        content_bytes: u32,
        /// Recovery-layer sequence number; the receiver ACKs it and the
        /// sender retransmits until acknowledged (see
        /// [`ProtoMsg::Invalidation::seq`] for wire-size rules).
        seq: Option<u64>,
    },
    /// `GET_NEW(ID_d, OP_d, RP_d)` — relay asks the source for content it
    /// missed while disconnected.
    GetNew {
        /// The stale item.
        item: ItemId,
    },
    /// `SEND_NEW(ID_d, RP_d, CT_d, VER_d)` — source answers `GET_NEW`.
    SendNew {
        /// The item.
        item: ItemId,
        /// Master version shipped.
        version: Version,
        /// Content payload size.
        content_bytes: u32,
    },
    /// `APPLY(ID_d, OP_d, RP_d)` — candidate applies for relay promotion.
    Apply {
        /// The item the candidate wants to relay.
        item: ItemId,
    },
    /// `APPLY_ACK(ID_d, OP_d, RP_d)` — source approves the candidacy.
    ApplyAck {
        /// The item.
        item: ItemId,
        /// Master version at approval time (lets a stale new relay
        /// resynchronise immediately).
        version: Version,
    },
    /// `CANCEL(ID_d, OP_d, RP_d)` — relay resigns.
    Cancel {
        /// The item.
        item: ItemId,
    },
    /// `POLL(ID_d, CP_d, VER_d)` — cache peer checks its copy.
    Poll {
        /// The polled item.
        item: ItemId,
        /// The poller's cached version.
        version: Version,
        /// The query span this poll serves. Diagnostic metadata only: it
        /// rides outside [`ProtoMsg::size_bytes`] and never influences
        /// protocol decisions; responders echo it into their acks so the
        /// flight recorder can attribute frames to spans.
        span: Option<u64>,
    },
    /// `POLL_ACK_A(ID_d, CP_d, VER_d)` — the poller's copy is up to date.
    PollAckA {
        /// The item.
        item: ItemId,
        /// The confirmed version.
        version: Version,
        /// Echo of the poll's span tag (see [`ProtoMsg::Poll::span`]).
        span: Option<u64>,
    },
    /// `POLL_ACK_B(ID_d, CP_d, VER_d, CT_d)` — the poller's copy was
    /// stale; fresh content attached.
    PollAckB {
        /// The item.
        item: ItemId,
        /// The fresh version.
        version: Version,
        /// Content payload size.
        content_bytes: u32,
        /// Echo of the poll's span tag (see [`ProtoMsg::Poll::span`]).
        span: Option<u64>,
    },
    /// Baseline cache-miss/refresh request to the source host.
    Fetch {
        /// The wanted item.
        item: ItemId,
        /// The query span this fetch serves (see [`ProtoMsg::Poll::span`]).
        span: Option<u64>,
    },
    /// Baseline fetch answer with content.
    FetchReply {
        /// The item.
        item: ItemId,
        /// Master version shipped.
        version: Version,
        /// Content payload size.
        content_bytes: u32,
        /// Echo of the fetch's span tag (see [`ProtoMsg::Poll::span`]).
        span: Option<u64>,
    },
    /// **Extension (future work §6 item 3):** a replica write routed to
    /// the item's source host for serialisation (primary-based
    /// replication). Handled by the simulation driver, not the
    /// consistency protocols — the applied write propagates through
    /// whatever strategy is running.
    WriteRequest {
        /// The written item.
        item: ItemId,
        /// New content payload size.
        content_bytes: u32,
    },
    /// The source's acknowledgement of an applied replica write, carrying
    /// the version the write was serialised as.
    WriteAck {
        /// The written item.
        item: ItemId,
        /// Version assigned by the source.
        version: Version,
    },
    /// **Recovery:** a rejoining node floods its `item → version`
    /// digest so neighbors can point out stale copies before the node
    /// serves them.
    ResyncDigest {
        /// The advertised cache snapshot chunk.
        digest: VersionDigest,
    },
    /// **Recovery:** unicast reply to a [`ProtoMsg::ResyncDigest`],
    /// carrying only the entries the replier knows newer versions for.
    ResyncAck {
        /// The newer-known versions.
        digest: VersionDigest,
    },
    /// **Recovery:** receiver acknowledgement of a sequence-stamped
    /// [`ProtoMsg::Update`]; settles the sender's retransmit entry.
    DeliveryAck {
        /// The acknowledged item.
        item: ItemId,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// **Recovery:** an orphan-expiring relay grants its relay duty for
    /// `item` to an elected cached neighbor.
    Handover {
        /// The item whose relay duty is handed over.
        item: ItemId,
        /// The last version the expiring relay confirmed.
        version: Version,
    },
}

impl ProtoMsg {
    /// The item this message concerns.
    pub fn item(&self) -> ItemId {
        match *self {
            ProtoMsg::Invalidation { item, .. }
            | ProtoMsg::Update { item, .. }
            | ProtoMsg::GetNew { item }
            | ProtoMsg::SendNew { item, .. }
            | ProtoMsg::Apply { item }
            | ProtoMsg::ApplyAck { item, .. }
            | ProtoMsg::Cancel { item }
            | ProtoMsg::Poll { item, .. }
            | ProtoMsg::PollAckA { item, .. }
            | ProtoMsg::PollAckB { item, .. }
            | ProtoMsg::Fetch { item, .. }
            | ProtoMsg::FetchReply { item, .. }
            | ProtoMsg::WriteRequest { item, .. }
            | ProtoMsg::WriteAck { item, .. }
            | ProtoMsg::DeliveryAck { item, .. }
            | ProtoMsg::Handover { item, .. } => item,
            ProtoMsg::ResyncDigest { digest } | ProtoMsg::ResyncAck { digest } => {
                digest.first_item()
            }
        }
    }

    /// On-air size in bytes (header plus any attached content).
    pub fn size_bytes(&self) -> u32 {
        let content = match *self {
            ProtoMsg::Update { content_bytes, .. }
            | ProtoMsg::SendNew { content_bytes, .. }
            | ProtoMsg::PollAckB { content_bytes, .. }
            | ProtoMsg::FetchReply { content_bytes, .. }
            | ProtoMsg::WriteRequest { content_bytes, .. } => content_bytes,
            ProtoMsg::ResyncDigest { digest } | ProtoMsg::ResyncAck { digest } => {
                digest.wire_bytes()
            }
            _ => 0,
        };
        HEADER_BYTES + content
    }

    /// The query span this message serves, if it carries one (the
    /// poll/fetch request-reply traffic). Diagnostic metadata only —
    /// see [`ProtoMsg::Poll::span`].
    pub fn span(&self) -> Option<u64> {
        match *self {
            ProtoMsg::Poll { span, .. }
            | ProtoMsg::PollAckA { span, .. }
            | ProtoMsg::PollAckB { span, .. }
            | ProtoMsg::Fetch { span, .. }
            | ProtoMsg::FetchReply { span, .. } => span,
            _ => None,
        }
    }

    /// The item and version an update-propagation message carries, if
    /// the message is one. These three classes are the only ways a
    /// strategy moves version knowledge outward from a source or relay;
    /// everything else (polls, fetches, acks) is demand-driven and not
    /// "propagation" for blame or provenance purposes.
    pub(crate) fn propagates(&self) -> Option<(ItemId, u64)> {
        match *self {
            ProtoMsg::Invalidation { item, version, .. }
            | ProtoMsg::Update { item, version, .. }
            | ProtoMsg::SendNew { item, version, .. } => Some((item, version.get())),
            _ => None,
        }
    }

    /// The traffic-accounting class of this message.
    pub fn class(&self) -> MessageClass {
        match self {
            ProtoMsg::Invalidation { .. } => MessageClass::Invalidation,
            ProtoMsg::Update { .. } => MessageClass::Update,
            ProtoMsg::GetNew { .. } => MessageClass::GetNew,
            ProtoMsg::SendNew { .. } => MessageClass::SendNew,
            ProtoMsg::Apply { .. } => MessageClass::Apply,
            ProtoMsg::ApplyAck { .. } => MessageClass::ApplyAck,
            ProtoMsg::Cancel { .. } => MessageClass::Cancel,
            ProtoMsg::Poll { .. } => MessageClass::Poll,
            ProtoMsg::PollAckA { .. } => MessageClass::PollAckA,
            ProtoMsg::PollAckB { .. } => MessageClass::PollAckB,
            ProtoMsg::Fetch { .. } => MessageClass::Fetch,
            ProtoMsg::FetchReply { .. } => MessageClass::FetchReply,
            ProtoMsg::WriteRequest { .. } => MessageClass::WriteRequest,
            ProtoMsg::WriteAck { .. } => MessageClass::WriteAck,
            ProtoMsg::ResyncDigest { .. } => MessageClass::ResyncDigest,
            ProtoMsg::ResyncAck { .. } => MessageClass::ResyncAck,
            ProtoMsg::DeliveryAck { .. } => MessageClass::DeliveryAck,
            ProtoMsg::Handover { .. } => MessageClass::Handover,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_messages_are_bigger() {
        let small = ProtoMsg::Poll {
            item: ItemId::new(0),
            version: Version::new(1),
            span: None,
        };
        let big = ProtoMsg::PollAckB {
            item: ItemId::new(0),
            version: Version::new(2),
            content_bytes: 1_024,
            span: None,
        };
        assert_eq!(small.size_bytes(), HEADER_BYTES);
        assert_eq!(big.size_bytes(), HEADER_BYTES + 1_024);
    }

    #[test]
    fn span_tag_never_changes_the_wire_size() {
        // The span is out-of-band diagnostic metadata; a tagged poll
        // must cost exactly the same bytes as an untagged one.
        let untagged = ProtoMsg::Poll {
            item: ItemId::new(0),
            version: Version::new(1),
            span: None,
        };
        let tagged = ProtoMsg::Poll {
            item: ItemId::new(0),
            version: Version::new(1),
            span: Some(42),
        };
        assert_eq!(untagged.size_bytes(), tagged.size_bytes());
        assert_eq!(tagged.span(), Some(42));
        assert_eq!(
            ProtoMsg::Invalidation {
                item: ItemId::new(0),
                version: Version::new(1),
                seq: None,
            }
            .span(),
            None
        );
    }

    #[test]
    fn seq_stamp_never_changes_the_wire_size() {
        // The recovery sequence number rides in the fixed header; a
        // stamped frame must cost exactly the same bytes as a bare one.
        let bare = ProtoMsg::Update {
            item: ItemId::new(0),
            version: Version::new(2),
            content_bytes: 1_024,
            seq: None,
        };
        let stamped = ProtoMsg::Update {
            item: ItemId::new(0),
            version: Version::new(2),
            content_bytes: 1_024,
            seq: Some(7),
        };
        assert_eq!(bare.size_bytes(), stamped.size_bytes());
        let inv = ProtoMsg::Invalidation {
            item: ItemId::new(0),
            version: Version::new(2),
            seq: Some(7),
        };
        assert_eq!(inv.size_bytes(), HEADER_BYTES);
    }

    #[test]
    fn recovery_messages_have_classes_items_and_sizes() {
        use crate::recovery::VersionDigest;
        let digest = VersionDigest::new(&[
            (ItemId::new(5), Version::new(3)),
            (ItemId::new(9), Version::new(1)),
        ]);
        let msgs = [
            ProtoMsg::ResyncDigest { digest },
            ProtoMsg::ResyncAck { digest },
            ProtoMsg::DeliveryAck {
                item: ItemId::new(5),
                seq: 12,
            },
            ProtoMsg::Handover {
                item: ItemId::new(5),
                version: Version::new(3),
            },
        ];
        let mut classes: Vec<_> = msgs.iter().map(|m| m.class()).collect();
        classes.dedup();
        assert_eq!(classes.len(), msgs.len());
        for m in &msgs {
            assert_eq!(m.item(), ItemId::new(5), "first digest entry stands in");
            assert_eq!(m.span(), None);
        }
        assert_eq!(
            msgs[0].size_bytes(),
            HEADER_BYTES + digest.wire_bytes(),
            "digest frames pay per entry"
        );
        assert_eq!(msgs[2].size_bytes(), HEADER_BYTES);
    }

    #[test]
    fn class_and_item_roundtrip() {
        let msgs = [
            ProtoMsg::Invalidation {
                item: ItemId::new(3),
                version: Version::new(1),
                seq: None,
            },
            ProtoMsg::GetNew {
                item: ItemId::new(3),
            },
            ProtoMsg::Apply {
                item: ItemId::new(3),
            },
            ProtoMsg::ApplyAck {
                item: ItemId::new(3),
                version: Version::new(1),
            },
            ProtoMsg::Cancel {
                item: ItemId::new(3),
            },
            ProtoMsg::Fetch {
                item: ItemId::new(3),
                span: None,
            },
        ];
        let mut classes: Vec<_> = msgs.iter().map(|m| m.class()).collect();
        classes.dedup();
        assert_eq!(
            classes.len(),
            msgs.len(),
            "each message maps to its own class"
        );
        for m in msgs {
            assert_eq!(m.item(), ItemId::new(3));
        }
    }
}
