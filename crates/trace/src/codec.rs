//! How one journal field is written and read, decided by its type.
//!
//! The record table of [`crate::event`] gives each field a key and a
//! type; this module is the other half of the wire format. A [`Scalar`]
//! is a value on its own (a number, a boolean, a label, the `ages`
//! array); a [`Wire`] is a field under its key. Every scalar is a
//! required field. The three optional types spell absence in the two
//! ways the format knows: `Option<NodeId>` is always written, `null` when
//! absent; `Option<u64>` and `Option<ItemId>` are omitted when absent.
//! Each type reads itself back (`parse`/`take_next`, over a cursor) in
//! the "written" column's spelling and no other, so a decoded line
//! encodes to itself. A value that is present but mistyped is a bad
//! line, never a silent `None`; so is a number wider than its type
//! (`"hops":300` is not 44 hops) and an unknown label.
//!
//! | type | written |
//! |---|---|
//! | `u64`, `SimTime` (ms) | decimal digits, no leading zero, up to `u64::MAX` |
//! | `u8`, `u32`, `NodeId`, `ItemId` | the same, up to the type's maximum (ids are `u32`) |
//! | `bool` | `true` / `false` |
//! | a label enum | its label, quoted |
//! | `Option<NodeId>` | always; `null` when absent |
//! | `Option<u64>`, `Option<ItemId>` | omitted when absent |
//! | `[u32; AGE_BUCKETS]` | `[a,b,…]`, exactly that many |

use mp2p_metrics::{MessageClass, AGE_BUCKETS};
use mp2p_sim::{ItemId, NodeId, SimTime};

use crate::event::{
    BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy, SpanPhase,
};
use crate::json::{self, Cursor};

/// A record field: appended as `,"key":value`, met again next under its
/// `tag`, the literal `,"key":`.
pub(crate) trait Wire: Sized {
    /// Appends the field to a record under construction.
    fn put(self, key: &str, out: &mut Vec<u8>);
    /// Reads the field where `put` would have written it; `None` (the
    /// cursor is then anywhere) makes the line a bad line.
    fn take_next(cur: &mut Cursor<'_>, tag: &str) -> Option<Self>;
}

/// A value that is always present, written without its key.
pub(crate) trait Scalar: Sized {
    /// Appends the value. No `core::fmt` on this path: it runs once per
    /// field of every journal record.
    fn write(self, out: &mut Vec<u8>);
    /// Reads the value back in `write`'s own spelling, and no other.
    fn parse(cur: &mut Cursor<'_>) -> Option<Self>;
}

/// Appends `,"key":`. This and every `put`, `take_next` and `parse` are
/// `#[inline]` so that the key, a literal of the row, reaches
/// `extend_from_slice` and `eat` as a constant: without the hints
/// encoding a record costs a third more (46 vs 35 ns) and reading one
/// back 61 vs 57 ns (each run's best of 15 passes over a 712 k-record
/// journal with every layer on, median of 5 runs, 2-core x86-64).
#[inline]
fn push_key(out: &mut Vec<u8>, key: &str) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
}

impl<T: Scalar> Wire for T {
    #[inline]
    fn put(self, key: &str, out: &mut Vec<u8>) {
        push_key(out, key);
        self.write(out);
    }

    #[inline]
    fn take_next(cur: &mut Cursor<'_>, tag: &str) -> Option<Self> {
        cur.eat(tag)?;
        T::parse(cur)
    }
}

/// A MAC receiver or final destination: `null` for a broadcast or flood.
impl Wire for Option<NodeId> {
    #[inline]
    fn put(self, key: &str, out: &mut Vec<u8>) {
        match self {
            Some(node) => node.put(key, out),
            None => {
                push_key(out, key);
                out.extend_from_slice(b"null");
            }
        }
    }

    #[inline]
    fn take_next(cur: &mut Cursor<'_>, tag: &str) -> Option<Self> {
        cur.eat(tag)?;
        match cur.eat("null") {
            Some(()) => Some(None),
            None => NodeId::parse(cur).map(Some),
        }
    }
}

/// A span tag, or the item a frame propagates: omitted when absent.
macro_rules! omitted_when_absent {
    ($($ty:ty),+) => {$(
        impl Wire for Option<$ty> {
            #[inline]
            fn put(self, key: &str, out: &mut Vec<u8>) {
                if let Some(value) = self {
                    value.put(key, out);
                }
            }

            #[inline]
            fn take_next(cur: &mut Cursor<'_>, tag: &str) -> Option<Self> {
                match cur.eat(tag) {
                    Some(()) => <$ty>::parse(cur).map(Some),
                    None => Some(None),
                }
            }
        }
    )+};
}
omitted_when_absent!(u64, ItemId);

impl Scalar for u64 {
    fn write(self, out: &mut Vec<u8>) {
        json::push_u64(out, self);
    }

    #[inline]
    fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.digits()
    }
}

/// Narrower integers are range-checked, never wrapped: `"hops":300` is a
/// bad line, not 44 hops.
macro_rules! narrow_scalars {
    ($($ty:ty),+) => {$(
        impl Scalar for $ty {
            fn write(self, out: &mut Vec<u8>) {
                json::push_u64(out, u64::from(self));
            }

            #[inline]
            fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
                <$ty>::try_from(cur.digits()?).ok()
            }
        }
    )+};
}
narrow_scalars!(u8, u32);

macro_rules! id_scalars {
    ($($ty:ty),+) => {$(
        impl Scalar for $ty {
            fn write(self, out: &mut Vec<u8>) {
                json::push_u64(out, self.index() as u64);
            }

            #[inline]
            fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
                u32::parse(cur).map(<$ty>::new)
            }
        }
    )+};
}
id_scalars!(NodeId, ItemId);

impl Scalar for bool {
    fn write(self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self { b"true" } else { b"false" });
    }

    #[inline]
    fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
        match cur.eat("true") {
            Some(()) => Some(true),
            None => cur.eat("false").map(|()| false),
        }
    }
}

/// An instant, in whole milliseconds.
impl Scalar for SimTime {
    fn write(self, out: &mut Vec<u8>) {
        json::push_u64(out, self.as_millis());
    }

    #[inline]
    fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.digits().map(SimTime::from_millis)
    }
}

/// Width of the block a quoted label is laid out in: the longest label
/// is 19 bytes, and one past 30 fails to compile.
pub(crate) const LABEL_BLOCK: usize = 32;

/// A label vocabulary is written as its label, quoted, and read back
/// through `from_label`; an unknown label is a bad line. No label holds
/// a byte JSON escapes (`json`'s tests check each), so none is scanned.
/// Each label is laid out at compile time, quoted, in a block of quotes:
/// a write copies the whole block and cuts it back.
macro_rules! label_scalars {
    ($($ty:ty),+) => {$(
        impl Scalar for $ty {
            #[inline]
            fn write(self, out: &mut Vec<u8>) {
                const BLOCKS: [[u8; LABEL_BLOCK]; <$ty>::ALL.len()] = {
                    let mut blocks = [[b'"'; LABEL_BLOCK]; <$ty>::ALL.len()];
                    let mut i = 0;
                    while i < blocks.len() {
                        let label = <$ty>::ALL[i].label().as_bytes();
                        assert!(label.len() + 2 <= LABEL_BLOCK, "a label outgrew its block");
                        let (_, inside) = blocks[i].split_at_mut(1);
                        inside.split_at_mut(label.len()).0.copy_from_slice(label);
                        i += 1;
                    }
                    blocks
                };
                let end = out.len() + self.label().len() + 2;
                out.extend_from_slice(&BLOCKS[self.index()]);
                out.truncate(end);
            }

            #[inline]
            fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
                <$ty>::from_label(cur.label()?)
            }
        }
    )+};
}
label_scalars!(
    EventKind,
    MessageClass,
    ServedBy,
    RelayTransitionKind,
    BlameCause,
    FrameFateKind,
    LevelTag,
    SpanPhase
);

/// The stale-age histogram: an array of exactly [`AGE_BUCKETS`] counts.
impl Scalar for [u32; AGE_BUCKETS] {
    fn write(self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, count) in self.into_iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            count.write(out);
        }
        out.push(b']');
    }

    #[inline]
    fn parse(cur: &mut Cursor<'_>) -> Option<Self> {
        let mut ages = [0; AGE_BUCKETS];
        let mut open = "[";
        for slot in &mut ages {
            cur.eat(open)?;
            *slot = u32::parse(cur)?;
            open = ",";
        }
        cur.eat("]")?;
        Some(ages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each variant's written form, against its quoted `label()`.
    fn check<T: Scalar + Copy>(all: &[T], label: fn(T) -> &'static str) {
        for &value in all {
            let mut out = b",\"k\":".to_vec();
            value.write(&mut out);
            assert_eq!(out, format!(",\"k\":\"{}\"", label(value)).as_bytes());
        }
    }

    #[test]
    fn every_label_is_written_as_itself_quoted() {
        check(&EventKind::ALL, EventKind::label);
        check(&MessageClass::ALL, MessageClass::label);
        check(&ServedBy::ALL, ServedBy::label);
        check(&RelayTransitionKind::ALL, RelayTransitionKind::label);
        check(&BlameCause::ALL, BlameCause::label);
        check(&FrameFateKind::ALL, FrameFateKind::label);
        check(&LevelTag::ALL, LevelTag::label);
        check(&SpanPhase::ALL, SpanPhase::label);
    }
}
