//! The simulator's one hasher: unseeded, multiplicative, not SipHash.
//!
//! Every `HashMap`/`HashSet` in the simulator crates is keyed by a
//! simulator-internal identifier ([`NodeId`](crate::NodeId),
//! [`ItemId`](crate::ItemId), query ids, flood ids). Nothing from outside
//! the program chooses a key, so std's default randomly keyed SipHash-1-3
//! buys no HashDoS protection worth having and costs four to six slow
//! lookups per received frame. [`FastMap`] and [`FastSet`] swap it for
//! an Fx-style word hasher: `h = (h.rotl(5) ^ word) * K`.
//!
//! Dense `Vec`s indexed by item id are not the alternative they look like
//! (m = n): per-node per-item state is n·m, so five such tables at
//! n = 2 000 are ≥ 20 M slots for maps that hold a few dozen live entries.
//!
//! One id-keyed table is not a `FastMap`: `mp2p-net`'s route table keeps
//! each key in its slot, placed by the top bits of a [`FastHasher`] hash.
//!
//! The hasher is unseeded, so a map's iteration order is a pure function
//! of its insert/remove history. That is a convenience, not a licence:
//! code that lets iteration order reach an output must still sort, as it
//! had to when the order changed from process to process.
//!
//! # Example
//!
//! ```
//! use mp2p_sim::{FastMap, NodeId};
//!
//! let mut hops: FastMap<NodeId, u8> = FastMap::default();
//! hops.insert(NodeId::new(3), 2);
//! assert_eq!(hops.get(&NodeId::new(3)), Some(&2));
//! ```

#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` on the simulator's deterministic hasher. Construct with
/// `FastMap::default()` (`new` is defined only for std's default
/// hasher). The root `clippy.toml` refuses std's `HashMap`, `HashSet`
/// and `RandomState` everywhere else, so these aliases are the only way
/// to a hash map in the workspace.
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on the simulator's deterministic hasher.
#[allow(clippy::disallowed_types)]
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Odd 64-bit multiplier (the constant Firefox's and rustc's Fx hashers
/// use): spreads a dense id's low bits across the whole word, top seven
/// bits included — hashbrown reads both ends of the hash.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style hasher for small integer keys. Not collision-resistant
/// against chosen keys; see the module docs for why that is fine here.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// The general path (other integer widths land here through the
    /// trait's defaults): little-endian words, the tail zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    /// The same insert/remove history gives the same iteration order in
    /// every instance, and two hashes are pinned as expressions of `K`
    /// alone so it cannot differ between processes either (a per-process
    /// seed would pass the instance comparison).
    #[test]
    fn iteration_order_is_a_function_of_history() {
        let build = || {
            let mut map: FastMap<u32, u32> = FastMap::default();
            for i in 0..200u32 {
                map.insert(i.wrapping_mul(2_654_435_761) % 1_000, i);
            }
            for i in (0..200u32).step_by(3) {
                map.remove(&(i.wrapping_mul(2_654_435_761) % 1_000));
            }
            map
        };
        let a: Vec<(u32, u32)> = build().into_iter().collect();
        let b: Vec<(u32, u32)> = build().into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(hash_of(&7u32), 7u64.wrapping_mul(K));
        assert_eq!(
            hash_of(&(NodeId::new(1), 2u64)),
            (K.rotate_left(5) ^ 2).wrapping_mul(K)
        );
    }

    /// hashbrown picks the bucket from the low bits and the control byte
    /// from the top seven: both must spread for the dense ids the
    /// simulator uses, or probe sequences degenerate.
    #[test]
    fn dense_ids_spread_over_both_ends_of_the_hash() {
        #[derive(Hash)]
        struct FloodKey {
            origin: NodeId,
            seq: u64,
        }
        let spread = |hashes: &[u64]| {
            let mut low = [false; 128];
            let mut top = [false; 128];
            for h in hashes {
                low[(h & 0x7f) as usize] = true;
                top[(h >> 57) as usize] = true;
            }
            let count = |seen: &[bool; 128]| seen.iter().filter(|&&s| s).count();
            (count(&low), count(&top))
        };
        let ids: Vec<u64> = (0..4096u32).map(|i| hash_of(&NodeId::new(i))).collect();
        let grid: Vec<u64> = (0..64u32)
            .flat_map(|origin| {
                (0..64u64).map(move |seq| {
                    hash_of(&FloodKey {
                        origin: NodeId::new(origin),
                        seq,
                    })
                })
            })
            .collect();
        for (name, hashes) in [("dense u32 ids", &ids), ("flood-id grid", &grid)] {
            let (low, top) = spread(hashes);
            assert!(low >= 120, "{name}: low 7 bits hit only {low}/128 values");
            assert!(top >= 120, "{name}: top 7 bits hit only {top}/128 values");
        }
    }

    #[test]
    fn byte_slices_hash_by_words_with_a_zero_padded_tail() {
        let mut whole = FastHasher::default();
        whole.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut words = FastHasher::default();
        words.write_u64(1);
        words.write_u64(2);
        assert_eq!(whole.finish(), words.finish());
    }
}
