//! Chunked, structurally-shared member-id sets.
//!
//! Every emitted [`AggregatedFlexOffer`](crate::AggregatedFlexOffer)
//! carries the ids of its members. PR 3 made that list an `Arc<Vec<_>>`
//! so *cloning* an emitted aggregate stopped copying ids — but the
//! aggregator still had to materialize a fresh `Vec` (one O(members)
//! memcpy) on **every** emission, because the entry's mutable member
//! list and the immutable snapshot could not share storage.
//!
//! [`MemberIds`] closes that gap: ids live in sorted chunks of at most
//! `CHUNK` (512) entries, each behind its own `Arc`. A membership delta of
//! Δ ids touches O(Δ) chunks (copy-on-write via `Arc::make_mut`, O(CHUNK)
//! per touched chunk), and producing the emission snapshot is a clone of
//! the chunk *table* — O(members ⁄ CHUNK) pointer bumps, never an id
//! copy. A 10 000-member group's trickle emission thus shares ~9 999
//! ids with the previous snapshot instead of re-copying all of them.

use mirabel_core::FlexOfferId;
use std::sync::Arc;

/// Maximum ids per chunk. Oversized chunks split in half, so steady-state
/// chunks hold between `CHUNK / 2` and `CHUNK` ids.
const CHUNK: usize = 512;

/// A sorted set of member ids with chunk-level structural sharing.
///
/// Cloning is O(chunks); inserting or removing one id is
/// O(log chunks + CHUNK) and leaves all untouched chunks shared with
/// every previously taken clone.
#[derive(Debug, Clone, Default)]
pub struct MemberIds {
    /// Non-empty sorted chunks in ascending id order.
    chunks: Vec<Arc<Vec<FlexOfferId>>>,
    len: usize,
}

impl MemberIds {
    /// Empty set.
    pub fn new() -> MemberIds {
        MemberIds::default()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FlexOfferId> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: FlexOfferId) -> bool {
        let k = self.chunk_for(id);
        k < self.chunks.len() && self.chunks[k].binary_search(&id).is_ok()
    }

    /// Collect into a plain vector (ascending).
    pub fn to_vec(&self) -> Vec<FlexOfferId> {
        self.iter().collect()
    }

    /// Index of the chunk that contains (or would contain) `id`: the
    /// first chunk whose last element is `>= id`, clamped to the final
    /// chunk for ids beyond every element.
    fn chunk_for(&self, id: FlexOfferId) -> usize {
        let k = self
            .chunks
            .partition_point(|c| *c.last().expect("chunks are non-empty") < id);
        k.min(self.chunks.len().saturating_sub(1))
    }

    /// Insert `id`, keeping the set sorted.
    ///
    /// # Panics
    /// Panics if `id` is already present (aggregate membership deltas
    /// never re-add a live member).
    pub fn insert(&mut self, id: FlexOfferId) {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(vec![id]));
            self.len = 1;
            return;
        }
        let k = self.chunk_for(id);
        let chunk = Arc::make_mut(&mut self.chunks[k]);
        let pos = chunk
            .binary_search(&id)
            .expect_err("member id already present");
        chunk.insert(pos, id);
        if chunk.len() > CHUNK {
            let tail = chunk.split_off(chunk.len() / 2);
            self.chunks.insert(k + 1, Arc::new(tail));
        }
        self.len += 1;
    }

    /// Remove `id`.
    ///
    /// # Panics
    /// Panics if `id` is absent (removal deltas always name a live
    /// member).
    pub fn remove(&mut self, id: FlexOfferId) {
        assert!(!self.chunks.is_empty(), "removed member present");
        let k = self.chunk_for(id);
        let chunk = Arc::make_mut(&mut self.chunks[k]);
        let pos = chunk.binary_search(&id).expect("removed member present");
        chunk.remove(pos);
        if chunk.is_empty() {
            self.chunks.remove(k);
        }
        self.len -= 1;
    }
}

impl FromIterator<FlexOfferId> for MemberIds {
    /// Build from an **ascending** id sequence (duplicates forbidden).
    fn from_iter<T: IntoIterator<Item = FlexOfferId>>(iter: T) -> MemberIds {
        let mut chunks: Vec<Arc<Vec<FlexOfferId>>> = Vec::new();
        let mut cur: Vec<FlexOfferId> = Vec::new();
        let mut len = 0usize;
        for id in iter {
            debug_assert!(
                cur.last().is_none_or(|last| *last < id)
                    && chunks
                        .last()
                        .is_none_or(|c| *c.last().expect("non-empty") < id),
                "MemberIds::from_iter input must be strictly ascending"
            );
            cur.push(id);
            len += 1;
            if cur.len() == CHUNK {
                chunks.push(Arc::new(std::mem::take(&mut cur)));
            }
        }
        if !cur.is_empty() {
            chunks.push(Arc::new(cur));
        }
        MemberIds { chunks, len }
    }
}

impl PartialEq for MemberIds {
    /// Logical equality: same ids in the same order, regardless of how
    /// they are chunked.
    fn eq(&self, other: &MemberIds) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for MemberIds {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: impl IntoIterator<Item = u64>) -> Vec<FlexOfferId> {
        v.into_iter().map(FlexOfferId).collect()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut m = MemberIds::new();
        for i in [5u64, 1, 9, 3, 7] {
            m.insert(FlexOfferId(i));
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.to_vec(), ids([1, 3, 5, 7, 9]));
        assert!(m.contains(FlexOfferId(7)));
        assert!(!m.contains(FlexOfferId(2)));
        m.remove(FlexOfferId(5));
        m.remove(FlexOfferId(1));
        assert_eq!(m.to_vec(), ids([3, 7, 9]));
        m.remove(FlexOfferId(3));
        m.remove(FlexOfferId(7));
        m.remove(FlexOfferId(9));
        assert!(m.is_empty());
        assert_eq!(m.chunks.len(), 0);
    }

    #[test]
    fn from_iter_matches_inserts() {
        let built: MemberIds = (0..2_000).map(FlexOfferId).collect();
        let mut inserted = MemberIds::new();
        for i in 0..2_000 {
            inserted.insert(FlexOfferId(i));
        }
        assert_eq!(built, inserted);
        assert_eq!(built.len(), 2_000);
        assert!(built.chunks.len() >= 2_000 / CHUNK);
    }

    #[test]
    fn chunks_split_and_stay_bounded() {
        let mut m = MemberIds::new();
        // Insert in descending order to stress the first chunk.
        for i in (0..5_000u64).rev() {
            m.insert(FlexOfferId(i));
        }
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.to_vec(), ids(0..5_000));
        assert!(m.chunks.len() >= 5_000 / CHUNK);
    }

    #[test]
    fn clone_shares_untouched_chunks() {
        let mut m: MemberIds = (0..4 * CHUNK as u64).map(FlexOfferId).collect();
        let snapshot = m.clone();
        m.insert(FlexOfferId(4 * CHUNK as u64 + 10));
        // The snapshot still sees the old contents…
        assert_eq!(snapshot.len(), 4 * CHUNK);
        assert!(!snapshot.contains(FlexOfferId(4 * CHUNK as u64 + 10)));
        // …and all but the touched chunk are the same allocation.
        let shared = m
            .chunks
            .iter()
            .filter(|c| snapshot.chunks.iter().any(|s| Arc::ptr_eq(c, s)))
            .count();
        assert!(shared >= m.chunks.len() - 2, "shared {shared}");
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics() {
        let mut m = MemberIds::new();
        m.insert(FlexOfferId(1));
        m.insert(FlexOfferId(1));
    }

    #[test]
    #[should_panic(expected = "removed member present")]
    fn missing_remove_panics() {
        let mut m = MemberIds::new();
        m.insert(FlexOfferId(1));
        m.remove(FlexOfferId(2));
    }
}
