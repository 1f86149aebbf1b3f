//! Multiset-union consumer state for keyed exchange streams.
//!
//! Several stages consume an irregular exchange whose records are
//! `(key, values...)` contributions from many source ranks and whose
//! result is the per-key *multiset union* of everything that arrived —
//! the overlap stage's per-pair seed lists are the canonical case: the
//! same read pair can be discovered on several ranks (through different
//! shared k-mers), and consolidation is exactly "append every arriving
//! seed to the pair's list, then canonicalize later". [`MultisetUnion`]
//! is that accumulator, written once: insertion order is arrival order,
//! duplicates are kept (they carry multiplicity information until the
//! consumer dedups), and the finished map is surrendered wholesale with
//! [`MultisetUnion::into_map`].

use std::collections::HashMap;
use std::hash::Hash;

/// An order-preserving `key → multiset of values` accumulator for
/// exchange consumers. Values arriving under one key are appended in
/// arrival order; nothing is deduplicated here — canonicalization (sort,
/// dedup, filter) is the consumer's job *after* the union is complete.
#[derive(Clone, Debug)]
pub struct MultisetUnion<K, V> {
    map: HashMap<K, Vec<V>>,
}

impl<K: Eq + Hash, V> Default for MultisetUnion<K, V> {
    fn default() -> Self {
        Self { map: HashMap::new() }
    }
}

impl<K: Eq + Hash, V> MultisetUnion<K, V> {
    /// Empty union.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one value to `key`'s multiset.
    ///
    /// `#[inline]` because the overlap stage calls this once per received
    /// seed record from inside a closure: left to the inliner's size
    /// heuristic, an unrelated edit to the closure's caller made the call
    /// out-of-line and cost that stage a third of its time on the repo
    /// benchmark's `hifi30x`.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        self.map.entry(key).or_default().push(value);
    }

    /// Append every value of `values` to `key`'s multiset, in order.
    pub fn extend(&mut self, key: K, values: impl IntoIterator<Item = V>) {
        self.map.entry(key).or_default().extend(values);
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no key has arrived.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total values across all keys (with multiplicity).
    pub fn total_values(&self) -> u64 {
        self.map.values().map(|v| v.len() as u64).sum()
    }

    /// Surrender the accumulated map.
    pub fn into_map(self) -> HashMap<K, Vec<V>> {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_keeps_duplicates_in_arrival_order() {
        let mut u: MultisetUnion<u32, u8> = MultisetUnion::new();
        assert!(u.is_empty());
        u.push(7, 3);
        u.push(7, 1);
        u.push(7, 3);
        u.extend(9, [2, 2]);
        assert_eq!(u.len(), 2);
        assert_eq!(u.total_values(), 5);
        let map = u.into_map();
        assert_eq!(map[&7], vec![3, 1, 3], "order and multiplicity preserved");
        assert_eq!(map[&9], vec![2, 2]);
    }

    #[test]
    fn extend_appends_after_push() {
        let mut u: MultisetUnion<&'static str, u32> = MultisetUnion::new();
        u.push("k", 1);
        u.extend("k", [2, 3]);
        assert_eq!(u.into_map()["k"], vec![1, 2, 3]);
    }
}
