//! LRU score cache keyed on `(region, store_type, period)`.
//!
//! Caching is bit-transparent: a stored score is the exact `f32` the scorer
//! produced, so a cache hit returns the identical bits a fresh scoring pass
//! would. The server clears the cache on every checkpoint reload (stale
//! entries would otherwise serve the *previous* model's bits indefinitely).

use crate::store::Query;
use std::collections::HashMap;

/// Default capacity (overridden by `SITEREC_SERVE_CACHE`).
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// A fixed-capacity least-recently-used score cache.
///
/// Recency is a logical tick bumped on every hit and insert. Eviction is
/// amortized: when the cache is full, the oldest eighth (at least one
/// entry) is dropped in one sweep, so sustained insert cost stays near
/// constant without a linked-list freelist. The sweep selects that eighth
/// in linear time (ticks are unique, so the set is exact) rather than
/// sorting every entry.
#[derive(Debug)]
pub struct ScoreCache {
    cap: usize,
    tick: u64,
    map: HashMap<Query, (u64, f32)>,
    hits: u64,
    misses: u64,
}

impl ScoreCache {
    /// New cache holding at most `cap` scores (minimum 1).
    pub fn new(cap: usize) -> ScoreCache {
        ScoreCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a query's cached score, marking it most recently used.
    /// Counts a hit or miss.
    pub fn get(&mut self, q: &Query) -> Option<f32> {
        self.tick += 1;
        match self.map.get_mut(q) {
            Some(slot) => {
                slot.0 = self.tick;
                self.hits += 1;
                Some(slot.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a query's score as most recently used, evicting
    /// the least-recently-used eighth when full.
    pub fn put(&mut self, q: Query, score: f32) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&q) {
            let evict = (self.cap / 8).max(1);
            let mut ages: Vec<(u64, Query)> = self.map.iter().map(|(k, &(t, _))| (t, *k)).collect();
            ages.select_nth_unstable_by_key(evict - 1, |&(t, _)| t);
            for (_, key) in &ages[..evict] {
                self.map.remove(key);
            }
        }
        self.map.insert(q, (self.tick, score));
    }

    /// Number of cached scores.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` since construction or the last [`Self::clear`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop every entry and reset the hit/miss counters (reload path: a new
    /// model's scores must never mix with the old model's).
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_geo::Period;

    fn q(region: usize) -> Query {
        Query {
            region,
            ty: 0,
            period: None,
        }
    }

    #[test]
    fn hit_returns_inserted_bits() {
        let mut c = ScoreCache::new(8);
        let v = f32::from_bits(0x3f9d_70a4); // an exact bit pattern
        c.put(q(1), v);
        assert_eq!(c.get(&q(1)).unwrap().to_bits(), v.to_bits());
        assert_eq!(c.stats(), (1, 0));
        assert!(c.get(&q(2)).is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        let mut c = ScoreCache::new(8);
        for r in 0..8 {
            c.put(q(r), r as f32);
        }
        // Touch region 0 so it is most recently used, then overflow.
        assert!(c.get(&q(0)).is_some());
        c.put(q(99), 9.0);
        assert!(c.len() <= 8);
        assert!(c.get(&q(0)).is_some(), "recently-touched entry survived");
        assert!(c.get(&q(99)).is_some(), "new entry present");
        assert!(c.get(&q(1)).is_none(), "oldest entry evicted");
    }

    #[test]
    fn eviction_drops_exactly_the_oldest_eighth() {
        let mut c = ScoreCache::new(64);
        for r in 0..64 {
            c.put(q(r), r as f32);
        }
        // Bump every third region: recency, oldest first, is now the
        // unbumped regions ascending, then the bumped ones.
        for r in (0..64).step_by(3) {
            assert!(c.get(&q(r)).is_some());
        }
        let oldest: Vec<usize> = (0..64).filter(|r| r % 3 != 0).take(8).collect();
        c.put(q(100), 1.0);
        assert_eq!(c.len(), 64 - 8 + 1);
        for r in 0..64 {
            assert_eq!(
                c.map.contains_key(&q(r)),
                !oldest.contains(&r),
                "region {r} (evicted should be {oldest:?})"
            );
        }
        assert!(c.map.contains_key(&q(100)));
    }

    #[test]
    fn period_is_part_of_the_key() {
        let mut c = ScoreCache::new(8);
        let all = Query {
            region: 3,
            ty: 1,
            period: None,
        };
        let noon = Query {
            region: 3,
            ty: 1,
            period: Some(Period::NoonRush),
        };
        c.put(all, 0.5);
        assert!(c.get(&noon).is_none());
        c.put(noon, 0.7);
        assert_eq!(c.get(&all), Some(0.5));
        assert_eq!(c.get(&noon), Some(0.7));
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = ScoreCache::new(4);
        c.put(q(1), 1.0);
        let _ = c.get(&q(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), (0, 0));
    }
}
