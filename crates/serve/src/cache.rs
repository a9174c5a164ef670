//! LRU result cache.
//!
//! Relational verification is expensive (simplex + branch & bound) and
//! server workloads repeat: the same model is probed at the same ε across
//! deployments, dashboards re-poll, and cross-execution methods re-derive
//! identical sub-queries. The cache memoizes finished *verdicts* (the
//! deterministic JSON objects from `raven::report`) under a key that
//! captures everything the verdict depends on:
//!
//! `(model content hash, property, method, pair strategy, ε bits, batch hash)`
//!
//! ε is keyed by its **bit pattern** (two ε values that differ below
//! display precision are different queries), and the batch hash folds every
//! input coordinate's bit pattern plus the labels, so a cache hit implies
//! the verdict would have been recomputed bit-identically (the verifier is
//! deterministic for any thread count).

use raven::{Method, PairStrategy};
use raven_nn::fnv1a64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The full cache key for one verification query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `network_fingerprint` of the model.
    pub model_hash: u64,
    /// Property family (`"uap"`, `"monotonicity"`).
    pub property: &'static str,
    /// Verification method.
    pub method: Method,
    /// DiffPoly pair strategy.
    pub pairs: PairStrategy,
    /// Bit pattern of ε.
    pub eps_bits: u64,
    /// Hash of the remaining query payload (inputs, labels, feature, …).
    pub batch_hash: u64,
}

/// Incremental FNV-1a hasher for query payloads.
///
/// Floats are folded by bit pattern, so `0.1 + 0.2` and `0.3` are
/// different payloads — exactly the discrimination the verifier has.
#[derive(Debug)]
pub struct PayloadHasher {
    state: u64,
}

impl Default for PayloadHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadHasher {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self {
            state: fnv1a64(b"raven-serve payload v1"),
        }
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        // Continue the FNV-1a stream from the current state.
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = h;
    }

    /// Folds one float (by bits).
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.push_bytes(&x.to_bits().to_le_bytes());
        self
    }

    /// Folds a float slice.
    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
        self
    }

    /// Folds one unsigned integer.
    pub fn usize(&mut self, n: usize) -> &mut Self {
        self.push_bytes(&(n as u64).to_le_bytes());
        self
    }

    /// Folds a boolean.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.push_bytes(&[b as u8]);
        self
    }

    /// Finishes and returns the hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A cached verdict: the serialized JSON object plus the wall-clock cost
/// of the original run (reported alongside cache hits so clients can see
/// what the hit saved).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Serialized verdict object (deterministic).
    pub verdict: String,
    /// Milliseconds the original computation took.
    pub solve_millis: f64,
    /// Per-tier breakdown of the original computation.
    pub tier_millis: raven::TierMillis,
    /// Serialized proof certificate of the original run, when one was
    /// emitted and retained. The server's verdict cache never stores one
    /// (certificate requests bypass cache reads); the *worker-side* cache
    /// keeps it so a retried job re-emits the identical proof.
    pub certificate: Option<String>,
}

struct Slot {
    value: CachedResult,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    tick: u64,
}

/// A thread-safe LRU cache with hit/miss counters.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` verdicts (0 disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a verdict, updating recency and the hit/miss counters.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::metrics::CACHE_HITS.inc();
                Some(slot.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::metrics::CACHE_MISSES.inc();
                None
            }
        }
    }

    /// Inserts a verdict, evicting the least-recently-used entry when at
    /// capacity.
    pub fn put(&self, key: CacheKey, value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
    }

    /// `(hits, misses)` since startup.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            model_hash: 1,
            property: "uap",
            method: Method::Raven,
            pairs: PairStrategy::Consecutive,
            eps_bits: 0.05f64.to_bits(),
            batch_hash: n,
        }
    }

    fn val(s: &str) -> CachedResult {
        CachedResult {
            verdict: s.to_string(),
            solve_millis: 1.0,
            tier_millis: raven::TierMillis::default(),
            certificate: None,
        }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.put(key(1), val("a"));
        assert_eq!(cache.get(&key(1)).unwrap().verdict, "a");
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::new(2);
        cache.put(key(1), val("a"));
        cache.put(key(2), val("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.put(key(3), val("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "lru entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn overwriting_a_key_does_not_evict_others() {
        let cache = ResultCache::new(2);
        cache.put(key(1), val("a"));
        cache.put(key(2), val("b"));
        cache.put(key(1), val("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)).unwrap().verdict, "a2");
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.put(key(1), val("a"));
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_key_components_miss() {
        let cache = ResultCache::new(8);
        cache.put(key(1), val("a"));
        let mut k = key(1);
        k.method = Method::IoLp;
        assert!(cache.get(&k).is_none());
        let mut k = key(1);
        k.eps_bits = 0.06f64.to_bits();
        assert!(cache.get(&k).is_none());
        let mut k = key(1);
        k.model_hash = 2;
        assert!(cache.get(&k).is_none());
    }

    #[test]
    fn payload_hasher_discriminates_bitwise() {
        let h = |f: &dyn Fn(&mut PayloadHasher)| {
            let mut p = PayloadHasher::new();
            f(&mut p);
            p.finish()
        };
        let a = h(&|p| {
            p.f64s(&[0.1, 0.2]).usize(1);
        });
        let b = h(&|p| {
            p.f64s(&[0.1, 0.2]).usize(2);
        });
        let c = h(&|p| {
            p.f64s(&[0.1, 0.2 + 1e-16]).usize(1);
        });
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Length prefixes prevent concatenation aliasing.
        let d = h(&|p| {
            p.f64s(&[0.1]).f64s(&[0.2]);
        });
        let e = h(&|p| {
            p.f64s(&[0.1, 0.2]).f64s(&[]);
        });
        assert_ne!(d, e);
    }
}
