//! The web server's object cache and its hybrid policy (§5.4).
//!
//! "A SPIN web server implements its own hybrid caching policy based on
//! file type: LRU for small files, and no-cache for large files which tend
//! to be accessed infrequently." The cache here is object-granular (keyed
//! by path), separate from the block buffer cache, so a server using it
//! runs the file system with the no-cache block policy and "both control\[s\]
//! its cache and avoid\[s\] the problem of double buffering".

use spin_check::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Object-cache admission/eviction policy.
pub trait ObjectPolicy: Send + Sync {
    /// Whether an object of `size` bytes should be cached at all.
    fn admit(&self, size: usize) -> bool;
    /// Policy name.
    fn name(&self) -> &'static str;
}

/// SPIN's hybrid: LRU for small objects, no caching for large ones.
pub struct HybridBySize {
    /// Objects at or above this size are never cached.
    pub large_threshold: usize,
}

impl ObjectPolicy for HybridBySize {
    fn admit(&self, size: usize) -> bool {
        size < self.large_threshold
    }
    fn name(&self) -> &'static str {
        "hybrid-by-size"
    }
}

/// Object-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub bypasses: u64,
    pub evictions: u64,
}

struct WebCacheState {
    objects: HashMap<String, Arc<Vec<u8>>>,
    lru: Vec<String>,
    bytes: usize,
    stats: ObjectCacheStats,
}

/// An LRU object cache with a pluggable admission policy.
pub struct WebCache {
    capacity_bytes: usize,
    policy: Box<dyn ObjectPolicy>,
    state: Mutex<WebCacheState>,
}

impl WebCache {
    /// Creates a cache of `capacity_bytes` with `policy`.
    pub fn new(capacity_bytes: usize, policy: Box<dyn ObjectPolicy>) -> WebCache {
        WebCache {
            capacity_bytes,
            policy,
            state: Mutex::new(WebCacheState {
                objects: HashMap::new(),
                lru: Vec::new(),
                bytes: 0,
                stats: ObjectCacheStats::default(),
            }),
        }
    }

    /// Looks up `key`; on a miss, `load` fetches the object, which is then
    /// cached if the policy admits it. Returns (object, was_hit).
    pub fn get_or_load(&self, key: &str, load: impl FnOnce() -> Vec<u8>) -> (Arc<Vec<u8>>, bool) {
        {
            let mut st = self.state.lock();
            if let Some(obj) = st.objects.get(key).cloned() {
                st.stats.hits += 1;
                st.lru.retain(|k| k != key);
                st.lru.push(key.to_string());
                return (obj, true);
            }
        }
        let obj = Arc::new(load());
        let mut st = self.state.lock();
        if self.policy.admit(obj.len()) {
            st.stats.misses += 1;
            while st.bytes + obj.len() > self.capacity_bytes && !st.lru.is_empty() {
                let victim = st.lru.remove(0);
                if let Some(old) = st.objects.remove(&victim) {
                    st.bytes -= old.len();
                    st.stats.evictions += 1;
                }
            }
            if st.bytes + obj.len() <= self.capacity_bytes {
                st.bytes += obj.len();
                st.objects.insert(key.to_string(), obj.clone());
                st.lru.push(key.to_string());
            }
        } else {
            st.stats.bypasses += 1;
        }
        (obj, false)
    }

    /// Statistics so far.
    pub fn stats(&self) -> ObjectCacheStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cache everything (subject to capacity).
    struct CacheAll;

    impl ObjectPolicy for CacheAll {
        fn admit(&self, _size: usize) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "cache-all"
        }
    }

    #[test]
    fn hits_after_first_load() {
        let c = WebCache::new(1024, Box::new(CacheAll));
        let (a, hit) = c.get_or_load("/index.html", || vec![1, 2, 3]);
        assert!(!hit);
        let (b, hit) = c.get_or_load("/index.html", || panic!("should not reload"));
        assert!(hit);
        assert_eq!(a, b);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn hybrid_bypasses_large_objects() {
        let c = WebCache::new(
            1 << 20,
            Box::new(HybridBySize {
                large_threshold: 100,
            }),
        );
        let (_, _) = c.get_or_load("/big.mpg", || vec![0u8; 5000]);
        // Large object: never cached; second access reloads.
        let loaded = std::cell::Cell::new(false);
        let (_, hit) = c.get_or_load("/big.mpg", || {
            loaded.set(true);
            vec![0u8; 5000]
        });
        assert!(!hit);
        assert!(loaded.get());
        assert_eq!(c.stats().bypasses, 2);
        assert_eq!(c.state.lock().bytes, 0);
        // Small object: cached.
        c.get_or_load("/small.html", || vec![0u8; 50]);
        let (_, hit) = c.get_or_load("/small.html", || panic!("cached"));
        assert!(hit);
    }

    #[test]
    fn capacity_evicts_lru_first() {
        let c = WebCache::new(100, Box::new(CacheAll));
        c.get_or_load("a", || vec![0u8; 60]);
        c.get_or_load("b", || vec![0u8; 30]);
        c.get_or_load("a", || panic!("a is hot"));
        c.get_or_load("c", || vec![0u8; 50]); // must evict b (LRU), not a... but 60+50>100, so a goes too
        let s = c.stats();
        assert!(s.evictions >= 1);
        assert!(c.state.lock().bytes <= 100);
    }
}
