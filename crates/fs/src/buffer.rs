//! The block buffer cache, with pluggable caching policy.
//!
//! The web-server discussion in §5.4 turns on who controls caching: "a
//! server that does not itself cache but is built on top of a conventional
//! caching file system avoids the double buffering problem, but is unable
//! to control the caching policy." This cache makes the policy a
//! first-class object its builder chooses — SPIN's point — so the file
//! system can run with LRU, with no caching at all (for servers that cache
//! at object level), or with anything an extension supplies.

use spin_check::sync::Mutex;
use spin_sal::{BlockId, Disk, DiskRequest, BLOCK_SIZE};
use spin_sched::{Executor, KChannel, StrandCtx};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A replaceable cache eviction policy over block ids.
pub trait CachePolicy: Send + Sync {
    /// Records that `block` was touched (now resident).
    fn touch(&mut self, block: BlockId);
    /// Picks a resident block to evict.
    fn victim(&mut self) -> Option<BlockId>;
    /// Records that `block` left the cache.
    fn evicted(&mut self, block: BlockId);
    /// Whether this block should be cached at all.
    fn admit(&self, block: BlockId) -> bool {
        let _ = block;
        true
    }
    /// Policy name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Least-recently-used eviction.
#[derive(Default)]
pub struct LruPolicy {
    /// Recency order: front = oldest.
    order: Vec<BlockId>,
}

impl CachePolicy for LruPolicy {
    fn touch(&mut self, block: BlockId) {
        self.order.retain(|&b| b != block);
        self.order.push(block);
    }
    fn victim(&mut self) -> Option<BlockId> {
        if self.order.is_empty() {
            None
        } else {
            Some(self.order.remove(0))
        }
    }
    fn evicted(&mut self, block: BlockId) {
        self.order.retain(|&b| b != block);
    }
    fn name(&self) -> &'static str {
        "lru"
    }
}

/// No caching: every read goes to the disk (the policy a self-caching
/// server wants underneath it, avoiding double buffering).
#[derive(Default)]
pub struct NoCachePolicy;

impl CachePolicy for NoCachePolicy {
    fn touch(&mut self, _block: BlockId) {}
    fn victim(&mut self) -> Option<BlockId> {
        None
    }
    fn evicted(&mut self, _block: BlockId) {}
    fn admit(&self, _block: BlockId) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "no-cache"
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

struct CacheState {
    resident: BTreeMap<BlockId, Arc<Vec<u8>>>,
    policy: Box<dyn CachePolicy>,
    capacity_blocks: usize,
    stats: CacheStats,
}

/// The buffer cache over one disk.
#[derive(Clone)]
pub struct BufferCache {
    disk: Disk,
    exec: Arc<Executor>,
    state: Arc<Mutex<CacheState>>,
}

impl BufferCache {
    /// Creates a cache of `capacity_blocks` blocks with `policy`.
    pub fn new(
        disk: Disk,
        exec: Arc<Executor>,
        capacity_blocks: usize,
        policy: Box<dyn CachePolicy>,
    ) -> BufferCache {
        BufferCache {
            disk,
            exec,
            state: Arc::new(Mutex::new(CacheState {
                resident: BTreeMap::new(),
                policy,
                capacity_blocks,
                stats: CacheStats::default(),
            })),
        }
    }

    fn wait_disk(&self, ctx: &StrandCtx, req: DiskRequest) -> Vec<u8> {
        let done: Arc<KChannel<Vec<u8>>> = KChannel::new(self.exec.clone(), 1);
        let d2 = done.clone();
        self.disk.submit(req, move |r| {
            d2.try_push(r.expect("fs issues valid requests"));
        });
        done.recv(ctx).expect("the completion is never closed")
    }

    /// Charges the CPU cost of moving `n` bytes to/from a caller's buffer
    /// (callers that consume block data byte-for-byte account the copy).
    pub(crate) fn charge_copy(&self, n: usize) {
        self.exec.clock().advance(self.exec.profile().copy(n));
    }

    /// Reads a block through the cache, blocking on a miss.
    pub(crate) fn read(&self, ctx: &StrandCtx, block: BlockId) -> Arc<Vec<u8>> {
        {
            let mut st = self.state.lock();
            if let Some(data) = st.resident.get(&block).cloned() {
                st.stats.hits += 1;
                st.policy.touch(block);
                return data;
            }
            st.stats.misses += 1;
        }
        let data = Arc::new(self.wait_disk(ctx, DiskRequest::Read(block)));
        let mut st = self.state.lock();
        if st.policy.admit(block) {
            while st.resident.len() >= st.capacity_blocks {
                match st.policy.victim() {
                    Some(v) => {
                        st.resident.remove(&v);
                        st.stats.evictions += 1;
                    }
                    None => break,
                }
            }
            if st.resident.len() < st.capacity_blocks {
                st.resident.insert(block, data.clone());
                st.policy.touch(block);
            }
        }
        data
    }

    /// Writes a block through the cache (write-through).
    pub(crate) fn write(&self, ctx: &StrandCtx, block: BlockId, data: Vec<u8>) {
        assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
        let shared = Arc::new(data);
        {
            let mut st = self.state.lock();
            st.stats.writebacks += 1;
            if st.policy.admit(block) {
                st.resident.insert(block, shared.clone());
                st.policy.touch(block);
            } else {
                st.resident.remove(&block);
                st.policy.evicted(block);
            }
        }
        let _ = self.wait_disk(ctx, DiskRequest::Write(block, shared.as_ref().clone()));
    }

    /// Current statistics.
    #[cfg(test)]
    fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Number of resident blocks.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.state.lock().resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    fn rig(capacity: usize, policy: Box<dyn CachePolicy>) -> (BufferCache, Arc<Executor>) {
        let board = SimBoard::new();
        let host = board.new_host(16);
        let exec = Executor::for_host(&host);
        let cache = BufferCache::new(host.disk.clone(), exec.clone(), capacity, policy);
        (cache, exec)
    }

    #[test]
    fn reads_are_cached_under_lru() {
        let (cache, exec) = rig(4, Box::new(LruPolicy::default()));
        let c2 = cache.clone();
        exec.spawn("reader", move |ctx| {
            c2.read(ctx, BlockId(1));
            c2.read(ctx, BlockId(1));
            c2.read(ctx, BlockId(2));
        });
        exec.run_until_idle();
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let (cache, exec) = rig(2, Box::new(LruPolicy::default()));
        let c2 = cache.clone();
        exec.spawn("reader", move |ctx| {
            c2.read(ctx, BlockId(1));
            c2.read(ctx, BlockId(2));
            c2.read(ctx, BlockId(1)); // touch 1: now 2 is oldest
            c2.read(ctx, BlockId(3)); // evicts 2
            c2.read(ctx, BlockId(1)); // still a hit
            c2.read(ctx, BlockId(2)); // miss: was evicted (and evicts 3)
        });
        exec.run_until_idle();
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 4);
    }

    #[test]
    fn no_cache_policy_always_misses() {
        let (cache, exec) = rig(4, Box::new(NoCachePolicy));
        let c2 = cache.clone();
        exec.spawn("reader", move |ctx| {
            c2.read(ctx, BlockId(1));
            c2.read(ctx, BlockId(1));
        });
        exec.run_until_idle();
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn write_then_read_hits_cache_and_persists() {
        let (cache, exec) = rig(4, Box::new(LruPolicy::default()));
        let c2 = cache.clone();
        exec.spawn("writer", move |ctx| {
            let mut data = vec![0u8; BLOCK_SIZE];
            data[7] = 42;
            c2.write(ctx, BlockId(5), data);
            let back = c2.read(ctx, BlockId(5));
            assert_eq!(back[7], 42);
        });
        exec.run_until_idle();
        assert_eq!(cache.stats().hits, 1, "write-through leaves block resident");
    }
}
