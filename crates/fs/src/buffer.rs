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
use spin_sal::{BlockId, Cost, Disk, DiskRequest, BLOCK_SIZE};
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

struct CacheState {
    resident: BTreeMap<BlockId, Arc<Vec<u8>>>,
    policy: Box<dyn CachePolicy>,
    capacity_blocks: usize,
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
        self.exec.clock().charge(Cost::CopyByte, n as u64);
    }

    /// Reads a block through the cache, blocking on a miss.
    pub(crate) fn read(&self, ctx: &StrandCtx, block: BlockId) -> Arc<Vec<u8>> {
        {
            let mut st = self.state.lock();
            if let Some(data) = st.resident.get(&block).cloned() {
                st.policy.touch(block);
                return data;
            }
        }
        let data = Arc::new(self.wait_disk(ctx, DiskRequest::Read(block)));
        let mut st = self.state.lock();
        if st.policy.admit(block) {
            while st.resident.len() >= st.capacity_blocks {
                match st.policy.victim() {
                    Some(v) => {
                        st.resident.remove(&v);
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

    /// Number of resident blocks.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.state.lock().resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::Mutex;
    use spin_sal::SimBoard;

    fn rig(capacity: usize, policy: Box<dyn CachePolicy>) -> (BufferCache, Arc<Executor>) {
        let board = SimBoard::new();
        let host = board.new_host(16);
        let exec = Executor::for_host(&host);
        let cache = BufferCache::new(host.disk.clone(), exec.clone(), capacity, policy);
        (cache, exec)
    }

    /// Reads `block` and says whether the cache held it: a hit takes no
    /// virtual time, a miss waits for the disk.
    fn hit(cache: &BufferCache, ctx: &StrandCtx, block: u64) -> bool {
        let t0 = ctx.executor().clock().now();
        cache.read(ctx, BlockId(block));
        ctx.executor().clock().now() == t0
    }

    /// Reads `blocks` in order from one strand: which reads were hits.
    fn hits(cache: &BufferCache, exec: &Arc<Executor>, blocks: &'static [u64]) -> Vec<bool> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (c2, s2) = (cache.clone(), seen.clone());
        exec.spawn("reader", move |ctx| {
            for &b in blocks {
                let h = hit(&c2, ctx, b);
                s2.lock().push(h);
            }
        });
        exec.run_until_idle();
        let seen = seen.lock().clone();
        seen
    }

    #[test]
    fn reads_are_cached_under_lru() {
        let (cache, exec) = rig(4, Box::new(LruPolicy::default()));
        assert_eq!(hits(&cache, &exec, &[1, 1, 2]), [false, true, false]);
        assert_eq!(cache.resident(), 2);
    }

    /// Four misses admitted into two blocks: two evictions.
    #[test]
    fn lru_evicts_the_oldest() {
        let (cache, exec) = rig(2, Box::new(LruPolicy::default()));
        assert_eq!(
            hits(&cache, &exec, &[1, 2, 1, 3, 1, 2]),
            // 1 and 2 miss; touching 1 leaves 2 oldest, so 3 evicts 2; 1
            // still hits; 2 misses again (and evicts 3).
            [false, false, true, false, true, false]
        );
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn no_cache_policy_always_misses() {
        let (cache, exec) = rig(4, Box::new(NoCachePolicy));
        assert_eq!(hits(&cache, &exec, &[1, 1]), [false, false]);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn write_then_read_hits_cache_and_persists() {
        let (cache, exec) = rig(4, Box::new(LruPolicy::default()));
        let c2 = cache.clone();
        let writer = exec.spawn("writer", move |ctx| {
            let mut data = vec![0u8; BLOCK_SIZE];
            data[7] = 42;
            c2.write(ctx, BlockId(5), data);
            let resident = hit(&c2, ctx, 5);
            (resident, c2.read(ctx, BlockId(5))[7])
        });
        exec.run_until_idle();
        assert_eq!(
            writer.join().ok(),
            Some((true, 42)),
            "write-through leaves block resident"
        );
    }
}
