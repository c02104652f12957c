//! `spin-dsm` — distributed shared memory, composed from the fault events
//! and the protocol stack.
//!
//! §4.1 names DSM among the services "implementors of higher level memory
//! management abstractions" can define on the translation events
//! ("distributed shared memory \[Carter et al. 91\]"). This crate builds a
//! two-node, page-granular, write-invalidate DSM entirely from public
//! interfaces:
//!
//! * `Translation.PageNotPresent` / `Translation.ProtectionFault` handlers
//!   fetch pages from the peer (blocking only the faulting strand);
//! * a UDP protocol (`FETCH_READ` / `FETCH_WRITE` / `DATA` / `NACK`)
//!   carries page images between kernels;
//! * per-page **ownership** serializes write grants: the owner downgrades
//!   or invalidates its mapping before shipping the page, so at most one
//!   node ever holds a writable copy, and read-sharing gives both nodes
//!   read-only copies.
//!
//! Transient disagreement about ownership (a grant still in flight) is
//! resolved with NACK + retry; the true owner always answers eventually.

#![forbid(unsafe_code)]

use bytes::{BufMut, BytesMut};
use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_net::{IpAddr, NetStack, UdpPacket};
use spin_sal::mmu::ContextId;
use spin_sal::{PhysMem, Protection, PAGE_SHIFT, PAGE_SIZE};
use spin_sched::{Executor, KChannel};
use spin_vm::{
    FaultAction, FaultInfo, PhysAddrService, PhysAttrib, PhysRegion, TranslationService, VirtRegion,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The UDP port the DSM protocol uses.
pub const DSM_PORT: u16 = 5005;

const MSG_FETCH_READ: u8 = 1;
const MSG_FETCH_WRITE: u8 = 2;
const MSG_DATA_FRAG: u8 = 3;
const MSG_NACK: u8 = 4;
const MSG_INVALIDATE: u8 = 5;
const MSG_INVALIDATE_ACK: u8 = 6;

/// Page images are fragmented to fit any medium's MTU.
const FRAG_BYTES: usize = 1024;
const FRAGS_PER_PAGE: usize = PAGE_SIZE / FRAG_BYTES;

/// Local state of one shared page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// No local copy.
    Invalid,
    /// Read-only copy (possibly shared with the peer).
    Shared,
    /// Writable copy; the peer holds nothing.
    Exclusive,
}

struct PageInfo {
    state: PageState,
    /// Grant authority: exactly one node owns each page.
    owner: bool,
    frame: Option<Arc<PhysRegion>>,
}

/// DSM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    pub read_fetches: u64,
    pub write_fetches: u64,
    pub pages_shipped: u64,
    pub invalidations: u64,
    pub nacks: u64,
}

struct NodeState {
    pages: Vec<PageInfo>,
    stats: DsmStats,
}

/// Strands parked waiting for answers about a page, keyed by page index,
/// in the order they sent their requests. The peer answers one page's
/// requests in the order they arrive and its answers travel one link in
/// order, so each answer goes to the oldest waiter.
type Waiters<T> = Mutex<HashMap<u32, VecDeque<Arc<KChannel<T>>>>>;

/// Partial page images being reassembled, keyed by page index.
type Reassembly = HashMap<u32, Vec<Option<Vec<u8>>>>;

/// One node of the two-node DSM.
pub struct DsmNode {
    stack: NetStack,
    exec: Arc<Executor>,
    trans: TranslationService,
    phys: PhysAddrService,
    mem: PhysMem,
    ctx: ContextId,
    region: Arc<VirtRegion>,
    peer: IpAddr,
    state: Arc<Mutex<NodeState>>,
    /// Waiters for a fetch's DATA (`Some`) or NACK (`None`).
    waiters: Waiters<Option<Vec<u8>>>,
    /// Partial page images being reassembled, keyed by page index.
    reassembly: Arc<Mutex<Reassembly>>,
    /// Waiters for invalidation acknowledgements.
    inval_waiters: Waiters<()>,
}

impl DsmNode {
    /// Installs a DSM node: `region` (reserved in `ctx`) is kept coherent
    /// with the peer at `peer`. `initial_owner` says whether this node
    /// starts owning (and holding Exclusive copies of) every page.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        stack: &NetStack,
        exec: &Arc<Executor>,
        trans: &TranslationService,
        phys: &PhysAddrService,
        mem: &PhysMem,
        ctx: ContextId,
        region: Arc<VirtRegion>,
        peer: IpAddr,
        initial_owner: bool,
    ) -> Arc<DsmNode> {
        trans.reserve(ctx, &region).expect("region reserved");
        let mut pages = Vec::new();
        for i in 0..region.pages() {
            let (state, frame) = if initial_owner {
                let f = phys
                    .allocate(1, PhysAttrib::default())
                    .expect("initial frames");
                let frame_id = f.with_frames(|fr| fr[0]).expect("live");
                trans
                    .map_page(ctx, region.vpn(i), frame_id, Protection::READ_WRITE)
                    .expect("initial mapping");
                (PageState::Exclusive, Some(f))
            } else {
                (PageState::Invalid, None)
            };
            pages.push(PageInfo {
                state,
                owner: initial_owner,
                frame,
            });
        }
        let node = Arc::new(DsmNode {
            stack: stack.clone(),
            exec: exec.clone(),
            trans: trans.clone(),
            phys: phys.clone(),
            mem: mem.clone(),
            ctx,
            region: region.clone(),
            peer,
            state: Arc::new(Mutex::new(NodeState {
                pages,
                stats: DsmStats::default(),
            })),
            waiters: Mutex::default(),
            reassembly: Arc::new(Mutex::new(HashMap::new())),
            inval_waiters: Mutex::default(),
        });

        // Protocol handler: non-blocking, runs on the protocol thread.
        let n2 = node.clone();
        spin_net::UdpSocket::bind_with(stack, DSM_PORT, "DSM", move |p| n2.on_message(p))
            .expect("bind DSM port");

        // Fault handlers: a missing page is a read fetch; a write to a
        // Shared page is a write fetch.
        let n2 = node.clone();
        let (gr_ctx, gr_region) = (ctx, region.clone());
        trans
            .events()
            .page_not_present
            .install_guarded(
                Identity::extension("DSM"),
                move |i: &FaultInfo| i.ctx == gr_ctx && gr_region.contains(i.va),
                move |i: &FaultInfo| n2.on_fault(i),
            )
            .expect("install DSM miss handler");
        let n2 = node.clone();
        let (gr_ctx, gr_region) = (ctx, region.clone());
        trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("DSM"),
                move |i: &FaultInfo| i.ctx == gr_ctx && gr_region.contains(i.va),
                move |i: &FaultInfo| n2.on_fault(i),
            )
            .expect("install DSM write handler");
        node
    }

    fn page_index(&self, va: u64) -> u32 {
        ((va - self.region.base()) >> PAGE_SHIFT) as u32
    }

    /// Fault path (faulting strand): fetch the page from the peer,
    /// retrying through NACKs until the true owner answers.
    fn on_fault(&self, info: &FaultInfo) -> FaultAction {
        let sctx = match self.exec.current_ctx() {
            Some(c) => c,
            None => return FaultAction::Fail,
        };
        let page = self.page_index(info.va);
        let want_write = info.access == spin_sal::mmu::Access::Write;
        // Owner-side upgrade: a write fault on a page we own in the Shared
        // state does not fetch — it invalidates the peer's read copy.
        let owner_upgrade = {
            let mut st = self.state.lock();
            if want_write {
                st.stats.write_fetches += 1;
            } else {
                st.stats.read_fetches += 1;
            }
            let p = &st.pages[page as usize];
            want_write && p.owner && p.state == PageState::Shared
        };
        if owner_upgrade {
            let ack = self.ask(&self.inval_waiters, MSG_INVALIDATE, page);
            if ack.and_then(|ch| ch.recv(&sctx)).is_none() {
                return FaultAction::Fail;
            }
            let va = self.region.base() + ((page as u64) << PAGE_SHIFT);
            if self
                .trans
                .protect_page(self.ctx, va, Protection::READ_WRITE)
                .is_err()
            {
                return FaultAction::Fail;
            }
            self.state.lock().pages[page as usize].state = PageState::Exclusive;
            return FaultAction::Resolved;
        }
        for _attempt in 0..64 {
            // Another strand's fetch may have brought the page in while
            // this one waited out a NACK.
            if self.resident(page, want_write) {
                return FaultAction::Resolved;
            }
            let kind = if want_write {
                MSG_FETCH_WRITE
            } else {
                MSG_FETCH_READ
            };
            match self
                .ask(&self.waiters, kind, page)
                .and_then(|ch| ch.recv(&sctx))
            {
                Some(Some(data)) => {
                    // Install the page locally.
                    let mut st = self.state.lock();
                    let frame_region = match st.pages[page as usize].frame.clone() {
                        Some(f) => f,
                        None => match self.phys.allocate(1, PhysAttrib::default()) {
                            Ok(f) => f,
                            Err(_) => return FaultAction::Fail,
                        },
                    };
                    let frame = match frame_region.with_frames(|f| f[0]) {
                        Ok(f) => f,
                        Err(_) => return FaultAction::Fail,
                    };
                    self.mem.write(frame, 0, &data);
                    let prot = if want_write {
                        Protection::READ_WRITE
                    } else {
                        Protection::READ
                    };
                    if self
                        .trans
                        .map_page(self.ctx, self.region.vpn(page as u64), frame, prot)
                        .is_err()
                    {
                        return FaultAction::Fail;
                    }
                    let p = &mut st.pages[page as usize];
                    p.frame = Some(frame_region);
                    p.state = if want_write {
                        PageState::Exclusive
                    } else {
                        PageState::Shared
                    };
                    if want_write {
                        p.owner = true; // ownership travelled with the grant
                    }
                    return FaultAction::Resolved;
                }
                Some(None) => {
                    // NACK: the grant may still be in flight; retry.
                    sctx.sleep(500_000);
                }
                None => return FaultAction::Fail,
            }
        }
        FaultAction::Fail
    }

    /// Whether the local copy of `page` serves the access.
    fn resident(&self, page: u32, want_write: bool) -> bool {
        match self.state.lock().pages[page as usize].state {
            PageState::Exclusive => true,
            PageState::Shared => !want_write,
            PageState::Invalid => false,
        }
    }

    /// Sends the peer a `kind` message about `page` and queues the caller
    /// for its answer, behind the waiters that asked before it; `None` if
    /// the send failed.
    fn ask<T: Send>(&self, waiters: &Waiters<T>, kind: u8, page: u32) -> Option<Arc<KChannel<T>>> {
        let mut msg = BytesMut::with_capacity(5);
        msg.put_u8(kind);
        msg.put_u32(page);
        self.stack
            .udp_send(DSM_PORT, self.peer, DSM_PORT, &msg)
            .ok()?;
        let ch = KChannel::new(self.exec.clone(), 1);
        waiters
            .lock()
            .entry(page)
            .or_default()
            .push_back(ch.clone());
        Some(ch)
    }

    /// Hands `answer` to the oldest waiter on `page`, if any.
    fn answer<T: Send>(waiters: &Waiters<T>, page: u32, answer: T) {
        let oldest = waiters.lock().get_mut(&page).and_then(VecDeque::pop_front);
        if let Some(ch) = oldest {
            ch.try_push(answer);
        }
    }

    /// Protocol-thread handler for peer messages. Never blocks.
    fn on_message(&self, p: &UdpPacket) {
        if p.payload.len() < 5 {
            return;
        }
        let kind = p.payload[0];
        let page = u32::from_be_bytes(p.payload[1..5].try_into().expect("checked len"));
        match kind {
            MSG_FETCH_READ | MSG_FETCH_WRITE => {
                let want_write = kind == MSG_FETCH_WRITE;
                match self.grant(page, want_write) {
                    Some(data) => {
                        // Fragment the page image to fit any MTU.
                        for (i, chunk) in data.chunks(FRAG_BYTES).enumerate() {
                            let mut msg = BytesMut::with_capacity(7 + chunk.len());
                            msg.put_u8(MSG_DATA_FRAG);
                            msg.put_u32(page);
                            msg.put_u8(i as u8);
                            msg.put_u8(FRAGS_PER_PAGE as u8);
                            msg.extend_from_slice(chunk);
                            let _ = self.stack.udp_send(DSM_PORT, p.ip.src, DSM_PORT, &msg);
                        }
                    }
                    None => {
                        let mut msg = BytesMut::with_capacity(5);
                        msg.put_u8(MSG_NACK);
                        msg.put_u32(page);
                        self.state.lock().stats.nacks += 1;
                        let _ = self.stack.udp_send(DSM_PORT, p.ip.src, DSM_PORT, &msg);
                    }
                }
            }
            MSG_DATA_FRAG => {
                if p.payload.len() < 7 {
                    return;
                }
                let frag = p.payload[5] as usize;
                let nfrags = (p.payload[6] as usize).max(1);
                let complete = {
                    let mut re = self.reassembly.lock();
                    let slots = re.entry(page).or_insert_with(|| vec![None; nfrags]);
                    if frag < slots.len() {
                        slots[frag] = Some(p.payload[7..].to_vec());
                    }
                    if slots.iter().all(|s| s.is_some()) {
                        let mut full = Vec::with_capacity(PAGE_SIZE);
                        for s in re.remove(&page).expect("present").into_iter() {
                            full.extend_from_slice(&s.expect("checked complete"));
                        }
                        Some(full)
                    } else {
                        None
                    }
                };
                if let Some(full) = complete {
                    Self::answer(&self.waiters, page, Some(full));
                }
            }
            MSG_NACK => Self::answer(&self.waiters, page, None),
            MSG_INVALIDATE => {
                // The owner is upgrading: drop our read copy and ack.
                {
                    let mut st = self.state.lock();
                    let info = &mut st.pages[page as usize];
                    let vpn = self.region.vpn(page as u64);
                    let _ = self.trans.mmu().remove(self.ctx, vpn);
                    info.state = PageState::Invalid;
                    st.stats.invalidations += 1;
                }
                let mut msg = BytesMut::with_capacity(5);
                msg.put_u8(MSG_INVALIDATE_ACK);
                msg.put_u32(page);
                let _ = self.stack.udp_send(DSM_PORT, p.ip.src, DSM_PORT, &msg);
            }
            MSG_INVALIDATE_ACK => Self::answer(&self.inval_waiters, page, ()),
            _ => {}
        }
    }

    /// Owner-side grant: ship the page, downgrading or invalidating the
    /// local copy. Returns `None` (NACK) when this node is not the owner.
    fn grant(&self, page: u32, want_write: bool) -> Option<Vec<u8>> {
        let mut st = self.state.lock();
        let info = &mut st.pages[page as usize];
        if !info.owner || info.state == PageState::Invalid {
            return None;
        }
        let frame_region = info.frame.clone()?;
        let frame = frame_region.with_frames(|f| f[0]).ok()?;
        let mut data = vec![0u8; PAGE_SIZE];
        self.mem.read(frame, 0, &mut data);
        let vpn = self.region.vpn(page as u64);
        if want_write {
            // Exclusive transfer: drop the local copy and the ownership.
            let _ = self.trans.mmu().remove(self.ctx, vpn);
            info.state = PageState::Invalid;
            info.owner = false;
            st.stats.invalidations += 1;
        } else {
            // Read share: keep a read-only copy and the grant authority.
            let _ = self.trans.protect_page(
                self.ctx,
                self.region.base() + ((page as u64) << PAGE_SHIFT),
                Protection::READ,
            );
            info.state = PageState::Shared;
        }
        st.stats.pages_shipped += 1;
        Some(data)
    }

    /// This node's counters.
    pub fn stats(&self) -> DsmStats {
        self.state.lock().stats
    }

    /// The shared region's base virtual address.
    pub fn base(&self) -> u64 {
        self.region.base()
    }

    /// The addressing context the region lives in.
    pub fn context(&self) -> ContextId {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::Dispatcher;
    use spin_net::{AddressMap, Medium, TwoHosts};

    struct DsmRig {
        rig: TwoHosts,
        node_a: Arc<DsmNode>,
        node_b: Arc<DsmNode>,
        trans_a: TranslationService,
        trans_b: TranslationService,
        mem_a: PhysMem,
        mem_b: PhysMem,
    }

    fn dsm_rig(pages: u64) -> DsmRig {
        let rig = TwoHosts::new();
        let _ = AddressMap::new();
        let disp_a = Dispatcher::new(rig.board.clock.clone(), rig.board.profile.clone());
        let disp_b = Dispatcher::new(rig.board.clock.clone(), rig.board.profile.clone());
        let trans_a = TranslationService::new(
            rig.host_a.mmu.clone(),
            rig.board.clock.clone(),
            rig.board.profile.clone(),
            &disp_a,
        );
        let trans_b = TranslationService::new(
            rig.host_b.mmu.clone(),
            rig.board.clock.clone(),
            rig.board.profile.clone(),
            &disp_b,
        );
        let phys_a = PhysAddrService::new(rig.host_a.mem.clone(), &disp_a);
        let phys_b = PhysAddrService::new(rig.host_b.mem.clone(), &disp_b);
        let virt = spin_vm::VirtAddrService::new();
        // Both nodes agree on the shared region's virtual placement.
        let region = virt.allocate(pages).unwrap();
        let ctx_a = trans_a.create();
        let ctx_b = trans_b.create();
        let node_a = DsmNode::install(
            &rig.a,
            &rig.exec,
            &trans_a,
            &phys_a,
            &rig.host_a.mem,
            ctx_a,
            region.clone(),
            rig.b.ip_on(Medium::Ethernet),
            true, // A starts owning everything
        );
        let node_b = DsmNode::install(
            &rig.b,
            &rig.exec,
            &trans_b,
            &phys_b,
            &rig.host_b.mem,
            ctx_b,
            region,
            rig.a.ip_on(Medium::Ethernet),
            false,
        );
        let (mem_a, mem_b) = (rig.host_a.mem.clone(), rig.host_b.mem.clone());
        DsmRig {
            rig,
            node_a,
            node_b,
            trans_a,
            trans_b,
            mem_a,
            mem_b,
        }
    }

    struct ShardedDsm {
        rig: spin_net::ShardRig,
        node_a: Arc<DsmNode>,
        node_b: Arc<DsmNode>,
        trans_a: TranslationService,
        trans_b: TranslationService,
        mem_a: PhysMem,
        mem_b: PhysMem,
    }

    /// The DSM rig in multicore mode: each node is a kernel shard with
    /// its own executor and dispatcher; coherence traffic crosses the
    /// shard boundary through the wire mailboxes.
    fn sharded_dsm(pages: u64, workers: usize) -> ShardedDsm {
        let rig = spin_net::ShardRig::new(workers, 2);
        let (a, b) = (&rig.shards[0], &rig.shards[1]);
        let trans_a = TranslationService::new(
            a.host.mmu.clone(),
            a.host.clock.clone(),
            a.host.profile.clone(),
            &a.dispatcher,
        );
        let trans_b = TranslationService::new(
            b.host.mmu.clone(),
            b.host.clock.clone(),
            b.host.profile.clone(),
            &b.dispatcher,
        );
        let phys_a = PhysAddrService::new(a.host.mem.clone(), &a.dispatcher);
        let phys_b = PhysAddrService::new(b.host.mem.clone(), &b.dispatcher);
        let virt = spin_vm::VirtAddrService::new();
        let region = virt.allocate(pages).unwrap();
        let (ctx_a, ctx_b) = (trans_a.create(), trans_b.create());
        let node_a = DsmNode::install(
            &a.stack,
            &a.exec,
            &trans_a,
            &phys_a,
            &a.host.mem,
            ctx_a,
            region.clone(),
            b.stack.ip_on(spin_net::Medium::Ethernet),
            true,
        );
        let node_b = DsmNode::install(
            &b.stack,
            &b.exec,
            &trans_b,
            &phys_b,
            &b.host.mem,
            ctx_b,
            region,
            a.stack.ip_on(spin_net::Medium::Ethernet),
            false,
        );
        let (mem_a, mem_b) = (a.host.mem.clone(), b.host.mem.clone());
        ShardedDsm {
            rig,
            node_a,
            node_b,
            trans_a,
            trans_b,
            mem_a,
            mem_b,
        }
    }

    #[test]
    fn sharded_coherence_is_worker_count_invariant() {
        let run = |workers: usize| -> (Vec<u8>, DsmStats, DsmStats, u64, u64) {
            let r = sharded_dsm(2, workers);
            let (ta, ma, ca, base) = (
                r.trans_a.clone(),
                r.mem_a.clone(),
                r.node_a.context(),
                r.node_a.base(),
            );
            let (tb, mb, cb) = (r.trans_b.clone(), r.mem_b.clone(), r.node_b.context());
            let seen = Arc::new(Mutex::new(Vec::new()));
            let s2 = seen.clone();
            r.rig.shards[0].exec.spawn("writer-a", move |ctx| {
                ta.write(ca, base + 10, b"cross-shard!", &ma).unwrap();
                ctx.sleep(1_000_000);
            });
            r.rig.shards[1].exec.spawn("reader-b", move |ctx| {
                // B's write fetch migrates the page across the shard
                // boundary, invalidating A's exclusive copy.
                tb.write(cb, base + 64, b"B", &mb).unwrap();
                ctx.sleep(5_000_000);
                let mut buf = [0u8; 12];
                tb.read(cb, base + 10, &mut buf, &mb).unwrap();
                s2.lock().extend_from_slice(&buf);
            });
            let outcome = r.rig.mc.run_until_idle();
            assert_eq!(outcome, spin_sched::IdleOutcome::AllComplete);
            let seen: Vec<u8> = seen.lock().clone();
            (
                seen,
                r.node_a.stats(),
                r.node_b.stats(),
                r.rig.shards[0].host.clock.now(),
                r.rig.shards[1].host.clock.now(),
            )
        };
        let base = run(1);
        assert_eq!(&base.0[..], b"cross-shard!");
        assert!(base.2.write_fetches >= 1, "B fetched across the boundary");
        assert!(base.1.invalidations + base.1.pages_shipped >= 1);
        assert_eq!(run(2), base, "2 workers diverged");
        assert_eq!(run(4), base, "4 workers diverged");
    }

    #[test]
    fn written_data_becomes_visible_on_the_peer() {
        let r = dsm_rig(4);
        let (ta, ma, ca, base) = (
            r.trans_a.clone(),
            r.mem_a.clone(),
            r.node_a.context(),
            r.node_a.base(),
        );
        let (tb, mb, cb) = (r.trans_b.clone(), r.mem_b.clone(), r.node_b.context());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        r.rig.exec.spawn("writer-a", move |ctx| {
            ta.write(ca, base + 10, b"hello from A", &ma).unwrap();
            ctx.sleep(1_000_000);
        });
        r.rig.exec.spawn("reader-b", move |ctx| {
            ctx.sleep(5_000_000); // let A write first
            let mut buf = [0u8; 12];
            tb.read(cb, base + 10, &mut buf, &mb).unwrap();
            s2.lock().extend_from_slice(&buf);
        });
        r.rig.exec.run_until_idle();
        assert_eq!(&seen.lock()[..], b"hello from A");
        assert!(r.node_b.stats().read_fetches >= 1);
        assert!(r.node_a.stats().pages_shipped >= 1);
    }

    #[test]
    fn write_invalidation_migrates_exclusive_ownership() {
        let r = dsm_rig(2);
        let (ta, ma, ca, base) = (
            r.trans_a.clone(),
            r.mem_a.clone(),
            r.node_a.context(),
            r.node_a.base(),
        );
        let (tb, mb, cb) = (r.trans_b.clone(), r.mem_b.clone(), r.node_b.context());
        let final_at_a = Arc::new(Mutex::new(Vec::new()));
        let f2 = final_at_a.clone();
        r.rig.exec.spawn("b-takes-over", move |ctx| {
            // B writes: fetches exclusive, invalidating A's copy.
            tb.write(cb, base, b"B owns this now", &mb).unwrap();
            ctx.sleep(1_000_000);
        });
        r.rig.exec.spawn("a-reads-back", move |ctx| {
            ctx.sleep(20_000_000); // after B's takeover
                                   // A's copy was invalidated; this read fetches from B.
            let mut buf = [0u8; 15];
            ta.read(ca, base, &mut buf, &ma).unwrap();
            f2.lock().extend_from_slice(&buf);
        });
        r.rig.exec.run_until_idle();
        assert_eq!(&final_at_a.lock()[..], b"B owns this now");
        assert!(
            r.node_a.stats().invalidations >= 1,
            "A's grant invalidated its copy"
        );
        assert!(r.node_a.stats().read_fetches >= 1, "A had to fetch back");
    }

    /// Two strands on one node touch the same invalid page, both before
    /// either fetch is answered. Each gets its own answer: the readers both
    /// read the page, and of the writers, the one whose fetch was NACKed
    /// finds the page its sibling brought in. At the parent the second
    /// faulter's wait replaced the first's, which never woke:
    /// `Deadlock { blocked: ["b-1"] }`.
    #[test]
    fn two_strands_faulting_on_one_page_both_resolve() {
        for write in [false, true] {
            let r = dsm_rig(1);
            let (ta, ma, ca, base) = (
                r.trans_a.clone(),
                r.mem_a.clone(),
                r.node_a.context(),
                r.node_a.base(),
            );
            r.rig.exec.spawn("a-fills", move |_| {
                ta.write(ca, base, b"page one", &ma).unwrap();
            });
            let seen = Arc::new(Mutex::new(Vec::new()));
            for (name, at) in [("b-1", 0u64), ("b-2", 8)] {
                let (tb, mb, cb) = (r.trans_b.clone(), r.mem_b.clone(), r.node_b.context());
                let s2 = seen.clone();
                r.rig.exec.spawn(name, move |_| {
                    if write {
                        tb.write(cb, base + 16 + at, name.as_bytes(), &mb).unwrap();
                    }
                    let mut buf = [0u8; 8];
                    tb.read(cb, base, &mut buf, &mb).unwrap();
                    s2.lock().push(buf);
                });
            }
            let outcome = r.rig.exec.run_until_idle();
            assert_eq!(
                outcome,
                spin_sched::IdleOutcome::AllComplete,
                "write: {write}"
            );
            assert_eq!(*seen.lock(), [*b"page one"; 2], "write: {write}");
            let fetches = r.node_b.stats();
            let fetched = if write {
                fetches.write_fetches
            } else {
                fetches.read_fetches
            };
            assert_eq!(fetched, 2, "one fault each");
            assert_eq!(r.node_a.stats().nacks, u64::from(write));
        }
    }

    #[test]
    fn ping_pong_writes_stay_coherent() {
        let r = dsm_rig(1);
        let (ta, ma, ca, base) = (
            r.trans_a.clone(),
            r.mem_a.clone(),
            r.node_a.context(),
            r.node_a.base(),
        );
        let (tb, mb, cb) = (r.trans_b.clone(), r.mem_b.clone(), r.node_b.context());
        const ROUNDS: u64 = 6;
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        r.rig.exec.spawn("a-side", move |ctx| {
            for round in 0..ROUNDS {
                // Wait for our turn (value == 2*round).
                loop {
                    let mut b = [0u8; 8];
                    ta.read(ca, base, &mut b, &ma).unwrap();
                    if u64::from_be_bytes(b) == 2 * round {
                        break;
                    }
                    ctx.sleep(2_000_000);
                }
                ta.write(ca, base, &(2 * round + 1).to_be_bytes(), &ma)
                    .unwrap();
            }
        });
        r.rig.exec.spawn("b-side", move |ctx| {
            for round in 0..ROUNDS {
                loop {
                    let mut b = [0u8; 8];
                    tb.read(cb, base, &mut b, &mb).unwrap();
                    if u64::from_be_bytes(b) == 2 * round + 1 {
                        break;
                    }
                    ctx.sleep(2_000_000);
                }
                tb.write(cb, base, &(2 * round + 2).to_be_bytes(), &mb)
                    .unwrap();
                l2.lock().push(2 * round + 2);
            }
        });
        let outcome = r.rig.exec.run_until_idle();
        assert_eq!(outcome, spin_sched::IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), (1..=ROUNDS).map(|r| 2 * r).collect::<Vec<_>>());
        // Pages bounced back and forth.
        assert!(r.node_a.stats().write_fetches + r.node_b.stats().write_fetches >= ROUNDS);
    }
}
