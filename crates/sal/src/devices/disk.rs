//! The simulated disk: "read block 22 from SCSI unit 0" (§5.1).
//!
//! Models the paper's HP C2247-300 1 GB drive with a seek + rotation +
//! transfer latency model. Requests are asynchronous: completion runs from a
//! timer callback which hands the data to the submitted continuation and
//! posts the disk's interrupt vector. Blocking reads are layered on top by
//! the file system using strands.
//!
//! Only written blocks hold bytes. The drive's size, `DISK_BLOCKS`,
//! bounds the block numbers a request may name; it allocates nothing
//! (DESIGN.md decision #25).

use crate::clock::{Clock, Nanos, TimerQueue};
use crate::cost::Cost;
use crate::irq::{IrqController, IrqVector};
use spin_check::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Disk block size (one 8 KB page, so paging I/O is one block per page).
pub const BLOCK_SIZE: usize = crate::PAGE_SIZE;

/// Index of a disk block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// The drive's size in blocks: 1 GB in 8 KB blocks, like the HP
/// C2247-300.
pub(crate) const DISK_BLOCKS: u64 = 131_072;

/// A queued I/O request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskRequest {
    Read(BlockId),
    Write(BlockId, Vec<u8>),
}

type Completion = Box<dyn FnOnce(Result<Vec<u8>, DiskError>) + Send>;

/// Errors reported at completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The block number is beyond the end of the drive.
    OutOfRange(BlockId),
    /// A write buffer was not exactly one block.
    BadLength(usize),
}

struct DiskState {
    blocks: BTreeMap<u64, Box<[u8]>>, // absent = still zero (never written)
    head: u64,
}

/// The simulated disk.
#[derive(Clone)]
pub struct Disk {
    state: Arc<Mutex<DiskState>>,
    clock: Clock,
    timers: TimerQueue,
    irqs: IrqController,
    vector: IrqVector,
}

impl Disk {
    /// Creates a zero-filled disk that posts completions on `vector`.
    pub(crate) fn new(
        clock: Clock,
        timers: TimerQueue,
        irqs: IrqController,
        vector: IrqVector,
    ) -> Self {
        Disk {
            state: Arc::new(Mutex::new(DiskState {
                blocks: BTreeMap::new(),
                head: 0,
            })),
            clock,
            timers,
            irqs,
            vector,
        }
    }

    /// Latency model: sequential access pays only transfer; anything else
    /// pays an average seek plus half a rotation.
    fn latency(&self, head: u64, target: u64) -> Nanos {
        let transfer = Cost::DiskBlockTransfer.ns();
        if target == head || target == head + 1 {
            transfer
        } else {
            Cost::DiskSeek.ns() + Cost::DiskRotation.ns() / 2 + transfer
        }
    }

    /// Submits a request; `done` runs (from a timer) when the media
    /// operation completes, after which the interrupt vector is posted.
    ///
    /// Reads complete with the block contents; writes complete with an
    /// empty buffer.
    pub fn submit(
        &self,
        req: DiskRequest,
        done: impl FnOnce(Result<Vec<u8>, DiskError>) + Send + 'static,
    ) {
        let done: Completion = Box::new(done);
        let block = match &req {
            DiskRequest::Read(b) | DiskRequest::Write(b, _) => *b,
        };
        // The only bound: the sparse table would take any block number.
        if block.0 >= DISK_BLOCKS {
            done(Err(DiskError::OutOfRange(block)));
            return;
        }
        if let DiskRequest::Write(_, buf) = &req {
            if buf.len() != BLOCK_SIZE {
                done(Err(DiskError::BadLength(buf.len())));
                return;
            }
        }
        let latency = {
            let mut st = self.state.lock();
            let l = self.latency(st.head, block.0);
            st.head = block.0;
            l
        };
        let state = self.state.clone();
        let irqs = self.irqs.clone();
        let vector = self.vector;
        let when = self.clock.now() + latency;
        self.timers.schedule_at(when, move |_| {
            let result = {
                let mut st = state.lock();
                match req {
                    DiskRequest::Read(b) => Ok(match st.blocks.get(&b.0) {
                        Some(d) => d.to_vec(),
                        None => vec![0u8; BLOCK_SIZE],
                    }),
                    DiskRequest::Write(b, buf) => {
                        st.blocks.insert(b.0, buf.into_boxed_slice());
                        Ok(Vec::new())
                    }
                }
            };
            done(result);
            irqs.post(vector);
        });
    }

    /// How many blocks hold bytes of their own.
    #[cfg(test)]
    pub(crate) fn resident_blocks(&self) -> usize {
        self.state.lock().blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rig() -> (Disk, Clock, TimerQueue, IrqController) {
        let clock = Clock::new();
        let timers = TimerQueue::new();
        let irqs = IrqController::new(clock.clone());
        let disk = Disk::new(clock.clone(), timers.clone(), irqs.clone(), IrqVector(3));
        (disk, clock, timers, irqs)
    }

    /// Submits `req`, runs the clock past its completion and returns what
    /// the completion was handed.
    fn complete(
        disk: &Disk,
        clock: &Clock,
        timers: &TimerQueue,
        req: DiskRequest,
    ) -> Result<Vec<u8>, DiskError> {
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        disk.submit(req, move |r| *g2.lock() = Some(r));
        clock.skip_to(clock.now() + 60_000_000);
        timers.fire_due(clock.now());
        let result = got.lock().take();
        result.expect("the request completed")
    }

    #[test]
    fn write_then_read_round_trips() {
        let (disk, clock, timers, _irqs) = rig();
        let mut data = vec![0u8; BLOCK_SIZE];
        data[0] = 0xAB;
        let write = DiskRequest::Write(BlockId(5), data);
        assert_eq!(complete(&disk, &clock, &timers, write), Ok(Vec::new()));
        let read = complete(&disk, &clock, &timers, DiskRequest::Read(BlockId(5)));
        assert_eq!(read.unwrap()[0], 0xAB);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let (disk, clock, timers, _) = rig();
        let read = complete(&disk, &clock, &timers, DiskRequest::Read(BlockId(0))).unwrap();
        assert_eq!(read, vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn out_of_range_fails_immediately() {
        let (disk, _, _, _) = rig();
        let err = Arc::new(Mutex::new(None));
        let e2 = err.clone();
        let past = BlockId(DISK_BLOCKS + 999);
        disk.submit(DiskRequest::Read(past), move |r| {
            *e2.lock() = Some(r.unwrap_err());
        });
        assert_eq!(*err.lock(), Some(DiskError::OutOfRange(past)));
    }

    /// The last block of the 1 GB drive is as real as the first.
    #[test]
    fn the_last_block_of_a_default_drive_round_trips() {
        let (disk, clock, timers, _) = rig();
        let last = BlockId(DISK_BLOCKS - 1);
        let data = vec![0x5Au8; BLOCK_SIZE];
        let write = DiskRequest::Write(last, data.clone());
        assert_eq!(complete(&disk, &clock, &timers, write), Ok(Vec::new()));
        let read = complete(&disk, &clock, &timers, DiskRequest::Read(last));
        assert_eq!(read, Ok(data));
    }

    /// A sparse table would take any block number: the size check is
    /// what refuses the block one past the end of the drive.
    #[test]
    fn the_block_past_a_default_drive_is_out_of_range() {
        let (disk, clock, timers, _) = rig();
        let past = BlockId(DISK_BLOCKS);
        let write = DiskRequest::Write(past, vec![1; BLOCK_SIZE]);
        for req in [DiskRequest::Read(past), write] {
            let got = complete(&disk, &clock, &timers, req);
            assert_eq!(got, Err(DiskError::OutOfRange(past)));
        }
    }

    #[test]
    fn a_fresh_drive_holds_no_block() {
        let (disk, _, _, _) = rig();
        assert_eq!(disk.resident_blocks(), 0);
    }

    #[test]
    fn a_read_does_not_allocate_the_block_it_reads() {
        let (disk, clock, timers, _) = rig();
        complete(&disk, &clock, &timers, DiskRequest::Read(BlockId(3))).unwrap();
        assert_eq!(disk.resident_blocks(), 0);
    }

    #[test]
    fn sequential_access_is_cheaper_than_random() {
        let (disk, _, _, _) = rig();
        let seq = disk.latency(4, 5);
        let rand = disk.latency(4, 12);
        assert!(seq < rand);
    }

    #[test]
    fn completion_posts_interrupt() {
        let (disk, clock, timers, irqs) = rig();
        disk.submit(DiskRequest::Read(BlockId(1)), |_| {});
        clock.skip_to(60_000_000);
        timers.fire_due(clock.now());
        assert!(irqs.has_pending());
    }

    #[test]
    fn bad_write_length_rejected() {
        let (disk, _, _, _) = rig();
        let err = Arc::new(Mutex::new(None));
        let e2 = err.clone();
        disk.submit(DiskRequest::Write(BlockId(0), vec![1, 2, 3]), move |r| {
            *e2.lock() = Some(r.unwrap_err());
        });
        assert_eq!(*err.lock(), Some(DiskError::BadLength(3)));
    }

    /// The blocks the requests name: the drive's first ten, its last
    /// five and five past its end.
    fn probed(i: u64) -> BlockId {
        BlockId(if i < 10 { i } else { DISK_BLOCKS - 15 + i })
    }

    /// Where a probed block sits in the dense model, or `None` past the
    /// drive's end.
    fn dense_index(b: BlockId) -> Option<usize> {
        match b.0 {
            n if n < 10 => Some(n as usize),
            n if n < DISK_BLOCKS => Some((n + 15 - DISK_BLOCKS) as usize),
            _ => None,
        }
    }

    fn request() -> impl Strategy<Value = DiskRequest> {
        let block = || (0..20u64).prop_map(probed);
        let len = prop_oneof![Just(BLOCK_SIZE), Just(BLOCK_SIZE), 0..BLOCK_SIZE + 2];
        prop_oneof![
            block().prop_map(DiskRequest::Read),
            (block(), any::<u8>(), len).prop_map(|(b, fill, len)| {
                let data = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                DiskRequest::Write(b, data)
            }),
        ]
    }

    /// What a dense drive of the fifteen probed blocks inside the drive,
    /// zero-filled, answers.
    fn dense_answer(dense: &mut [Vec<u8>], req: DiskRequest) -> Result<Vec<u8>, DiskError> {
        match req {
            DiskRequest::Read(b) => dense_index(b)
                .map(|i| dense[i].clone())
                .ok_or(DiskError::OutOfRange(b)),
            DiskRequest::Write(b, buf) => {
                let block = &mut dense[dense_index(b).ok_or(DiskError::OutOfRange(b))?];
                if buf.len() != BLOCK_SIZE {
                    return Err(DiskError::BadLength(buf.len()));
                }
                *block = buf;
                Ok(Vec::new())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Against a dense `Vec` of blocks: every completion is equal —
        /// data, error and which error — and exactly the blocks a write
        /// reached hold bytes.
        #[test]
        fn a_sparse_drive_answers_as_a_dense_one(reqs in proptest::collection::vec(request(), 0..24)) {
            let (disk, clock, timers, _) = rig();
            let mut dense = vec![vec![0u8; BLOCK_SIZE]; 15];
            let mut written = std::collections::BTreeSet::new();
            for req in reqs {
                let want = dense_answer(&mut dense, req.clone());
                if let (DiskRequest::Write(b, _), Ok(_)) = (&req, &want) {
                    written.insert(b.0);
                }
                prop_assert_eq!(complete(&disk, &clock, &timers, req), want);
                prop_assert_eq!(disk.resident_blocks(), written.len());
            }
        }
    }
}
