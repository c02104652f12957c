//! Simulated physical memory: an array of page frames.
//!
//! The paper's machines had 64 MB of memory in 8 KB pages. [`PhysMem`] holds
//! the frames' bytes; allocation policy (free lists, colors, contiguity) is
//! the business of the `PhysAddr` service in `spin-vm`, exactly as the paper
//! separates the physical-address *service* from the raw storage.
//!
//! A frame's bytes exist only once something is written to it: an untouched
//! or zeroed frame is a `None` that reads as zeros, so a host's memory size
//! is a bound, not an allocation (DESIGN.md decision #25).

use crate::PAGE_SIZE;
use spin_check::sync::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Index of a physical page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// A resident frame's bytes; `None` in a slot means all zeros.
type Page = Box<[u8; PAGE_SIZE]>;

/// A zero-filled resident page, built on the heap rather than the stack.
fn zeroed_page() -> Page {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("a vec of PAGE_SIZE bytes")
}

/// The bytes `offset..offset + len` of a frame.
///
/// # Panics
///
/// Panics if they do not fit in one page — resident or not.
fn span(offset: usize, len: usize) -> Range<usize> {
    let end = offset.saturating_add(len);
    assert!(end <= PAGE_SIZE, "frame bytes {offset}..{end} out of range");
    offset..end
}

/// The machine's physical page frames.
///
/// Cloning shares the underlying storage.
#[derive(Clone)]
pub struct PhysMem {
    frames: Arc<[Mutex<Option<Page>>]>,
}

impl PhysMem {
    /// Creates `frames` zeroed page frames. None of them holds bytes yet.
    pub fn new(frames: usize) -> Self {
        PhysMem {
            frames: (0..frames).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of frames in the machine.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Reads bytes from a frame into `buf`, starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not exist or the range exceeds the page —
    /// those are simulator bugs, not guest errors (the MMU rejects guest
    /// addresses before they get here).
    pub fn read(&self, frame: FrameId, offset: usize, buf: &mut [u8]) {
        let bytes = span(offset, buf.len());
        match &*self.frames[frame.0 as usize].lock() {
            Some(page) => buf.copy_from_slice(&page[bytes]),
            None => buf.fill(0),
        }
    }

    /// Writes `buf` into a frame starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PhysMem::read`].
    pub fn write(&self, frame: FrameId, offset: usize, buf: &[u8]) {
        let bytes = span(offset, buf.len());
        let mut f = self.frames[frame.0 as usize].lock();
        f.get_or_insert_with(zeroed_page)[bytes].copy_from_slice(buf);
    }

    /// Zeroes an entire frame, releasing its bytes.
    pub fn zero(&self, frame: FrameId) {
        *self.frames[frame.0 as usize].lock() = None;
    }

    /// Copies one whole frame to another (used by copy-on-write faults).
    /// Copying an untouched frame leaves the destination untouched.
    pub fn copy_frame(&self, from: FrameId, to: FrameId) {
        assert_ne!(from, to, "copy_frame onto itself");
        let src = self.frames[from.0 as usize].lock();
        let mut dst = self.frames[to.0 as usize].lock();
        *dst = src.as_deref().map(|s| {
            let mut page = dst.take().unwrap_or_else(zeroed_page);
            page.copy_from_slice(s);
            page
        });
    }

    /// How many frames hold bytes of their own.
    #[cfg(test)]
    pub(crate) fn resident_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.lock().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_start_zeroed_and_round_trip() {
        let m = PhysMem::new(4);
        assert_eq!(m.frame_count(), 4);
        let mut buf = [0xffu8; 8];
        m.read(FrameId(2), 100, &mut buf);
        assert_eq!(buf, [0; 8]);
        m.write(FrameId(2), 100, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.read(FrameId(2), 100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn frames_are_independent() {
        let m = PhysMem::new(2);
        m.write(FrameId(0), 0, &[42]);
        let mut buf = [0u8; 1];
        m.read(FrameId(1), 0, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn copy_and_zero_frame() {
        let m = PhysMem::new(2);
        m.write(FrameId(0), 10, &[9, 9]);
        m.copy_frame(FrameId(0), FrameId(1));
        let mut buf = [0u8; 2];
        m.read(FrameId(1), 10, &mut buf);
        assert_eq!(buf, [9, 9]);
        m.zero(FrameId(1));
        m.read(FrameId(1), 10, &mut buf);
        assert_eq!(buf, [0, 0]);
    }

    /// An untouched frame reads as zeros, but only inside the page: the
    /// documented bound holds whether or not the frame has bytes.
    #[test]
    #[should_panic(expected = "out of range")]
    fn a_read_past_the_page_end_panics_on_an_untouched_frame() {
        let m = PhysMem::new(1);
        m.read(FrameId(0), PAGE_SIZE - 4, &mut [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_write_past_the_page_end_panics_on_an_untouched_frame() {
        let m = PhysMem::new(1);
        m.write(FrameId(0), PAGE_SIZE - 4, &[1u8; 8]);
    }

    #[test]
    #[should_panic(expected = "copy_frame onto itself")]
    fn copy_frame_onto_itself_asserts() {
        let m = PhysMem::new(1);
        m.copy_frame(FrameId(0), FrameId(0));
    }

    #[test]
    fn a_fresh_memory_holds_no_page_bytes() {
        assert_eq!(PhysMem::new(256).resident_frames(), 0);
    }

    #[test]
    fn a_read_does_not_allocate_the_frame_it_reads() {
        let m = PhysMem::new(2);
        m.read(FrameId(1), 0, &mut [0u8; PAGE_SIZE]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn zero_frees_the_frames_bytes() {
        let m = PhysMem::new(2);
        m.write(FrameId(0), 7, &[1]);
        assert_eq!(m.resident_frames(), 1);
        m.zero(FrameId(0));
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn copying_an_untouched_frame_frees_the_destinations_bytes() {
        let m = PhysMem::new(2);
        m.write(FrameId(1), 0, &[5]);
        m.copy_frame(FrameId(0), FrameId(1));
        assert_eq!(m.resident_frames(), 0);
        let mut buf = [9u8; 1];
        m.read(FrameId(1), 0, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write(u32, usize, Vec<u8>),
        Read(u32, usize, usize),
        Zero(u32),
        Copy(u32, u32),
    }

    const FRAMES: u32 = 4;

    /// Offsets crowd both ends of the page, where the bounds are.
    fn offset() -> impl Strategy<Value = usize> {
        prop_oneof![0..64usize, 0..PAGE_SIZE, PAGE_SIZE - 64..PAGE_SIZE]
    }

    fn op() -> impl Strategy<Value = Op> {
        let f = || 0..FRAMES;
        let data = proptest::collection::vec(any::<u8>(), 0..48);
        prop_oneof![
            (f(), offset(), data).prop_map(|(f, o, d)| Op::Write(f, o.min(PAGE_SIZE - d.len()), d)),
            (f(), offset(), 0..48usize).prop_map(|(f, o, n)| Op::Read(f, o.min(PAGE_SIZE - n), n)),
            f().prop_map(Op::Zero),
            (f(), f()).prop_map(|(a, b)| Op::Copy(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Against a dense `Vec` of zero-filled pages: every read is byte
        /// equal, at every step and over every whole frame at the end. A
        /// frame holds bytes exactly when it was written since it was last
        /// zeroed or overwritten by a copy of an untouched frame.
        #[test]
        fn lazy_frames_read_as_a_dense_array(ops in proptest::collection::vec(op(), 0..40)) {
            let m = PhysMem::new(FRAMES as usize);
            let mut dense = vec![vec![0u8; PAGE_SIZE]; FRAMES as usize];
            let mut written = [false; FRAMES as usize];
            for op in ops {
                match op {
                    Op::Write(f, o, data) => {
                        m.write(FrameId(f), o, &data);
                        dense[f as usize][o..o + data.len()].copy_from_slice(&data);
                        written[f as usize] = true;
                    }
                    Op::Read(f, o, len) => {
                        let mut buf = vec![0xA5u8; len];
                        m.read(FrameId(f), o, &mut buf);
                        prop_assert_eq!(&buf[..], &dense[f as usize][o..o + len]);
                    }
                    Op::Zero(f) => {
                        m.zero(FrameId(f));
                        dense[f as usize].fill(0);
                        written[f as usize] = false;
                    }
                    Op::Copy(from, to) if from != to => {
                        m.copy_frame(FrameId(from), FrameId(to));
                        dense[to as usize] = dense[from as usize].clone();
                        written[to as usize] = written[from as usize];
                    }
                    Op::Copy(..) => {}
                }
                prop_assert_eq!(m.resident_frames(), written.iter().filter(|&&w| w).count());
            }
            for (f, want) in dense.iter().enumerate() {
                let mut page = vec![0xA5u8; PAGE_SIZE];
                m.read(FrameId(f as u32), 0, &mut page);
                prop_assert_eq!(&page, want);
            }
        }
    }
}
