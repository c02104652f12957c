//! Buffer chains for the protocol graph: headers in front of a shared
//! payload, flattened once.
//!
//! A [`BufChain`] is what one layer hands the next on the way down: the
//! payload as a reference-counted [`Bytes`], and the header bytes the
//! layers above have put in front of it. Like an mbuf's leading space or an
//! skbuff's headroom, the headers live *inline* in the chain — room for a
//! link, an IP and a transport header — so building, cloning and
//! prepending allocate nothing and never touch the payload. The chain is
//! flattened into one contiguous buffer once, at the device boundary,
//! where the NIC needs a single frame: that is the one copy the payload
//! pays on its way out, however many layers it crossed.
//!
//! Anything that does not fit that shape — a header larger than the room
//! left, a segment appended behind the payload — spills to the heap and
//! stays correct; none of the stack's own paths do.

use bytes::{Bytes, BytesMut};

/// Inline room for header bytes: link (14) + IPv4 (20) + TCP (20).
const HEADROOM: usize = 54;

/// Header bytes in front of a shared payload, cheap to clone and to extend
/// at either end.
#[derive(Debug, Clone)]
pub struct BufChain {
    /// Header bytes, filled from the back: `room[start..]` is live.
    room: [u8; HEADROOM],
    start: u8,
    /// The payload: the first segment the chain was given.
    body: Bytes,
    /// Segments outside the inline shape (`None` on the stack's paths).
    spill: Option<Box<Spill>>,
    len: usize,
}

#[derive(Debug, Clone, Default)]
struct Spill {
    /// Segments in front of the inline headers, last prepended last (so a
    /// prepend is a push and shifts nothing).
    front: Vec<Bytes>,
    /// Segments behind the payload, in order.
    back: Vec<Bytes>,
}

impl Default for BufChain {
    fn default() -> Self {
        BufChain {
            room: [0; HEADROOM],
            start: HEADROOM as u8,
            body: Bytes::new(),
            spill: None,
            len: 0,
        }
    }
}

impl BufChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain holding one segment.
    pub fn from_bytes(b: Bytes) -> Self {
        BufChain {
            len: b.len(),
            body: b,
            ..Self::default()
        }
    }

    /// Whether `n` more header bytes fit the inline room — they do not
    /// once a spilled segment sits in front of it.
    fn has_room(&self, n: usize) -> bool {
        n <= self.start as usize && self.spill.as_ref().is_none_or(|s| s.front.is_empty())
    }

    fn write_header(&mut self, header: &[u8]) {
        let end = self.start as usize;
        self.room[end - header.len()..end].copy_from_slice(header);
        self.start -= header.len() as u8;
    }

    /// Prepends raw header bytes before the current contents: a copy into
    /// the inline room, no allocation (a header beyond the room spills to
    /// a segment of its own).
    pub fn push_header(&mut self, header: &[u8]) {
        self.len += header.len();
        if self.has_room(header.len()) {
            self.write_header(header);
        } else {
            let spill = self.spill.get_or_insert_default();
            spill.front.push(Bytes::copy_from_slice(header));
        }
    }

    /// Prepends a segment (a header) before the current contents. The
    /// first bytes a chain is given, at either end, are its payload.
    pub fn prepend(&mut self, b: Bytes) {
        let first = self.is_empty();
        self.len += b.len();
        if first {
            self.body = b;
        } else if self.has_room(b.len()) {
            self.write_header(&b);
        } else {
            self.spill.get_or_insert_default().front.push(b);
        }
    }

    /// Appends a segment (payload or trailer) after the current contents.
    pub fn append(&mut self, b: Bytes) {
        let first = self.is_empty();
        self.len += b.len();
        if first {
            self.body = b;
        } else {
            self.spill.get_or_insert_default().back.push(b);
        }
    }

    /// Total byte length across headers and segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chain holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the chain's bytes, in order, into `out` — the flatten, for a
    /// caller assembling a frame behind headers of its own.
    ///
    /// # Panics
    /// If `out` is not exactly [`BufChain::len`] bytes long.
    pub fn copy_to_slice(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.len,
            "flatten into a buffer of the chain's length"
        );
        let (front, back) = match &self.spill {
            Some(spill) => (&spill.front[..], &spill.back[..]),
            None => (&[][..], &[][..]),
        };
        let mut rest = out;
        let mut put = |piece: &[u8]| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(piece.len());
            head.copy_from_slice(piece);
            rest = tail;
        };
        front.iter().rev().for_each(|s| put(s));
        put(&self.room[self.start as usize..]);
        put(&self.body);
        back.iter().for_each(|s| put(s));
    }

    /// Flattens the chain into one contiguous buffer. A chain that is one
    /// segment is returned as that segment (no copy); anything more is one
    /// new buffer and one copy — the device-boundary copy.
    pub fn to_bytes(&self) -> Bytes {
        if self.len == self.body.len() {
            return self.body.clone();
        }
        let mut flat = BytesMut::zeroed(self.len);
        self.copy_to_slice(&mut flat);
        flat.freeze()
    }
}

impl From<Bytes> for BufChain {
    fn from(b: Bytes) -> Self {
        BufChain::from_bytes(b)
    }
}

impl From<Vec<u8>> for BufChain {
    fn from(v: Vec<u8>) -> Self {
        BufChain::from_bytes(Bytes::from(v))
    }
}

impl From<&'static [u8]> for BufChain {
    fn from(s: &'static [u8]) -> Self {
        BufChain::from_bytes(Bytes::from_static(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn prepend_append_flatten_in_order() {
        let mut c = BufChain::from_bytes(Bytes::from_static(b"payload"));
        c.prepend(Bytes::from_static(b"ip|"));
        c.push_header(b"eth|");
        c.append(Bytes::from_static(b"|crc"));
        assert_eq!(c.len(), 18);
        assert_eq!(&c.to_bytes()[..], b"eth|ip|payload|crc");
        let mut flat = [0u8; 18];
        c.copy_to_slice(&mut flat);
        assert_eq!(&flat, b"eth|ip|payload|crc");
    }

    #[test]
    fn single_segment_flatten_is_no_copy() {
        let b = Bytes::from_static(b"solo");
        let c = BufChain::from_bytes(b.clone());
        let flat = c.to_bytes();
        // Bytes from the same static slice share the pointer.
        assert_eq!(flat.as_ptr(), b.as_ptr());
    }

    #[test]
    fn empty_chain() {
        let c = BufChain::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.to_bytes().len(), 0);
    }

    #[test]
    fn the_stacks_own_shape_stays_inline() {
        // Transport, IP and link headers in front of a payload: no spill,
        // and a clone shares the payload.
        let payload = Bytes::from(vec![7u8; 256]);
        let mut c = BufChain::from_bytes(payload.clone());
        c.push_header(&[3; 20]);
        c.push_header(&[2; 20]);
        c.prepend(Bytes::from(vec![1; 14]));
        assert!(c.spill.is_none());
        assert_eq!(c.start, 0);
        assert_eq!(c.clone().body.as_ptr(), payload.as_ptr());
        // One byte more than the room holds spills, in order.
        c.push_header(b"!");
        assert_eq!(c.spill.as_ref().map(|s| s.front.len()), Some(1));
        let flat = c.to_bytes();
        assert_eq!(flat.len(), 1 + 54 + 256);
        assert_eq!(
            &flat[..16],
            b"!\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x02"
        );
    }

    #[derive(Debug, Clone)]
    enum Op {
        Prepend(Vec<u8>),
        Header(Vec<u8>),
        Append(Vec<u8>),
        Clone,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Sizes straddle the inline room: several small headers fit, one
        // 60-byte header never does.
        let seg = || proptest::collection::vec(any::<u8>(), 0..60);
        prop_oneof![
            seg().prop_map(Op::Prepend),
            seg().prop_map(Op::Header),
            seg().prop_map(Op::Append),
            Just(Op::Clone),
        ]
    }

    proptest! {
        /// Against a list-of-segments model — the retired representation —
        /// over up to 8 segments, inline and spilled: same `len`, same
        /// `to_bytes`, same `copy_to_slice`; a chain of one segment
        /// flattens to that segment's own storage, and a clone shares
        /// the payload's.
        #[test]
        fn chain_matches_a_segment_list(ops in proptest::collection::vec(op(), 0..9)) {
            let mut chain = BufChain::new();
            let mut model: VecDeque<Bytes> = VecDeque::new();
            for op in ops {
                match op {
                    Op::Prepend(v) => {
                        let b = Bytes::from(v);
                        chain.prepend(b.clone());
                        model.push_front(b);
                    }
                    Op::Header(v) => {
                        chain.push_header(&v);
                        model.push_front(Bytes::from(v));
                    }
                    Op::Append(v) => {
                        let b = Bytes::from(v);
                        chain.append(b.clone());
                        model.push_back(b);
                    }
                    Op::Clone => {
                        let twin = chain.clone();
                        prop_assert_eq!(twin.body.as_ptr(), chain.body.as_ptr());
                        chain = twin;
                    }
                }
                let want: Vec<u8> = model.iter().flat_map(|s| s.iter().copied()).collect();
                prop_assert_eq!(chain.len(), want.len());
                prop_assert_eq!(chain.is_empty(), want.is_empty());
                prop_assert_eq!(&chain.to_bytes()[..], &want[..]);
                let mut flat = vec![0u8; want.len()];
                chain.copy_to_slice(&mut flat);
                prop_assert_eq!(&flat, &want);
                let alone = model.len() == 1 && chain.start as usize == HEADROOM;
                if alone && !model[0].is_empty() {
                    prop_assert_eq!(chain.to_bytes().as_ptr(), model[0].as_ptr());
                }
            }
        }
    }
}
