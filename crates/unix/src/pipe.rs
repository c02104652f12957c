//! UNIX pipes over the kernel channel primitive.

use spin_check::sync::{AtomicUsize, Mutex, Ordering};
use spin_sched::{Executor, KChannel, StrandCtx};
use std::sync::Arc;

/// A pipe: a bounded byte stream with reference-counted ends.
pub(crate) struct Pipe {
    chunks: Arc<KChannel<Vec<u8>>>,
    readers: AtomicUsize,
    writers: AtomicUsize,
    /// Residual bytes from a partially-consumed chunk.
    residue: Mutex<Vec<u8>>,
}

impl Pipe {
    /// Creates a pipe with one reader and one writer reference.
    pub(crate) fn new(exec: Arc<Executor>) -> Arc<Pipe> {
        Arc::new(Pipe {
            chunks: KChannel::new(exec, 16),
            readers: AtomicUsize::new(1),
            writers: AtomicUsize::new(1),
            residue: Mutex::new(Vec::new()),
        })
    }

    /// Duplicates an end (dup/fork semantics).
    pub(crate) fn add_reader(&self) {
        self.readers.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — endpoint count; the pipe mutex orders the data path.
    }

    /// Duplicates the writer end.
    pub(crate) fn add_writer(&self) {
        self.writers.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — endpoint count; the pipe mutex orders the data path.
    }

    /// Drops a reader reference.
    pub(crate) fn drop_reader(&self) {
        // ordering: Relaxed — endpoint count; the wake below resolves EOF races.
        if self.readers.fetch_sub(1, Ordering::Relaxed) == 1 {
            // Writers will see EPIPE via closed channel on next send.
            self.chunks.close();
        }
    }

    /// Drops a writer reference; the last one signals EOF to readers.
    pub(crate) fn drop_writer(&self) {
        // ordering: Relaxed — endpoint count; the wake below resolves EPIPE races.
        if self.writers.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.chunks.close();
        }
    }

    /// Writes `data` (blocking when full). Returns bytes written, or
    /// `None` on a broken pipe.
    pub(crate) fn write(&self, ctx: &StrandCtx, data: &[u8]) -> Option<usize> {
        // ordering: Relaxed — EOF probe; the condvar recheck under the mutex decides.
        if self.readers.load(Ordering::Relaxed) == 0 {
            return None; // EPIPE
        }
        if data.is_empty() {
            return Some(0);
        }
        if self.chunks.send(ctx, data.to_vec()) {
            Some(data.len())
        } else {
            None
        }
    }

    /// Reads up to `max` bytes (blocking while empty). `Some(empty)` is
    /// EOF (all writers gone).
    pub(crate) fn read(&self, ctx: &StrandCtx, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut res = self.residue.lock();
            if !res.is_empty() {
                let n = max.min(res.len());
                out.extend(res.drain(..n));
                return out;
            }
        }
        match self.chunks.recv(ctx) {
            Some(mut chunk) => {
                if chunk.len() > max {
                    let rest = chunk.split_off(max);
                    *self.residue.lock() = rest;
                }
                chunk
            }
            None => Vec::new(), // EOF
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::Mutex;
    use spin_sal::SimBoard;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::on(board.clock.clone(), board.timers.clone())
    }

    #[test]
    fn bytes_flow_in_order_and_eof_arrives() {
        let e = exec();
        let pipe = Pipe::new(e.clone());
        let p2 = pipe.clone();
        e.spawn("writer", move |ctx| {
            p2.write(ctx, b"hello ").unwrap();
            p2.write(ctx, b"pipe").unwrap();
            p2.drop_writer();
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        let (p3, g2) = (pipe.clone(), got.clone());
        e.spawn("reader", move |ctx| loop {
            let chunk = p3.read(ctx, 4);
            if chunk.is_empty() {
                break;
            }
            g2.lock().extend_from_slice(&chunk);
        });
        e.run_until_idle();
        assert_eq!(&got.lock()[..], b"hello pipe");
    }

    #[test]
    fn short_reads_leave_residue() {
        let e = exec();
        let pipe = Pipe::new(e.clone());
        let p2 = pipe.clone();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        e.spawn("both", move |ctx| {
            p2.write(ctx, b"abcdef").unwrap();
            g2.lock().push(p2.read(ctx, 2));
            g2.lock().push(p2.read(ctx, 3));
            g2.lock().push(p2.read(ctx, 10));
        });
        e.run_until_idle();
        let g = got.lock();
        assert_eq!(g[0], b"ab");
        assert_eq!(g[1], b"cde");
        assert_eq!(g[2], b"f");
    }

    #[test]
    fn writing_to_a_readerless_pipe_is_epipe() {
        let e = exec();
        let pipe = Pipe::new(e.clone());
        pipe.drop_reader();
        let p2 = pipe.clone();
        let result = Arc::new(Mutex::new(Some(0usize)));
        let r2 = result.clone();
        e.spawn("writer", move |ctx| {
            *r2.lock() = p2.write(ctx, b"x");
        });
        e.run_until_idle();
        assert_eq!(*result.lock(), None);
    }
}
