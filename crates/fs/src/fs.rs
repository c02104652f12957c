//! A simple extent-based file system over the simulated disk.
//!
//! The paper's `core` component includes "a disk-based and network-based
//! file system" (§5.1); the video server reads frames from it and the web
//! server serves files out of it. This implementation keeps the on-disk
//! layout minimal — a root-rooted directory tree of inodes, each holding
//! an extent list — and goes through the [`BufferCache`] for all data I/O,
//! so the cache policy experiments (§5.4) apply to file reads.
//!
//! Simplification vs. a production FS (documented in DESIGN.md): metadata
//! (inodes, directories, the allocation bitmap) lives in mount-state
//! memory rather than on disk; only file *data* occupies disk blocks. The
//! experiments exercise the data path, which is fully disk-backed.

use crate::buffer::BufferCache;
use spin_check::sync::Mutex;
use spin_sal::{BlockId, BLOCK_SIZE};
use spin_sched::StrandCtx;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Errors from file-system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    NotFound { path: String },
    AlreadyExists { path: String },
    NotADirectory { path: String },
    IsADirectory { path: String },
    NoSpace,
    BadOffset { offset: u64, size: u64 },
}

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Ino(u64);

enum Node {
    File { blocks: Vec<BlockId>, size: u64 },
    Dir { entries: BTreeMap<String, Ino> },
}

struct FsState {
    nodes: HashMap<Ino, Node>,
    next_ino: u64,
    free_blocks: Vec<BlockId>,
}

/// The mounted file system.
#[derive(Clone)]
pub struct FileSystem {
    cache: BufferCache,
    state: Arc<Mutex<FsState>>,
}

const ROOT: Ino = Ino(0);

impl FileSystem {
    /// Formats and mounts a file system over `cache`, managing blocks
    /// `first_block..first_block + blocks`.
    pub fn format(cache: BufferCache, first_block: u64, blocks: u64) -> FileSystem {
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT,
            Node::Dir {
                entries: BTreeMap::new(),
            },
        );
        FileSystem {
            cache,
            state: Arc::new(Mutex::new(FsState {
                nodes,
                next_ino: 1,
                free_blocks: (first_block..first_block + blocks)
                    .map(BlockId)
                    .rev()
                    .collect(),
            })),
        }
    }

    fn resolve(&self, path: &str) -> Result<Ino, FsError> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let st = self.state.lock();
            match st.nodes.get(&cur) {
                Some(Node::Dir { entries }) => {
                    cur = *entries.get(comp).ok_or_else(|| FsError::NotFound {
                        path: path.to_string(),
                    })?;
                }
                _ => {
                    return Err(FsError::NotADirectory {
                        path: path.to_string(),
                    })
                }
            }
        }
        Ok(cur)
    }

    fn split_parent(path: &str) -> (String, String) {
        let trimmed = path.trim_matches('/');
        match trimmed.rfind('/') {
            Some(i) => (trimmed[..i].to_string(), trimmed[i + 1..].to_string()),
            None => (String::new(), trimmed.to_string()),
        }
    }

    /// Creates a directory.
    pub fn mkdir(&self, path: &str) -> Result<(), FsError> {
        let (parent, name) = Self::split_parent(path);
        let pino = self.resolve(&parent)?;
        let mut st = self.state.lock();
        let ino = Ino(st.next_ino);
        st.next_ino += 1;
        match st.nodes.get_mut(&pino) {
            Some(Node::Dir { entries }) => {
                if entries.contains_key(&name) {
                    return Err(FsError::AlreadyExists {
                        path: path.to_string(),
                    });
                }
                entries.insert(name, ino);
            }
            _ => return Err(FsError::NotADirectory { path: parent }),
        }
        st.nodes.insert(
            ino,
            Node::Dir {
                entries: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Creates an empty file.
    pub fn create(&self, path: &str) -> Result<(), FsError> {
        let (parent, name) = Self::split_parent(path);
        let pino = self.resolve(&parent)?;
        let mut st = self.state.lock();
        let ino = Ino(st.next_ino);
        st.next_ino += 1;
        match st.nodes.get_mut(&pino) {
            Some(Node::Dir { entries }) => {
                if entries.contains_key(&name) {
                    return Err(FsError::AlreadyExists {
                        path: path.to_string(),
                    });
                }
                entries.insert(name, ino);
            }
            _ => return Err(FsError::NotADirectory { path: parent }),
        }
        st.nodes.insert(
            ino,
            Node::File {
                blocks: Vec::new(),
                size: 0,
            },
        );
        Ok(())
    }

    /// Writes the whole contents of a file (replacing any previous data).
    pub fn write_file(&self, ctx: &StrandCtx, path: &str, data: &[u8]) -> Result<(), FsError> {
        let ino = self.resolve(path)?;
        let needed = data.len().div_ceil(BLOCK_SIZE);
        // Allocate/resize the extent list.
        let blocks: Vec<BlockId> = {
            let mut st = self.state.lock();
            let old = match st.nodes.get_mut(&ino) {
                Some(Node::File { blocks, .. }) => std::mem::take(blocks),
                Some(Node::Dir { .. }) => {
                    return Err(FsError::IsADirectory {
                        path: path.to_string(),
                    })
                }
                None => {
                    return Err(FsError::NotFound {
                        path: path.to_string(),
                    })
                }
            };
            let mut blocks = old;
            while blocks.len() < needed {
                match st.free_blocks.pop() {
                    Some(b) => blocks.push(b),
                    None => {
                        st.free_blocks.append(&mut blocks);
                        return Err(FsError::NoSpace);
                    }
                }
            }
            while blocks.len() > needed {
                let b = blocks.pop().expect("len checked");
                st.free_blocks.push(b);
            }
            match st.nodes.get_mut(&ino) {
                Some(Node::File { blocks: fb, size }) => {
                    *fb = blocks.clone();
                    *size = data.len() as u64;
                }
                _ => unreachable!("checked above"),
            }
            blocks
        };
        for (i, block) in blocks.iter().enumerate() {
            let mut chunk = vec![0u8; BLOCK_SIZE];
            let start = i * BLOCK_SIZE;
            let end = (start + BLOCK_SIZE).min(data.len());
            chunk[..end - start].copy_from_slice(&data[start..end]);
            self.cache.write(ctx, *block, chunk);
        }
        Ok(())
    }

    /// Reads a whole file.
    pub fn read_file(&self, ctx: &StrandCtx, path: &str) -> Result<Vec<u8>, FsError> {
        let ino = self.resolve(path)?;
        let (blocks, size) = {
            let st = self.state.lock();
            match st.nodes.get(&ino) {
                Some(Node::File { blocks, size }) => (blocks.clone(), *size),
                Some(Node::Dir { .. }) => {
                    return Err(FsError::IsADirectory {
                        path: path.to_string(),
                    })
                }
                None => {
                    return Err(FsError::NotFound {
                        path: path.to_string(),
                    })
                }
            }
        };
        let mut out = Vec::with_capacity(size as usize);
        for block in blocks {
            let data = self.cache.read(ctx, block);
            let remaining = size as usize - out.len();
            let n = remaining.min(BLOCK_SIZE);
            out.extend_from_slice(&data[..n]);
            self.cache.charge_copy(n);
        }
        Ok(out)
    }

    /// Reads `len` bytes at `offset` (the video server's frame reads).
    pub fn read_at(
        &self,
        ctx: &StrandCtx,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        let ino = self.resolve(path)?;
        let (blocks, size) = {
            let st = self.state.lock();
            match st.nodes.get(&ino) {
                Some(Node::File { blocks, size }) => (blocks.clone(), *size),
                _ => {
                    return Err(FsError::NotFound {
                        path: path.to_string(),
                    })
                }
            }
        };
        if offset > size {
            return Err(FsError::BadOffset { offset, size });
        }
        let end = (offset + len as u64).min(size);
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        while pos < end {
            let bi = (pos / BLOCK_SIZE as u64) as usize;
            let off = (pos % BLOCK_SIZE as u64) as usize;
            let data = self.cache.read(ctx, blocks[bi]);
            let n = (BLOCK_SIZE - off).min((end - pos) as usize);
            out.extend_from_slice(&data[off..off + n]);
            self.cache.charge_copy(n);
            pos += n as u64;
        }
        Ok(out)
    }

    /// File size in bytes.
    pub fn size_of(&self, path: &str) -> Result<u64, FsError> {
        let ino = self.resolve(path)?;
        let st = self.state.lock();
        match st.nodes.get(&ino) {
            Some(Node::File { size, .. }) => Ok(*size),
            _ => Err(FsError::IsADirectory {
                path: path.to_string(),
            }),
        }
    }

    /// Directory listing, sorted.
    pub fn list(&self, path: &str) -> Result<Vec<String>, FsError> {
        let ino = self.resolve(path)?;
        let st = self.state.lock();
        match st.nodes.get(&ino) {
            Some(Node::Dir { entries }) => Ok(entries.keys().cloned().collect()),
            _ => Err(FsError::NotADirectory {
                path: path.to_string(),
            }),
        }
    }

    /// Deletes a file, returning its blocks to the free list.
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        let (parent, name) = Self::split_parent(path);
        let pino = self.resolve(&parent)?;
        let mut st = self.state.lock();
        let ino = match st.nodes.get_mut(&pino) {
            Some(Node::Dir { entries }) => {
                entries.remove(&name).ok_or_else(|| FsError::NotFound {
                    path: path.to_string(),
                })?
            }
            _ => return Err(FsError::NotADirectory { path: parent }),
        };
        if let Some(Node::File { blocks, .. }) = st.nodes.remove(&ino) {
            st.free_blocks.extend(blocks);
        }
        Ok(())
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.state.lock().free_blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LruPolicy;
    use spin_sal::SimBoard;
    use spin_sched::Executor;

    fn rig() -> (FileSystem, Arc<Executor>) {
        let board = SimBoard::new();
        let host = board.new_host(16);
        let exec = Executor::for_host(&host);
        let cache = BufferCache::new(
            host.disk.clone(),
            exec.clone(),
            64,
            Box::new(LruPolicy::default()),
        );
        (FileSystem::format(cache, 100, 200), exec)
    }

    #[test]
    fn write_read_round_trip_multi_block() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            fs2.create("/data").unwrap();
            let payload: Vec<u8> = (0..(BLOCK_SIZE * 2 + 77))
                .map(|i| (i % 251) as u8)
                .collect();
            fs2.write_file(ctx, "/data", &payload).unwrap();
            assert_eq!(fs2.size_of("/data").unwrap(), payload.len() as u64);
            let back = fs2.read_file(ctx, "/data").unwrap();
            assert_eq!(back, payload);
        });
        exec.run_until_idle();
    }

    #[test]
    fn directories_nest_and_list() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            fs2.mkdir("/www").unwrap();
            fs2.mkdir("/www/videos").unwrap();
            fs2.create("/www/index.html").unwrap();
            fs2.write_file(ctx, "/www/index.html", b"<html>").unwrap();
            assert_eq!(fs2.list("/www").unwrap(), vec!["index.html", "videos"]);
            assert_eq!(fs2.read_file(ctx, "/www/index.html").unwrap(), b"<html>");
        });
        exec.run_until_idle();
    }

    #[test]
    fn read_at_returns_the_requested_window() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            fs2.create("/movie").unwrap();
            let payload: Vec<u8> = (0..BLOCK_SIZE * 3)
                .map(|i| (i / BLOCK_SIZE) as u8)
                .collect();
            fs2.write_file(ctx, "/movie", &payload).unwrap();
            // A window straddling the block 0/1 boundary.
            let w = fs2
                .read_at(ctx, "/movie", BLOCK_SIZE as u64 - 2, 4)
                .unwrap();
            assert_eq!(w, vec![0, 0, 1, 1]);
            // Reading past EOF truncates.
            let tail = fs2
                .read_at(ctx, "/movie", (BLOCK_SIZE * 3 - 2) as u64, 100)
                .unwrap();
            assert_eq!(tail.len(), 2);
        });
        exec.run_until_idle();
    }

    #[test]
    fn unlink_frees_blocks() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            let before = fs2.free_blocks();
            fs2.create("/tmp").unwrap();
            fs2.write_file(ctx, "/tmp", &vec![1u8; BLOCK_SIZE * 2])
                .unwrap();
            assert_eq!(fs2.free_blocks(), before - 2);
            fs2.unlink("/tmp").unwrap();
            assert_eq!(fs2.free_blocks(), before);
            assert!(matches!(
                fs2.read_file(ctx, "/tmp"),
                Err(FsError::NotFound { .. })
            ));
        });
        exec.run_until_idle();
    }

    #[test]
    fn errors_are_typed() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            assert!(matches!(
                fs2.read_file(ctx, "/nope"),
                Err(FsError::NotFound { .. })
            ));
            fs2.create("/f").unwrap();
            assert!(matches!(
                fs2.create("/f"),
                Err(FsError::AlreadyExists { .. })
            ));
            fs2.mkdir("/d").unwrap();
            assert!(matches!(
                fs2.read_file(ctx, "/d"),
                Err(FsError::IsADirectory { .. })
            ));
            assert!(matches!(
                fs2.create("/f/x"),
                Err(FsError::NotADirectory { .. })
            ));
        });
        exec.run_until_idle();
    }

    #[test]
    fn overwrite_shrinks_extents() {
        let (fs, exec) = rig();
        let fs2 = fs.clone();
        exec.spawn("app", move |ctx| {
            fs2.create("/f").unwrap();
            let before = fs2.free_blocks();
            fs2.write_file(ctx, "/f", &vec![1u8; BLOCK_SIZE * 3])
                .unwrap();
            fs2.write_file(ctx, "/f", b"small").unwrap();
            assert_eq!(fs2.free_blocks(), before - 1);
            assert_eq!(fs2.read_file(ctx, "/f").unwrap(), b"small");
        });
        exec.run_until_idle();
    }
}
