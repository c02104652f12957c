//! `spin-fs` — storage services for the SPIN reproduction.
//!
//! The paper's `core` component includes "device management, a disk-based
//! and network-based file system" (§5.1). This crate provides the
//! disk-based parts:
//!
//! * [`BufferCache`] — a block cache over the simulated disk with a
//!   **replaceable policy** ([`LruPolicy`], [`NoCachePolicy`], or any
//!   extension-supplied [`CachePolicy`]);
//! * [`FileSystem`] — a simple extent-based file system used by the video
//!   server (frame reads) and the web server (§5.4);
//! * [`WebCache`] — the object-level cache with SPIN's hybrid
//!   ([`HybridBySize`]) policy: "LRU for small files, and no-cache for
//!   large files".

#![forbid(unsafe_code)]

mod buffer;
mod fs;
mod webcache;

pub use buffer::{BufferCache, CachePolicy, LruPolicy, NoCachePolicy};
pub use fs::{FileSystem, FsError};
pub use webcache::{HybridBySize, ObjectCacheStats, ObjectPolicy, WebCache};
