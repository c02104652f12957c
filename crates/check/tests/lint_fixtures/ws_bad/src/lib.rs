//! The root package names `kern`, but nothing at the root names its
//! `proptest` dev-dependency: P2 flags that line of the root manifest.
pub use kern as kernel;
