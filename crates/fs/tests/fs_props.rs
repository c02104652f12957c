//! Property tests for the file system: write/read equivalence against an
//! in-memory reference model, window reads, and cache-policy transparency
//! (caching must never change observable contents).

use proptest::prelude::*;
use spin_fs::{BufferCache, FileSystem, LruPolicy, NoCachePolicy};
use spin_sal::SimBoard;
use spin_sched::Executor;
use std::collections::HashMap;

fn run_fs<R: Send + 'static>(
    cache_blocks: usize,
    lru: bool,
    f: impl FnOnce(&spin_sched::StrandCtx, FileSystem) -> R + Send + 'static,
) -> R {
    let board = SimBoard::new();
    let host = board.new_host(16);
    let exec = Executor::for_host(&host);
    let policy: Box<dyn spin_fs::CachePolicy> = if lru {
        Box::new(LruPolicy::default())
    } else {
        Box::new(NoCachePolicy)
    };
    let cache = BufferCache::new(host.disk.clone(), exec.clone(), cache_blocks, policy);
    let fs = FileSystem::format(cache, 0, 600);
    let driver = exec.spawn("fsdriver", move |ctx| f(ctx, fs));
    exec.run_until_idle();
    driver.join().expect("driver ran")
}

#[derive(Debug, Clone)]
enum FsOp {
    Write { file: u8, content: Vec<u8> },
    Delete { file: u8 },
}

fn fs_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..5, prop::collection::vec(any::<u8>(), 0..20_000))
            .prop_map(|(file, content)| FsOp::Write { file, content }),
        (0u8..5).prop_map(|file| FsOp::Delete { file }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn file_system_matches_a_hashmap_model(
        ops in prop::collection::vec(fs_op(), 1..15),
        lru in any::<bool>(),
    ) {
        let result = run_fs(8, lru, move |ctx, fs| {
            let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
            for op in ops {
                match op {
                    FsOp::Write { file, content } => {
                        let path = format!("/f{file}");
                        if !model.contains_key(&file) {
                            fs.create(&path).unwrap();
                        }
                        fs.write_file(ctx, &path, &content).unwrap();
                        model.insert(file, content);
                    }
                    FsOp::Delete { file } => {
                        let path = format!("/f{file}");
                        let fs_result = fs.unlink(&path);
                        assert_eq!(fs_result.is_ok(), model.remove(&file).is_some());
                    }
                }
                // Full agreement after every operation.
                for (file, content) in &model {
                    let back = fs.read_file(ctx, &format!("/f{file}")).unwrap();
                    assert_eq!(&back, content, "file {file} diverged");
                }
            }
            // No block leaks: deleting everything restores the free count.
            let files: Vec<u8> = model.keys().copied().collect();
            for f in files {
                fs.unlink(&format!("/f{f}")).unwrap();
            }
            fs.free_blocks()
        });
        prop_assert_eq!(result, 600);
    }

    #[test]
    fn read_at_equals_slice_of_read_file(
        content in prop::collection::vec(any::<u8>(), 1..30_000),
        start_frac in 0.0f64..1.0,
        len in 0usize..10_000,
    ) {
        let expected = content.clone();
        let offset = (start_frac * content.len() as f64) as u64;
        let (window, full) = run_fs(16, true, move |ctx, fs| {
            fs.create("/data").unwrap();
            fs.write_file(ctx, "/data", &content).unwrap();
            let window = fs.read_at(ctx, "/data", offset, len).unwrap();
            let full = fs.read_file(ctx, "/data").unwrap();
            (window, full)
        });
        prop_assert_eq!(&full, &expected);
        let end = (offset as usize + len).min(expected.len());
        prop_assert_eq!(&window[..], &expected[offset as usize..end]);
    }

    #[test]
    fn cache_policy_never_changes_observable_content(
        content in prop::collection::vec(any::<u8>(), 1..20_000),
    ) {
        let c1 = content.clone();
        let cached = run_fs(64, true, move |ctx, fs| {
            fs.create("/x").unwrap();
            fs.write_file(ctx, "/x", &c1).unwrap();
            (fs.read_file(ctx, "/x").unwrap(), fs.read_file(ctx, "/x").unwrap())
        });
        let c2 = content.clone();
        let uncached = run_fs(64, false, move |ctx, fs| {
            fs.create("/x").unwrap();
            fs.write_file(ctx, "/x", &c2).unwrap();
            (fs.read_file(ctx, "/x").unwrap(), fs.read_file(ctx, "/x").unwrap())
        });
        prop_assert_eq!(&cached.0, &content);
        prop_assert_eq!(&cached.1, &content);
        prop_assert_eq!(cached, uncached);
    }
}
