//! The §1.2 UNIX server: processes with copy-on-write fork, descriptors,
//! pipes — a shell-style pipeline `producer | consumer` run on SPIN.
//!
//! Run with: `cargo run --example unix_server`

use spin_os::core::Kernel;
use spin_os::fs::{BufferCache, FileSystem, LruPolicy};
use spin_os::sal::SimBoard;
use spin_os::sched::Executor;
use spin_os::unix::{UnixServer, SYSCALL_BASE};
use spin_os::vm::{UnixAsExtension, VmService};

fn main() {
    let board = SimBoard::new();
    let host = board.new_host(512);
    let exec = Executor::for_host(&host);
    let kernel = Kernel::boot(host.clone());
    let vm = VmService::install(&kernel);
    let unix_vm = UnixAsExtension::install(
        vm.trans.clone(),
        vm.phys.clone(),
        vm.virt.clone(),
        host.mem.clone(),
    );
    let cache = BufferCache::new(
        host.disk.clone(),
        exec.clone(),
        64,
        Box::new(LruPolicy::default()),
    );
    let fs = FileSystem::format(cache, 0, 400);
    let server = UnixServer::start(&kernel, exec.clone(), unix_vm, fs);

    let srv = server.clone();
    let exec2 = exec.clone();
    exec.spawn("sh", move |ctx| {
        let sh = srv.spawn_init();
        println!("init pid {}", sh.0);

        // A memory image the children will inherit copy-on-write.
        let base = srv.sbrk(sh, 1).unwrap();
        srv.copyout(sh, base, b"shared environment").unwrap();

        // pipeline: producer | consumer
        let (rfd, wfd) = srv.pipe(sh).unwrap();
        let producer = srv.fork(sh).unwrap();
        let consumer = srv.fork(sh).unwrap();

        let srv_p = srv.clone();
        exec2.spawn("producer", move |pctx| {
            for line in ["alpha\n", "beta\n", "gamma\n"] {
                srv_p.write(pctx, producer, wfd, line.as_bytes()).unwrap();
            }
            srv_p.close(producer, wfd).unwrap();
            srv_p.close(producer, rfd).unwrap();
            srv_p.exit(producer, 0);
        });
        let srv_c = srv.clone();
        exec2.spawn("consumer", move |cctx| {
            srv_c.close(consumer, wfd).unwrap();
            let out = srv_c.open(consumer, "/tmp_out").unwrap();
            let mut lines = 0;
            loop {
                let chunk = srv_c.read(cctx, consumer, rfd, 64).unwrap();
                if chunk.is_empty() {
                    break;
                }
                lines += chunk.iter().filter(|&&b| b == b'\n').count();
                srv_c.write(cctx, consumer, out, &chunk).unwrap();
            }
            println!("consumer counted {lines} lines");
            srv_c.exit(consumer, lines as i32);
        });

        // The shell closes its pipe ends and reaps both children.
        srv.close(sh, rfd).unwrap();
        srv.close(sh, wfd).unwrap();
        let (_p1, s1) = srv.waitpid(ctx, sh).unwrap();
        let (_p2, s2) = srv.waitpid(ctx, sh).unwrap();
        println!("children exited with statuses {s1} and {s2}");
        assert_eq!(s1.max(s2), 3, "three lines flowed through the pipe");

        // The COW environment is untouched in the shell.
        let mut buf = [0u8; 18];
        srv.copyin(sh, base, &mut buf).unwrap();
        assert_eq!(&buf, b"shared environment");
    });
    exec.run_until_idle();

    // The register-only band goes through Trap.SystemCall.
    assert_eq!(
        kernel.syscall(SYSCALL_BASE + 1, [0; 6]),
        1,
        "one live process (init)"
    );
    println!(
        "unix server OK — {} process(es) remain",
        server.process_count()
    );
}
