//! The protected cross-address-space procedure call measured in Table 2: "SPIN's cross-address space procedure call is implemented as
//! an extension that uses system calls to transfer control in and out of
//! the kernel and cross-domain procedure calls within the kernel to
//! transfer control between address spaces."

use crate::executor::{Executor, StrandCtx};
use crate::sync::KChannel;
use spin_sal::{Cost, Nanos};
use std::sync::Arc;

/// A cross-address-space call service: a server process exporting one
/// procedure that clients in other address spaces can call.
///
/// The path (both directions): system call into the kernel, cross-domain
/// procedure call to the IPC extension, address-space switch to the
/// server's context, and the scheduler hand-off to the server strand.
struct XasService {
    requests: Arc<KChannel<(u64, Arc<KChannel<u64>>)>>,
    exec: Arc<Executor>,
}

impl XasService {
    /// Starts a server strand running `service` for each request.
    fn start(
        exec: &Arc<Executor>,
        name: &str,
        service: impl Fn(u64) -> u64 + Send + 'static,
    ) -> XasService {
        let requests: Arc<KChannel<(u64, Arc<KChannel<u64>>)>> = KChannel::new(exec.clone(), 16);
        let rq = requests.clone();
        let exec2 = exec.clone();
        exec.spawn(&format!("{name}-server"), move |ctx| {
            while let Some((arg, reply)) = rq.recv(ctx) {
                // The server runs in its own address space: entering it
                // costs an AS switch on top of the strand hand-off.
                exec2.clock().charge(Cost::AsSwitch, 1);
                let result = service(arg);
                reply.send(ctx, result);
            }
        });
        XasService {
            requests,
            exec: exec.clone(),
        }
    }

    /// Creates a client handle for a process.
    fn client(&self) -> XasClient {
        XasClient {
            requests: self.requests.clone(),
            exec: self.exec.clone(),
        }
    }

    /// Shuts the service down.
    fn stop(&self) {
        self.requests.close();
    }
}

/// A client capability for a cross-address-space service.
#[derive(Clone)]
struct XasClient {
    requests: Arc<KChannel<(u64, Arc<KChannel<u64>>)>>,
    exec: Arc<Executor>,
}

impl XasClient {
    /// Performs one protected cross-address-space call.
    fn call(&self, ctx: &StrandCtx, arg: u64) -> Option<u64> {
        let clock = self.exec.clock().clone();
        // Client trap into the kernel and cross-domain call to the IPC
        // extension.
        clock.charge_all([(Cost::TrapEntry, 1), (Cost::InterModuleCall, 1)]);
        let reply: Arc<KChannel<u64>> = KChannel::new(self.exec.clone(), 1);
        if !self.requests.send(ctx, (arg, reply.clone())) {
            clock.charge(Cost::TrapExit, 1);
            return None;
        }
        let result = reply.recv(ctx);
        // Return path: switch back to the client's address space and
        // return to user mode.
        clock.charge_all([(Cost::AsSwitch, 1), (Cost::TrapExit, 1)]);
        result
    }
}

/// Measures the null cross-address-space call, in virtual nanoseconds —
/// Table 2's third row (SPIN: 89 µs).
pub fn measure_xas_call(exec: &Arc<Executor>) -> Nanos {
    const CALLS: u64 = 16;
    let service = XasService::start(exec, "null", |x| x);
    let client = service.client();
    let clock = exec.clock().clone();
    let client = exec.spawn("client", move |ctx| {
        // Warm up the server strand.
        client.call(ctx, 0);
        let t0 = clock.now();
        for i in 0..CALLS {
            client.call(ctx, i);
        }
        let elapsed = (clock.now() - t0) / CALLS;
        service.stop();
        elapsed
    });
    exec.run_until_idle();
    client.join().expect("the client returns its mean call")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    fn rig() -> Arc<Executor> {
        Executor::for_host(&SimBoard::new().new_host(256))
    }

    #[test]
    fn xas_call_returns_the_service_result() {
        let exec = rig();
        let service = XasService::start(&exec, "double", |x| x * 2);
        let client = service.client();
        let got = exec.spawn("client", move |ctx| {
            let got = client.call(ctx, 21);
            service.stop();
            got
        });
        exec.run_until_idle();
        assert_eq!(got.join().unwrap(), Some(42));
    }

    #[test]
    fn xas_call_cost_is_in_table_2_band() {
        let exec = rig();
        let ns = measure_xas_call(&exec);
        let us = ns as f64 / 1000.0;
        // Table 2: SPIN cross-address space call is 89 µs.
        assert!((60.0..120.0).contains(&us), "xas call {us} µs");
    }

    #[test]
    fn calls_after_stop_fail_cleanly() {
        let exec = rig();
        let service = XasService::start(&exec, "s", |x| x);
        let client = service.client();
        service.stop();
        let got = exec.spawn("client", move |ctx| client.call(ctx, 1));
        exec.run_until_idle();
        assert_eq!(got.join().unwrap(), None);
    }
}
