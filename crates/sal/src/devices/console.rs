//! The console device: a simulated serial console, output only.

use crate::clock::Clock;
use crate::cost::Cost;
use spin_check::sync::Mutex;
use std::sync::Arc;

struct ConsoleState {
    output: Vec<u8>,
}

/// A simulated serial console.
///
/// Output accumulates in a buffer that tests and examples can read back.
#[derive(Clone)]
pub struct Console {
    state: Arc<Mutex<ConsoleState>>,
    clock: Clock,
}

impl Console {
    /// Creates an empty console.
    pub(crate) fn new(clock: Clock) -> Self {
        Console {
            state: Arc::new(Mutex::new(ConsoleState { output: Vec::new() })),
            clock,
        }
    }

    /// Writes a whole string.
    pub fn put_str(&self, s: &str) {
        self.clock.charge(Cost::PioByte, s.len() as u64);
        self.state.lock().output.extend_from_slice(s.as_bytes());
    }

    /// Everything written so far, as a lossy string.
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.state.lock().output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn console() -> Console {
        Console::new(Clock::new())
    }

    #[test]
    fn output_accumulates() {
        let c = console();
        c.put_str("Intruder ");
        c.put_str("Alert");
        assert_eq!(c.output(), "Intruder Alert");
    }

    #[test]
    fn console_io_costs_time() {
        let c = console();
        let t0 = c.clock.now();
        c.put_str("hello");
        assert!(c.clock.now() > t0);
    }
}
