//! The console device: "get a character from the console" (§5.1).

use crate::clock::Clock;
use crate::cost::MachineProfile;
use spin_check::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct ConsoleState {
    output: Vec<u8>,
    input: VecDeque<u8>,
}

/// A simulated serial console.
///
/// Output accumulates in a buffer that tests and examples can read back;
/// input is injected with [`Console::inject_input`].
#[derive(Clone)]
pub struct Console {
    state: Arc<Mutex<ConsoleState>>,
    clock: Clock,
    profile: Arc<MachineProfile>,
}

impl Console {
    /// Creates an empty console.
    pub fn new(clock: Clock, profile: Arc<MachineProfile>) -> Self {
        Console {
            state: Arc::new(Mutex::new(ConsoleState {
                output: Vec::new(),
                input: VecDeque::new(),
            })),
            clock,
            profile,
        }
    }

    /// Writes a whole string.
    pub fn put_str(&self, s: &str) {
        self.clock.advance(self.profile.pio(s.len()));
        self.state.lock().output.extend_from_slice(s.as_bytes());
    }

    /// Reads one character, if any is buffered.
    pub fn get_char(&self) -> Option<u8> {
        self.clock.advance(self.profile.pio(1));
        self.state.lock().input.pop_front()
    }

    /// Makes `data` available to subsequent [`Console::get_char`] calls.
    pub fn inject_input(&self, data: &[u8]) {
        self.state.lock().input.extend(data.iter().copied());
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
        Console::new(Clock::new(), Arc::new(MachineProfile::alpha_axp_3000_400()))
    }

    #[test]
    fn output_accumulates() {
        let c = console();
        c.put_str("Intruder ");
        c.put_str("Alert");
        assert_eq!(c.output(), "Intruder Alert");
    }

    #[test]
    fn input_is_fifo() {
        let c = console();
        assert_eq!(c.get_char(), None);
        c.inject_input(b"ab");
        assert_eq!(c.get_char(), Some(b'a'));
        assert_eq!(c.get_char(), Some(b'b'));
        assert_eq!(c.get_char(), None);
    }

    #[test]
    fn console_io_costs_time() {
        let c = console();
        let t0 = c.clock.now();
        c.put_str("hello");
        assert!(c.clock.now() > t0);
    }
}
