//! The host side of a run: CPU pinning and the `/proc` readings.
//!
//! Pinning is the benchmark's validity condition, not a nicety: a strand
//! switch is an OS-thread condvar hand-off, ≈3 µs when both threads share a
//! core and ≈50 µs when they do not (see README "Why one pinned process").

use std::fs;

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Cpus_allowed_list")
        .map(parse_cpu_list)
        .unwrap_or_default()
}

pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                    cpus.extend(lo..=hi.min(lo + 4096));
                }
            }
            None => {
                if let Ok(c) = part.trim().parse() {
                    cpus.push(c);
                }
            }
        }
    }
    cpus
}

pub fn format_cpu_list(cpus: &[usize]) -> String {
    let strs: Vec<String> = cpus.iter().map(|c| c.to_string()).collect();
    strs.join(",")
}

const MASK_WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it later spawns) to
/// `cpus`, then re-reads the kernel's view to confirm.
pub fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        if c >= MASK_WORDS * 64 {
            return Err(format!("cpu {c} beyond the {}-cpu mask", MASK_WORDS * 64));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised array of `MASK_WORDS` u64s and
    // the size passed is exactly its size in bytes; pid 0 names the calling
    // thread; the kernel only reads the buffer.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let now = allowed_cpus();
    if now != cpus {
        return Err(format!("asked for cpus {cpus:?}, kernel reports {now:?}"));
    }
    Ok(())
}

/// Pins the process to one CPU — the highest-numbered allowed one, which
/// on small VMs is the one least likely to field device interrupts. Must
/// run before the first thread is spawned so every strand inherits it.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let allowed = allowed_cpus();
    let cpu = *allowed
        .last()
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    if allowed.len() > 1 {
        set_affinity(&[cpu])?;
    }
    Ok(cpu)
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

fn status_number(status: &str, key: &str) -> u64 {
    status_field(status, key)
        .and_then(|v| v.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// One reading of the calling process's `/proc` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Peak resident set, kB (`VmHWM`).
    pub hwm_kb: u64,
    /// Live threads (`Threads`).
    pub threads: u64,
    /// Voluntary context switches of the *calling thread* — for the main
    /// thread, one per strand hand-off it waited on.
    pub vol_ctx: u64,
    /// User and system CPU seconds of the whole process.
    pub utime_s: f64,
    pub stime_s: f64,
}

pub fn proc_sample() -> ProcSample {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let (utime_s, stime_s) = cpu_times();
    ProcSample {
        hwm_kb: status_number(&status, "VmHWM"),
        threads: status_number(&status, "Threads"),
        vol_ctx: status_number(&status, "voluntary_ctxt_switches"),
        utime_s,
        stime_s,
    }
}

/// `utime`/`stime` from `/proc/self/stat` (fields 14 and 15, in clock
/// ticks; Linux fixes `USER_HZ` at 100).
fn cpu_times() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    let u = tick();
    (u, tick())
}

/// `(1-minute load average, runnable/total tasks)` from `/proc/loadavg`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_round_trip() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7\n"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list(&format_cpu_list(&[1, 3, 5])), vec![1, 3, 5]);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  123456 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_number(s, "VmHWM"), 123456);
        assert_eq!(status_number(s, "Threads"), 7);
        assert_eq!(status_number(s, "voluntary_ctxt_switches"), 42);
        assert_eq!(status_number(s, "Missing"), 0);
    }

    #[test]
    fn proc_sample_reads_this_process() {
        let p = proc_sample();
        assert!(p.hwm_kb > 0);
        assert!(p.threads >= 1);
    }
}
