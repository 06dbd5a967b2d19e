//! Readers for the Linux counters the benchmark reports: process
//! and per-thread CPU time, resident memory and host steal time.
//!
//! CPU time is read in nanoseconds, so a few milliseconds of work can be
//! divided without the 10 ms tick steps of the `utime`/`stime` fields of
//! `stat`: the process clock from `clock_gettime`, one other thread from
//! its `schedstat`.

use std::fs;

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// On-CPU seconds of every thread of this process, in nanoseconds and up
/// to date at the call. (`schedstat` of a running thread lags by up to a
/// scheduler tick, too much for the few milliseconds of one query
/// interval.)
pub fn process_cpu_s() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc != 0 {
        return 0.0;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// On-CPU seconds used so far by one thread of this process: the first
/// field of its `schedstat`, in nanoseconds (0 if the thread has exited).
pub fn thread_cpu_s(tid: u32) -> f64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// The id of this process's thread named `name`, if one is running.
pub fn find_thread(name: &str) -> Option<u32> {
    fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(Result::ok)
        .find(|task| {
            fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm.trim() == name)
        })
        .and_then(|task| task.file_name().to_str()?.parse().ok())
}

/// Current resident set size in MiB.
pub fn rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}
