//! Process and host counters read from outside the runtime: the process
//! CPU clock, `getrusage`, `/proc/self/status` and `/proc/stat`. All of
//! them are Linux interfaces reached through the C library that `std`
//! already links, so the benchmark needs no dependency for them.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by glibc and musl on 64-bit Linux.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time consumed so far by every thread of this
/// process, live or exited, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call and
    // the clock id is the Linux constant for the process CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Whole-process resource counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// System CPU time, nanoseconds.
    pub sys_ns: u64,
    /// Voluntary context switches (blocking waits, parks).
    pub vol_ctx: u64,
    /// Involuntary context switches (preemption).
    pub invol_ctx: u64,
    /// Minor page faults.
    pub minflt: u64,
}

impl Usage {
    /// Read the counters of every thread of this process, exited threads
    /// included.
    pub fn now() -> Usage {
        let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `ru` points to writable storage of the size and layout
        // the kernel fills for `RUSAGE_SELF`; it is zero-initialised, so
        // every field is a valid integer even if the call wrote none.
        let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        // SAFETY: zero-initialised above and possibly overwritten by the
        // kernel; all-integer fields make any bit pattern valid.
        let ru = unsafe { ru.assume_init() };
        Usage {
            sys_ns: ru.ru_stime.tv_sec as u64 * 1_000_000_000 + ru.ru_stime.tv_usec as u64 * 1_000,
            vol_ctx: ru.ru_nvcsw as u64,
            invol_ctx: ru.ru_nivcsw as u64,
            minflt: ru.ru_minflt as u64,
        }
    }

    /// The activity between `base` and `self`.
    pub fn since(&self, base: &Usage) -> Usage {
        Usage {
            sys_ns: self.sys_ns.saturating_sub(base.sys_ns),
            vol_ctx: self.vol_ctx.saturating_sub(base.vol_ctx),
            invol_ctx: self.invol_ctx.saturating_sub(base.invol_ctx),
            minflt: self.minflt.saturating_sub(base.minflt),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status carries VmHWM");
    kib / 1024.0
}

/// Host-wide CPU tick totals from the first line of `/proc/stat`: the
/// share of time the hypervisor ran other guests on this host's virtual
/// CPUs (`steal`) next to the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks of every state.
    pub total: u64,
}

impl HostTicks {
    /// Read the current totals (zero where `/proc/stat` is unreadable).
    pub fn now() -> HostTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The ticks between `base` and `self`.
    pub fn since(&self, base: &HostTicks) -> HostTicks {
        HostTicks {
            steal: self.steal.saturating_sub(base.steal),
            total: self.total.saturating_sub(base.total),
        }
    }

    /// Stolen share of all ticks, in percent.
    pub fn steal_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.steal as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_with_work() {
        let c0 = cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ns() > c0, "{x}");
    }

    #[test]
    fn counters_read_sane_values() {
        assert!(peak_rss_mb() > 0.0);
        let u = Usage::now();
        assert!(u.vol_ctx + u.invol_ctx + u.minflt > 0);
    }
}
