//! The host record every result carries, and the process's own resource
//! usage.

use ambipolar::json::json_string;

/// Host facts: core count, CPU model, compiler, source revision.
pub fn record() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", json_string(&cpu_model())),
        ("rustc", json_string(env!("PERFBENCH_RUSTC"))),
        ("git_rev", json_string(&git_rev())),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark runs from the repository root); `unknown` in an export
/// without git metadata.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Process-wide resource usage (every thread, including ones that have
/// exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (the kernel's high-water mark, `VmHWM`),
    /// MiB.
    pub peak_rss_mib: f64,
}

impl Usage {
    /// Usage accumulated between `earlier` and `self` (the peak is
    /// `self`'s).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            peak_rss_mib: self.peak_rss_mib,
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long`s from `ru_maxrss` to `ru_nivcsw`.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub longs: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// This process's usage so far (all zeros where `getrusage` is not wired).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut raw = sys::Rusage {
        utime: sys::Timeval { sec: 0, usec: 0 },
        stime: sys::Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only within the struct.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        ctx_switches: (raw.longs[12] + raw.longs[13]).max(0) as u64,
        peak_rss_mib: raw.longs[0] as f64 / 1024.0,
    }
}

/// This process's usage so far (all zeros where `getrusage` is not wired).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}
