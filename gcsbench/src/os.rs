//! Costs read from the operating system, from outside the program: process
//! CPU time, per-thread CPU by thread name, I/O counters and peak RSS.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, living or
/// exited), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second of `/proc/*/stat` time fields (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds per thread name prefix, summed over the
/// threads alive now (`/proc/self/task/*/{comm,stat}`).
pub fn thread_cpu_s<const N: usize>(prefixes: &[&str; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("stat")),
        ) else {
            continue; // the thread exited between listing and reading
        };
        let Some(i) = prefixes.iter().position(|p| comm.trim_end().starts_with(p)) else {
            continue;
        };
        // Fields after the parenthesised comm: state is field 3, utime 14,
        // stime 15 (1-based), so 11 and 12 after the closing paren.
        let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 = f
            .get(11..13)
            .map(|v| v.iter().filter_map(|x| x.parse::<f64>().ok()).sum())
            .unwrap_or(0.0);
        out[i] += ticks / USER_HZ;
    }
    out
}

/// `/proc/self/io` counters: read/write syscalls and bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Io {
    pub syscalls: u64,
    pub bytes: u64,
}

pub fn io() -> Io {
    let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
            .unwrap_or(0)
    };
    Io {
        syscalls: field("syscr") + field("syscw"),
        bytes: field("rchar") + field("wchar"),
    }
}

impl Io {
    pub fn since(self, earlier: Io) -> Io {
        Io {
            syscalls: self.syscalls - earlier.syscalls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}
