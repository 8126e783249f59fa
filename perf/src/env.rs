//! The box the run happened on: CPU pinning, `/proc` readers and the
//! environment header every run prints.

use std::path::{Path, PathBuf};

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }

    pub fn process_cpu_seconds() -> f64 {
        let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `now` is a live, writable `timespec` (two 64-bit fields on
        // every 64-bit Linux target) that the call only writes to.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
            return 0.0;
        }
        now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
    }

    /// The CPUs this process may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0).collect()
    }

    /// Restricts the calling thread — and every thread it spawns later — to
    /// `cpu`.
    pub fn pin_to(cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed
        // and is only read by the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }
    pub fn process_cpu_seconds() -> f64 {
        0.0
    }
}

/// Pins the process to the first CPU it is allowed on. Must run before any
/// thread is spawned: affinity is inherited at spawn, not retrofitted.
/// Returns the CPU, or `None` when the platform refused.
pub fn pin_process() -> Option<usize> {
    let cpu = *affinity::allowed().first()?;
    affinity::pin_to(cpu).then_some(cpu)
}

pub fn nproc() -> usize {
    let allowed = affinity::allowed().len();
    if allowed > 0 {
        allowed
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(line[key.len()..].trim().trim_start_matches(':').trim().to_string())
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmRSS")
        .and_then(|value| value.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads of this process (`Threads:` in `/proc/self/status`).
pub fn thread_count() -> u64 {
    proc_field("/proc/self/status", "Threads").and_then(|value| value.parse().ok()).unwrap_or(0)
}

/// Bytes this process has caused to be sent to the storage layer
/// (`write_bytes` in `/proc/self/io`, counted when pages are dirtied); 0
/// where the kernel does not say.
pub fn storage_bytes_written() -> f64 {
    proc_field("/proc/self/io", "write_bytes").and_then(|value| value.parse().ok()).unwrap_or(0.0)
}

/// User + system CPU time this process (all its threads) has consumed, in
/// seconds. `/proc/self/stat` counts the same thing in 10 ms ticks, too
/// coarse to divide by an op count; the process CPU clock has nanoseconds.
pub fn cpu_seconds() -> f64 {
    affinity::process_cpu_seconds()
}

/// The filesystem type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, kind) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Where a run keeps its data directories: beside the executable, which is
/// inside the build's target directory — inside the checkout, ignored by
/// git, and on the same filesystem a user's build lands on.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the harness knows its own path");
    exe.parent().expect("an executable has a directory").join("perf-data")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The header printed at the top of every run.
pub fn header(seed: u64, seconds: f64, scratch: &Path) -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let sha = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let fs = fs_type(scratch);
    format!(
        "env: nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" git={sha} seed={seed} seconds={seconds} \
         data_dir={} fs={fs}{}",
        nproc(),
        scratch.display(),
        if fs == "tmpfs" { " (tmpfs: fsync costs nothing here)" } else { "" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(rss_mib() > 0.5);
            assert!(thread_count() >= 1);
            let before = cpu_seconds();
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            assert!(cpu_seconds() > before, "the process CPU clock advances under load");
            assert_ne!(fs_type(Path::new("/proc")), "unknown");
        }
    }
}
