//! Host facts every report carries: core count, peak memory, source
//! revision, and where run artifacts go.

use std::path::{Path, PathBuf};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux process CPU clock");

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size so far (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds the process has used so far: every thread, exited ones
/// included. On a shared virtual host, time the host gives to other
/// guests stretches wall time but is not charged here.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec`, two 64-bit
    // fields on the 64-bit Linux targets this module builds for, through
    // a pointer to a live, exclusively borrowed value, and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Git revision of the working directory's own repository, or
/// `"unknown"` outside one (the search stops at the parent directory, so
/// an enclosing repository is never reported).
pub fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(&cwd);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the sorted `.rs` and `.toml` files under `roots`: a
/// revision stamp that also works in a checkout without git metadata.
pub fn source_fnv(roots: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for r in roots {
        walk(Path::new(r), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}")
}

/// Directory for traces, reports and scratch stores: `perfbench/` under
/// the cargo target directory (`.bench_build` when unset).
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    target.join("perfbench")
}

/// Seed-mixing hash (splitmix64 finaliser) so nearby seeds give unrelated
/// streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Relative closeness used by every output check.
pub fn close(got: f32, want: f32, tol: f32) -> bool {
    (got - want).abs() <= tol * want.abs().max(1.0)
}

/// Element-wise [`close`] over equal-length slices.
pub fn all_close(got: &[f32], want: &[f32], tol: f32) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| close(*g, *w, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn process_cpu_clock_counts_exited_threads() {
        let before = process_cpu_s();
        std::thread::spawn(|| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(50) {
                std::hint::spin_loop();
            }
        })
        .join()
        .expect("spinning thread");
        let spent = process_cpu_s() - before;
        // Other guests may take part of the 50 ms, never most of it.
        assert!(spent > 0.01, "the process CPU clock advanced {spent} s");
    }
}
