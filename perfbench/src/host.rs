//! Facts about the host and the code under test, recorded with every
//! result, and the process's own resource usage.

use pgasm_core::StableHasher;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads resource usage through the 64-bit Linux getrusage layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which the first is the peak resident set size in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's resource usage so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Resource usage of the calling process.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // `struct rusage` on this target (checked by the compile_error above),
    // and RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage { cpu_s: secs(&ru.utime) + secs(&ru.stime), peak_rss_mb: ru.maxrss_kib as f64 / 1024.0 }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Identity of the code under test, read from the checkout in the
/// working directory: the git commit when `.git` is present, and always
/// a digest of the program's and the benchmark's sources (`Cargo.toml`,
/// `Cargo.lock`, `src/`, `crates/`, `BENCHMARK.json`, `perfbench/`), so
/// results from checkouts without git metadata are still told apart.
pub fn code_id(root: &Path) -> String {
    let mut h = StableHasher::new();
    for entry in ["Cargo.toml", "Cargo.lock", "src", "crates", "BENCHMARK.json", "perfbench"] {
        hash_tree(&root.join(entry), entry, &mut h);
    }
    match git_head(root) {
        Some(commit) => format!("{commit} (sources {:016x})", h.finish()),
        None => format!("sources {:016x}", h.finish()),
    }
}

fn hash_tree(path: &Path, rel: &str, h: &mut StableHasher) {
    if path.is_dir() {
        let Ok(dir) = std::fs::read_dir(path) else { return };
        let mut names: Vec<String> = dir.filter_map(|e| e.ok()?.file_name().into_string().ok()).collect();
        names.sort();
        for name in names.into_iter().filter(|n| n != "target") {
            hash_tree(&path.join(&name), &format!("{rel}/{name}"), h);
        }
    } else if let Ok(bytes) = std::fs::read(path) {
        h.update_str(rel).update_slice(&bytes);
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work() {
        let before = usage();
        let mut acc = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.peak_rss_mb > 0.0);
    }

    #[test]
    fn code_id_is_stable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert_eq!(code_id(&root), code_id(&root));
        assert!(code_id(&root).contains("sources "));
    }
}
