//! Process-level samplers: peak RSS and allocation counts.
//!
//! Both are whole-process measurements, so perf harnesses that want clean
//! per-run numbers should run simulations sequentially (the `perf` binary
//! defaults to `--jobs 1` for exactly this reason).

use std::sync::atomic::{AtomicU64, Ordering};

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). Returns 0 where procfs is unavailable, so perf
/// records degrade gracefully instead of failing.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

/// Extract `VmHWM` (kB) from a `/proc/self/status` body, in bytes.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// Process-global allocation counter, incremented by [`CountingAlloc`]
/// when a binary installs it as its `#[global_allocator]`.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// Allocations observed so far. Always callable; stays 0 unless the
/// running binary installed `CountingAlloc` (feature `count-allocs`).
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// A `#[global_allocator]` wrapper over the system allocator that counts
/// every allocation (including the allocating half of `realloc`). Install
/// it in a binary to make [`alloc_count`] live:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: profile::CountingAlloc = profile::CountingAlloc;
/// ```
#[cfg(feature = "count-allocs")]
pub struct CountingAlloc;

#[cfg(feature = "count-allocs")]
// SAFETY: delegates every operation to `std::alloc::System`; the counter
// update has no effect on allocation behavior.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_status_body() {
        let status = "Name:\tperf\nVmPeak:\t  123 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
    }

    #[test]
    fn peak_rss_reads_procfs_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "a running test process has a nonzero peak RSS");
        }
    }
}
