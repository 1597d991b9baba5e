//! A counting global allocator.
//!
//! Every allocation is forwarded to the system allocator and counted. The
//! traffic thread marks itself with [`mark_traffic_thread`]: its
//! allocations go to a thread-local counter only, so per-packet figures
//! never include control-plane work. Every other thread (the update
//! thread, the switch agents) counts into one shared pair of
//! atomics, which is what per-update figures are read from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator installed by `main`.
pub struct Counting;

static SHARED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SHARED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRAFFIC: Cell<bool> = const { Cell::new(false) };
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` because an allocation can happen while a thread's locals
    // are being torn down; such late allocations count as shared.
    let traffic = TRAFFIC.try_with(Cell::get).unwrap_or(false);
    if traffic {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LOCAL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    } else {
        // Statistics only: no other data is published through these.
        SHARED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        SHARED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and const-initialized thread-locals, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Give every thread its own glibc malloc arena. By default glibc caps
/// arenas at eight per core and assigns them as threads start, so whether
/// the traffic thread shares an arena (and its lock) with the controller
/// thread differs from run to run; a shared one makes every update about
/// 2.5x slower for the whole run. Call before any thread is spawned.
pub fn one_arena_per_thread() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets a malloc tunable; it is called from
        // the main thread before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 4096);
        }
    }
}

/// Run the calling thread (and threads it spawns later) on `cpu` only.
/// Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        if cpu >= 64 {
            return false;
        }
        let mask: u64 = 1 << cpu;
        // SAFETY: pid 0 names the calling thread, and `mask` is a live
        // 8-byte CPU set whose size is passed alongside it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Count this thread's allocations privately from now on.
pub fn mark_traffic_thread() {
    TRAFFIC.with(|t| t.set(true));
}

/// `(allocations, bytes)` made so far by the calling traffic thread.
pub fn local() -> (u64, u64) {
    (LOCAL_ALLOCS.with(Cell::get), LOCAL_BYTES.with(Cell::get))
}

/// `(allocations, bytes)` made so far by every thread not marked as traffic.
pub fn shared() -> (u64, u64) {
    (
        SHARED_ALLOCS.load(Ordering::Relaxed),
        SHARED_BYTES.load(Ordering::Relaxed),
    )
}
