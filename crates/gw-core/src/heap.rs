//! Process heap policy for a resident cluster.
//!
//! Every job allocates and frees multi-MiB buffers (output blocks, the
//! block builders that fill them, collector arenas) on short-lived
//! pipeline threads. glibc's malloc serves a request of at least its mmap
//! threshold with a private mapping, and raises that threshold to the
//! size of every mapped chunk it frees, up to 32 MiB. After the first
//! such free, these buffers come from per-thread arenas instead, and
//! non-main arenas keep freed memory resident. How much they keep then
//! depends on which arenas the buffers of each job happened to land in,
//! so the footprint of a cluster running one job after another drifted
//! with thread timing: on a 2-vCPU Linux host, the same TeraSort build
//! and seed peaked anywhere between ~640 and ~880 MB while its live heap
//! stayed near 350 MB.
//!
//! `Cluster::new` sets the threshold once per process, which also
//! turns glibc's dynamic adjustment off: buffers of [`MMAP_THRESHOLD`] or
//! more are mapped when allocated and returned to the system when freed,
//! whichever thread frees them. Smaller allocations (runs, records, trace
//! events) keep the arenas' cheap reuse. Other allocators have no such
//! adjustment, and there the call does nothing.

/// Allocations of at least this many bytes bypass the malloc arenas.
pub const MMAP_THRESHOLD: usize = 1 << 20;

/// Pin the allocator's mmap threshold at [`MMAP_THRESHOLD`]. Idempotent;
/// [`crate::Cluster::new`] calls it.
pub(crate) fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static PIN: std::sync::Once = std::sync::Once::new();
        PIN.call_once(|| {
            /// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
            const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
            extern "C" {
                fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
            }
            // SAFETY: `mallopt` only changes a malloc tuning parameter; it
            // is thread-safe and leaves existing allocations untouched.
            unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD as std::ffi::c_int) };
        });
    }
}
