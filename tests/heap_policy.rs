//! A cluster pins glibc's mmap threshold (`gw_core::heap`): a buffer of
//! `MMAP_THRESHOLD` bytes or more is mapped on every allocation, also
//! after a buffer of the same size was freed. Under glibc's dynamic
//! threshold the first free would raise the threshold past that size,
//! and the next such buffer would come from a malloc arena that keeps it
//! resident after it is freed.
//!
//! Its own test binary: the check reads process-wide malloc statistics,
//! which concurrently running tests would disturb.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn large_buffers_stay_mapped_after_one_is_freed() {
    use std::sync::Arc;

    use glasswing::core::heap::MMAP_THRESHOLD;
    use glasswing::prelude::*;

    /// glibc's `struct mallinfo2`; only `hblkhd` is read.
    #[repr(C)]
    #[allow(dead_code)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // Bytes currently held in mapped chunks.
    // SAFETY: `mallinfo2` only reads allocator statistics.
    let mapped = || unsafe { mallinfo2() }.hblkhd;

    let _cluster = Cluster::new(
        Arc::new(Dfs::new(DfsConfig::new(1))),
        NetProfile::unlimited(),
    );
    let size = 4 * MMAP_THRESHOLD;
    for round in 0..3 {
        let before = mapped();
        let buf = std::hint::black_box(vec![1u8; size]);
        let held = mapped();
        drop(buf);
        assert!(
            held >= before + size,
            "round {round}: a {size}-byte buffer was not mapped ({before} -> {held} mapped bytes)"
        );
    }
}
