//! Which CPUs a thread may run on.
//!
//! On a box with a few cores the scheduler's choice of core for the
//! generator and for the server's loop thread, made once and then kept
//! for the life of the process, decides whether a small request costs a
//! cross-core wake-up or not: unpinned runs of `svc-mixed` fell into one
//! of two states, with medians of 13 µs or 42 µs and heavy frames 20%
//! apart. The service workloads therefore give the server's threads and
//! the load generator's threads disjoint CPUs. A thread inherits its
//! creator's CPUs, so the split is made by setting the main thread's CPUs
//! before it starts the server or a generator.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on, ascending. Empty where the
/// platform has no such notion.
pub fn allowed() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; sys::WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread; the kernel writes
        // at most that many bytes.
        let ok = unsafe {
            sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0
        };
        if ok {
            return (0..sys::WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread, and every thread it starts from now on,
/// to `cpus`. Returns whether the kernel took it.
pub fn pin(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; sys::WORDS];
        for &c in cpus.iter().filter(|c| **c < sys::WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        if mask.iter().all(|w| *w == 0) {
            return false;
        }
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // size passed, which the kernel only reads; pid 0 names the
        // calling thread.
        return unsafe {
            sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
        };
    }
    #[allow(unreachable_code)]
    {
        let _ = cpus;
        false
    }
}

/// Split the allowed CPUs between the load generator (the first half, at
/// most two) and the server (the rest). `None` on a single CPU.
pub fn split() -> Option<(Vec<usize>, Vec<usize>)> {
    let cpus = allowed();
    if cpus.len() < 2 {
        return None;
    }
    let clients = (cpus.len() / 2).min(2);
    Some((cpus[..clients].to_vec(), cpus[clients..].to_vec()))
}
