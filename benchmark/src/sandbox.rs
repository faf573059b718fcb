//! The two things this sandbox makes the driver do to the process it runs
//! in: pin it to one CPU, and hand freed memory back to the kernel.
//!
//! **One CPU.** The store answers allocation, encoding and degraded-read
//! requests on MN server threads, and the driver waits for each reply. With
//! those threads on another CPU every such RPC pays two cross-CPU wake-ups,
//! whose latency in a VM flips between regimes from run to run (an idle
//! vCPU has to be brought back by the host): the same degraded-read phase
//! ran at 70 or at 270 kops/s. On one CPU a wake-up is a context switch,
//! and the figures repeat. Nothing measured here runs in parallel — one
//! driver thread, one recovery worker — so a second CPU would add noise,
//! not speed. Threads started later inherit the mask.
//!
//! **Freed memory.** A pass launches and drops six stores. What the
//! allocator keeps of a dropped one adds to the resident set of the next,
//! and past 500 MB or so a page fault here costs ten times more, which a
//! recovery (it faults in a whole new node) then shows as a slow cycle.

/// Restricts this process to the first CPU it is allowed to run on.
/// Returns that CPU, or `None` where that is not possible (not Linux, or
/// the kernel refused), in which case the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // The C library std already links provides both calls.
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // 1024 CPUs, the size of glibc's `cpu_set_t`.
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, and pid 0 names the calling thread; the kernel writes at
        // most `bytes` bytes into it.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of `bytes` bytes that the kernel
        // only reads; it names a CPU the current mask allows.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Returns the allocator's free pages to the kernel (glibc only; elsewhere
/// the allocator keeps them, which costs nothing but resident memory).
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only gives back
        // pages of chunks that are already free.
        unsafe { malloc_trim(0) };
    }
}
