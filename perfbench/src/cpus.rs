//! Spreading the library workloads' ops over the CPUs the process may
//! use.
//!
//! On a shared host each CPU switches between a fast and a slow state
//! on its own, each state lasting seconds. A single solver thread that
//! the scheduler keeps on one CPU samples that CPU alone, so a run's
//! figures depend on which CPU it happened to stay on. Moving the
//! thread to the next allowed CPU every op pair makes every run sample
//! all of them alike. It stays one solver thread: ops still run one at
//! a time.

/// The CPUs this process may run on.
pub struct Cpus(Vec<usize>);

impl Cpus {
    pub fn allowed() -> Cpus {
        Cpus(sys::allowed())
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Moves the calling thread to the CPU whose turn `slot` is. A
    /// failed move leaves the thread where it was.
    pub fn pin(&self, slot: u64) {
        if self.0.len() > 1 {
            sys::pin(self.0[(slot % self.0.len() as u64) as usize]);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a `cpu_set_t` (1,024 bits).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed; pid 0
        // is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}
