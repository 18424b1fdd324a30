//! CPU-time clocks.
//!
//! The host is shared, and a thread that another tenant's work pushes
//! off its core keeps going on the wall clock but not on its CPU clock.
//! The in-process drive runs every broker on one thread, so that
//! thread's CPU time is the work the program did for a document or an
//! operation, whatever else the host was doing.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks assume 64-bit Linux (`struct timespec` of two 64-bit fields)");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask (1,024 CPUs).
const MASK_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and both clock ids exist on every Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of the process has used, those that have
/// ended included.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Moves the calling thread over the CPUs it may use, one block of work
/// each, so that no one core's neighbours decide a whole run: the quiet
/// blocks can then come from whichever core was quiet. The thread may
/// use all of them again once the rotation is dropped.
pub struct Rotation {
    allowed: [u64; MASK_WORDS],
    cpus: Vec<usize>,
}

impl Rotation {
    /// A rotation over the CPUs the calling thread may use now.
    pub fn new() -> Rotation {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is a writable mask of the size passed.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, allowed.as_mut_ptr()) };
        if rc != 0 {
            allowed = [0; MASK_WORDS];
        }
        let cpus = (0..MASK_WORDS * 64)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        Rotation { allowed, cpus }
    }

    /// Pins the calling thread to the CPU of block `n`.
    pub fn block(&self, n: u32) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[n as usize % self.cpus.len()];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask);
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::new()
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            set_affinity(&self.allowed);
        }
    }
}

/// Sets the calling thread's CPU mask; a refusal leaves it as it was,
/// which only makes the rotation a no-op.
fn set_affinity(mask: &[u64; MASK_WORDS]) {
    // SAFETY: `mask` is a readable mask of the size passed.
    let _ = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (t0, p0) = (thread(), process());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ i);
        }
        assert!(thread() > t0);
        assert!(process() - p0 >= thread() - t0);
    }
}
