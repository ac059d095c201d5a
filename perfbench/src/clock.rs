//! The clocks the benchmark reads: wall time and the process's CPU time.
//!
//! CPU time is `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` (Linux): the
//! nanoseconds every thread of this process spent on a CPU. The station
//! runs one thread at a time (`service()` blocks while its one decode
//! worker decodes), so on a dedicated core CPU time equals wall time; on a
//! shared host it leaves out the time the host ran someone else instead.
//! Program CPU time is that, less the CPU time of the host-speed reference
//! calls (`calib`) made between the program's calls.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, less the host-speed
/// reference calls (`calib`), which run between the timed calls.
pub fn cpu_s() -> f64 {
    raw_cpu_s() - crate::calib::spent_s()
}

/// CPU seconds this process has used so far.
pub fn raw_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A reading of the wall clock and of program CPU time ([`cpu_s`]).
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    pub cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Wall seconds from `self` to `later`.
    pub fn wall_to(&self, later: &Stamp) -> f64 {
        later.wall.duration_since(self.wall).as_secs_f64()
    }
}
