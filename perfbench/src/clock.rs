//! The host clock.
//!
//! The benchmark runs on a shared virtual machine whose vCPUs are
//! descheduled by the hypervisor for milliseconds at a time; a
//! wall-clock interval that straddles such a gap charges it to whatever
//! host call happened to be running. `CLOCK_THREAD_CPUTIME_ID` advances
//! only while the calling thread runs, but one read is a system call
//! costing about as much as a lightly loaded poll. So every host segment
//! is timed by both clocks: its host time is the wall-clock interval,
//! unless that exceeds the thread's CPU time over the same stretch by
//! more than [`LOST_CPU_NS`] — then the thread lost its CPU inside the
//! segment and the CPU time is used. Each clock's read cost, calibrated
//! at start-up, is subtracted from its interval.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[cfg(not(target_os = "linux"))]
compile_error!(
    "the host clock reads CLOCK_THREAD_CPUTIME_ID, which this benchmark only knows on Linux"
);

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clk: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time of the calling thread, in nanoseconds.
pub fn cpu_now() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) that outlives the call; `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall time a segment may exceed its CPU time by before the thread is
/// taken to have lost its CPU inside it.
pub const LOST_CPU_NS: u64 = 1_000;

/// Start of a host segment on both clocks.
pub struct Mark {
    cpu: u64,
    pub wall: Instant,
}

/// Both clocks' calibrated read costs.
pub struct HostClock {
    cpu_oh: u64,
    wall_oh: u64,
}

fn median(mut d: Vec<u64>) -> u64 {
    d.sort_unstable();
    d[d.len() / 2]
}

impl HostClock {
    /// Time 2001 empty segments of each clock; the medians are what the
    /// reads alone add to an interval.
    pub fn calibrate() -> HostClock {
        let wall_oh = median(
            (0..2001)
                .map(|_| {
                    let a = Instant::now();
                    (Instant::now() - a).as_nanos() as u64
                })
                .collect(),
        );
        let cpu_oh = median(
            (0..2001)
                .map(|_| {
                    let a = cpu_now();
                    std::hint::black_box((Instant::now(), Instant::now()));
                    cpu_now() - a
                })
                .collect(),
        );
        HostClock { cpu_oh, wall_oh }
    }

    pub fn start(&self) -> Mark {
        let cpu = cpu_now();
        Mark {
            cpu,
            wall: Instant::now(),
        }
    }

    /// Host time since `m` in ns, and the wall instant the segment ended.
    pub fn stop(&self, m: &Mark) -> (u64, Instant) {
        let end = Instant::now();
        let cpu = cpu_now().saturating_sub(m.cpu).saturating_sub(self.cpu_oh);
        let wall = ((end - m.wall).as_nanos() as u64).saturating_sub(self.wall_oh);
        (if wall > cpu + LOST_CPU_NS { cpu } else { wall }, end)
    }
}
