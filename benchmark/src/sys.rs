//! The five libc calls the harness needs, declared by hand: std already
//! links libc, and the harness is std-only. Linux, 64-bit (`long` = 64 bits).

use std::ffi::{c_int, c_long};

/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// `struct rusage`: two `timeval`s (4 longs) then 14 `long` counters.
#[repr(C)]
struct RUsage {
    utime_sec: c_long,
    utime_usec: c_long,
    stime_sec: c_long,
    stime_usec: c_long,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    counters: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;
const NVCSW: usize = 12;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn mmap(
        addr: *mut u8,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> c_int;
}

const PROT_READ_WRITE: c_int = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;

/// Map `bytes` of fresh anonymous memory, write one byte into each page so
/// the kernel has to fault it in and zero it, and unmap it again: what a new
/// process pays for its heap, and what the allocator would hide by keeping
/// freed memory. Does nothing if the kernel refuses the mapping.
pub fn touch_fresh_pages(bytes: usize, page: usize) {
    // SAFETY: a private anonymous mapping at an address the kernel picks
    // aliases nothing; every write below is inside it; it is unmapped with
    // the address and length it was mapped with, and not used afterwards.
    unsafe {
        let base = mmap(std::ptr::null_mut(), bytes, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0);
        if base as isize == -1 {
            return;
        }
        for offset in (0..bytes).step_by(page) {
            base.add(offset).write_volatile(1);
        }
        munmap(base, bytes);
    }
}

/// Restrict this process — and every child it spawns afterwards, which
/// inherit the mask — to the highest-numbered CPU it is allowed to use.
/// Returns that CPU, or `None` if the kernel refused either call.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed and
    // the kernel only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// CPU time and voluntary context switches of this process so far, all
/// threads included (also the ones that have already exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_ns: u64,
    pub sys_ns: u64,
    pub voluntary_switches: u64,
}

pub fn usage() -> Usage {
    let mut ru =
        RUsage { utime_sec: 0, utime_usec: 0, stime_sec: 0, stime_usec: 0, counters: [0; 14] };
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout the
    // 64-bit Linux ABI defines (18 longs).
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Usage::default();
    }
    let ns = |sec: c_long, usec: c_long| sec as u64 * 1_000_000_000 + usec as u64 * 1_000;
    Usage {
        user_ns: ns(ru.utime_sec, ru.utime_usec),
        sys_ns: ns(ru.stime_sec, ru.stime_usec),
        voluntary_switches: ru.counters[NVCSW] as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_counts_cpu_time_spent() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = usage();
        assert!(after.user_ns > before.user_ns, "{before:?} -> {after:?}");
    }
}
