//! The calibration pass: a fixed piece of host work that calls nothing in
//! the simulator, run by the parent before and after every rep, so that a
//! rep's host time can be read against how fast the box was just then.
//!
//! The box this runs on is a few vCPUs of a shared host, and its speed moves
//! by tens of percent for seconds to minutes at a time, for every kind of
//! work at once (README, "Why calibrated"). A rep's wall divided by the two
//! passes around it moves about half as much as the wall itself. Because the
//! pass shares no code with the simulator, a change to the simulator moves
//! the rep and not the pass, so a gain or a regression shows undiminished.
//!
//! The pass mixes the kinds of work a simulation does on the host — dependent
//! arithmetic, independent floating point, page-sized copies, cache-missing
//! loads, first-touch page faults, and two threads handing a baton through a
//! mutex and a condition variable — in roughly equal shares of ~10 ms each,
//! since the six workloads weigh them differently and one pass serves all.

use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::sys;

/// About what one pass takes between reps on the box the first numbers were
/// measured on (medians of 44-46 ms per run; 38 ms at its fastest).
/// Calibrated seconds are measured seconds times this over the passes around
/// the rep: seconds on that box at that speed. The value only sets the unit;
/// changing it moves every calibrated number by the same factor.
pub const NOMINAL_PASS_NS: f64 = 45e6;

const STREAM_BYTES: usize = 32 << 20;
const CHASE_SLOTS: usize = (4 << 20) / 4;
const CHASE_LOADS: usize = 40_000;
const FAULT_BYTES: usize = 12 << 20;
const HANDOFFS: u32 = 2_000;
const PAGE: usize = 4096;

pub struct Calibrator {
    src: Vec<u8>,
    dst: Vec<u8>,
    /// One cycle through every slot, in shuffled order.
    next: Vec<u32>,
    /// What the latest pass took.
    last_ns: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut next = vec![0u32; CHASE_SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % CHASE_SLOTS];
        }
        let mut cal = Calibrator {
            src: vec![1; STREAM_BYTES],
            dst: vec![0; STREAM_BYTES],
            next,
            last_ns: 0.0,
        };
        // This pass also faults the buffers in, so it is a slow one; it only
        // ever stands before a warm-up rep, whose times are dropped.
        cal.pass();
        cal
    }

    /// Run `work` between the latest pass and a new one. Returns what `work`
    /// returned and the mean of the two passes in host nanoseconds: how long
    /// a pass took while `work` ran, as near as can be told from outside it.
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last_ns;
        let out = work();
        self.pass();
        (out, (before + self.last_ns) / 2.0)
    }

    fn pass(&mut self) {
        let start = Instant::now();

        let mut x = black_box(88_172_645_463_325_252_u64);
        for _ in 0..5_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);

        let mut acc = [1.0f64; 8];
        for i in 0..5_000_000u64 {
            let f = i as f64;
            for a in &mut acc {
                *a = *a * 1.000_000_1 + f;
            }
        }
        black_box(acc);

        for (d, s) in self.dst.chunks_exact_mut(PAGE).zip(self.src.chunks_exact(PAGE)) {
            d.copy_from_slice(s);
        }
        self.src[0] = black_box(&self.dst)[PAGE];

        let mut slot = 0u32;
        for _ in 0..CHASE_LOADS {
            slot = self.next[slot as usize];
        }
        black_box(slot);

        sys::touch_fresh_pages(FAULT_BYTES, PAGE);

        // The baton counts hand-offs: at an even count it is ours to pass,
        // at an odd one the helper's.
        let baton = (Mutex::new(0u32), Condvar::new());
        let pass_when = |parity: u32| {
            for _ in 0..HANDOFFS {
                let (count, changed) = &baton;
                let mut held =
                    changed.wait_while(count.lock().unwrap(), |c| *c % 2 != parity).unwrap();
                *held += 1;
                changed.notify_one();
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| pass_when(1));
            pass_when(0);
        });

        self.last_ns = start.elapsed().as_nanos() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bracket_returns_the_work_and_a_positive_pass_time() {
        let mut cal = Calibrator::new();
        let first = cal.last_ns;
        let (out, pass_ns) = cal.bracket(|| 7);
        assert_eq!(out, 7);
        assert!(first > 0.0 && cal.last_ns > 0.0);
        assert_eq!(pass_ns, (first + cal.last_ns) / 2.0);
    }
}
