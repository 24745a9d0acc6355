//! Host-speed calibration: a fixed computation, independent of the
//! program, timed beside the passes.
//!
//! Besides the second-scale phases that `contention.rs` removes, the
//! shared reference host has slow periods lasting minutes in which every
//! computation runs up to ~1.9× slower, and no pass of the run sees the
//! quiet-host speed. The fastest time of this kernel over a run tracks
//! those periods in part: over twenty one-minute runs its correlation
//! with the corrected pass times was 0.67–0.93. Times are therefore
//! reported at the reference speed, scaled by
//! `REFERENCE_S / fastest kernel time`.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, s, that defines the reference speed: a round figure
/// near its fastest time on the quiet reference host (1.03 ms).
pub const REFERENCE_S: f64 = 1.0e-3;

/// Host seconds of one kernel run: integer arithmetic and data-dependent
/// branches over a table that stays in the L1 cache, so that nothing but
/// the speed the core runs at moves its time.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 1024];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x & 3 {
            0 => acc = acc.wrapping_add(x >> 3),
            1 => acc ^= x.rotate_left(7),
            2 => acc = acc.wrapping_mul(x | 1),
            _ => acc = acc.wrapping_sub(i),
        }
        let slot = ((x >> 20) & 1023) as usize;
        table[slot] = table[slot].wrapping_add(acc);
        if table[slot] & 1 == 1 {
            acc = acc.rotate_right(3);
        }
    }
    black_box((acc, table));
    start.elapsed().as_secs_f64()
}
