//! The calibration loop that host timings are scaled by.
//!
//! The machines this benchmark runs on are shared: on one 2-vCPU VM the
//! same `ladder` run read between 46 and 110 frames/s within an hour, and
//! consecutive 30-second runs differed by up to 40 %. The slowdowns hit
//! all CPU work alike, so the benchmark times a fixed loop between rounds
//! and scales its host timings by how fast that loop ran. Interleaved this
//! way, the loop's time correlated 0.72 (`quality`) and 0.94 (`ladder`)
//! with the median frame time across runs, and scaling halved the
//! run-to-run spread. The loop is the benchmark's own code, so no change to
//! the program can move it.

use std::time::Instant;

/// The loop's median time on the machine the benchmark was defined on (a
/// 2-vCPU Intel Xeon VM at 2.0 GHz). Scaled timings read as that machine
/// at that speed would.
pub const REFERENCE_MS: f64 = 1.6;

/// Runs the loop once: branchy integer and f64 work on an L1-resident
/// table, like the interpreter's inner loop. Returns milliseconds.
pub fn loop_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0.0f64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & 4095;
        let v = table[i];
        if v > 1.0 {
            acc += v * 0.5;
            table[i] = v - 1.0;
        } else {
            acc -= v;
            table[i] = v + 2.0;
        }
    }
    std::hint::black_box((acc, &table));
    1e3 * start.elapsed().as_secs_f64()
}
