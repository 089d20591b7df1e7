//! A fixed reference computation timed every so often between ops, to
//! read how fast the host runs right now.
//!
//! On a shared host the speed available to one process drifts by tens of
//! percent over minutes (other tenants on the same cores), which moves
//! every timing alike. The end-to-end timings are therefore scaled to a
//! reference host speed: the speed at which this computation takes
//! [`REFERENCE_MS`]. It is a small bytecode interpreter over a 64 KiB
//! table — dispatch, dependent loads, stores and branches, the operation
//! mix of the engines under test — written here so that no change to njc
//! changes it.

use std::hint::black_box;
use std::time::Instant;

const TABLE: usize = 8192;
const ROUNDS: u64 = 24_000;

/// The bytecode: each instruction is one dispatch of the loop below.
const CODE: [u8; 16] = [0, 2, 1, 3, 0, 4, 2, 0, 5, 1, 3, 0, 2, 4, 0, 5];

fn run_once() -> i64 {
    let mut mem = vec![0i64; TABLE];
    let mut acc: i64 = 1;
    for round in 0..ROUNDS {
        for (i, &op) in CODE.iter().enumerate() {
            let slot = (acc as usize).wrapping_add(i) & (TABLE - 1);
            match black_box(op) {
                0 => acc = acc.wrapping_add(mem[slot]),
                1 => mem[slot ^ (round as usize & (TABLE - 1))] = acc,
                2 => acc = acc.wrapping_mul(31) ^ round as i64,
                3 => {
                    if acc & 1 == 0 {
                        acc >>= 1;
                    } else {
                        acc = acc.wrapping_mul(3).wrapping_add(1);
                    }
                }
                4 => acc = acc.rotate_left(7),
                _ => mem[slot] = mem[slot].wrapping_sub(acc),
            }
        }
    }
    black_box(acc)
}

/// What the reference computation takes at reference host speed.
const REFERENCE_MS: f64 = 1.0;

/// Readings of the reference computation's time, taken spread over an
/// interval; the host speed over the interval is from their median.
#[derive(Default)]
pub struct Speedometer {
    readings_ms: Vec<f64>,
    /// Time spent taking readings, to leave out of the interval's wall time.
    pub spent_s: f64,
}

impl Speedometer {
    /// Times one run of the reference computation.
    pub fn read(&mut self) {
        let t = Instant::now();
        black_box(run_once());
        let s = t.elapsed().as_secs_f64();
        self.readings_ms.push(s * 1000.0);
        self.spent_s += s;
    }

    /// How fast the host ran over the readings relative to reference speed
    /// (above 1 is faster): multiply a time measured then by this to scale
    /// it to reference speed.
    pub fn speed(&self) -> f64 {
        let mut v = self.readings_ms.clone();
        v.sort_by(f64::total_cmp);
        REFERENCE_MS / v[v.len() / 2]
    }
}
