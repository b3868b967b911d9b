//! Fixed, seeded point sets over a fault space, shared by the outcome pins
//! and the allocation ceilings.

use afex::space::{FaultSpace, Point};

/// The last axis (call number, or rule timing) is drawn from its first
/// this-many values, so most plans reach a call the workload makes.
const LOW_CALLS: usize = 10;

/// SplitMix64, the point sets' generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` points of `space` drawn from `seed`: uniform per axis, except the
/// last, which is drawn from its first [`LOW_CALLS`] values.
pub fn points(space: &FaultSpace, seed: u64, n: usize) -> Vec<Point> {
    let mut rng = SplitMix(seed);
    let last = space.arity() - 1;
    (0..n)
        .map(|_| {
            let attrs = space
                .axes()
                .iter()
                .enumerate()
                .map(|(i, axis)| {
                    let len = if i == last {
                        axis.len().min(LOW_CALLS)
                    } else {
                        axis.len()
                    };
                    (rng.next() % len as u64) as usize
                })
                .collect();
            Point::new(attrs)
        })
        .collect()
}
