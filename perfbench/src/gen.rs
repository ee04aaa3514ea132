//! Seeded input generators. Every workload input is a CSV document built
//! here from the `--seed` argument alone, with a private PRNG so that a
//! change to any repository crate cannot change the inputs.

use std::fmt::Write;

/// The CSV schema every generated document uses: one string grouping
/// column and one integer value column.
pub const SCHEMA: &str = "G:str,V:int";

/// SplitMix64: tiny, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed are
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as i64) as usize;
            items.swap(i, j);
        }
    }
}

/// The grouped-gappy family: per group, `rows` tuples over random
/// intervals `[s, s + L)` with `s ∈ [1, horizon]`, `L ∈ [1, 50)`, and
/// integer values in `100..=1000`. Overlaps and holes make ITA produce
/// many short gap-free runs.
pub fn gappy_csv(seed: u64, groups: usize, rows: usize, horizon: i64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut out = String::with_capacity(groups * rows * 24 + 16);
    out.push_str("G,V,t_start,t_end\n");
    for g in 0..groups {
        for _ in 0..rows {
            let s = rng.range(1, horizon);
            let len = rng.range(1, 49);
            let v = rng.range(100, 1000);
            // Intervals are inclusive in the data model: [s, s + L - 1].
            writeln!(out, "g{g:03},{v},{s},{}", s + len - 1).expect("writing to a String");
        }
    }
    out
}

/// The sensor family: per group, `len` consecutive unit chronons of an
/// integer random walk with steps in `-20..=20`, reflected into
/// `0..=1000`. Each group is one gap-free run.
pub fn sensor_csv(seed: u64, groups: usize, len: usize) -> String {
    let mut rng = Rng::new(seed, 2);
    let mut out = String::with_capacity(groups * len * 16 + 16);
    out.push_str("G,V,t_start,t_end\n");
    for g in 0..groups {
        let mut v = rng.range(300, 700);
        for t in 0..len {
            writeln!(out, "s{g:02},{v},{t},{t}").expect("writing to a String");
            v += rng.range(-20, 20);
            if v < 0 {
                v = -v;
            } else if v > 1000 {
                v = 2000 - v;
            }
        }
    }
    out
}

/// FNV-1a, for fingerprinting output documents.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_input_twice() {
        assert_eq!(gappy_csv(7, 2, 50, 1000), gappy_csv(7, 2, 50, 1000));
        assert_eq!(sensor_csv(7, 3, 40), sensor_csv(7, 3, 40));
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        assert_ne!(gappy_csv(1, 2, 50, 1000), gappy_csv(2, 2, 50, 1000));
        assert_ne!(sensor_csv(1, 3, 40), sensor_csv(2, 3, 40));
    }

    #[test]
    fn sensor_walk_stays_in_range() {
        let csv = sensor_csv(3, 2, 5000);
        for line in csv.lines().skip(1) {
            let v: i64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((0..=1000).contains(&v), "{line}");
        }
    }
}
