//! A small deterministic generator (SplitMix64). The benchmark derives one
//! independent stream per request chain from `(seed, workload, chain
//! index)`, so a chain's bytes never depend on how many chains a run got
//! through or in which order the load generator reached them.

/// SplitMix64's output finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for item `index` of stream family `family` under `seed`.
    pub fn for_item(seed: u64, family: u64, index: u64) -> Rng {
        Rng(mix(mix(seed ^ mix(family)) ^ index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `lo..=hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Log-uniform integer in `lo..=hi`.
    pub fn log_uniform(&mut self, lo: u32, hi: u32) -> u32 {
        let x = f64::from(lo) * (f64::from(hi) / f64::from(lo)).powf(self.unit());
        (x.round() as u32).clamp(lo, hi)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() % items.len() as u64) as usize]
    }
}
