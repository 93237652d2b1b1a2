//! splitmix64: the harness owns its randomness, so inputs are a pure
//! function of `(workload, seed)` and independent of the `rand` stand-in
//! the engines' own tests use.

#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for a named purpose (graph, point queries,
    /// flip script, …): streams of one seed never share a prefix.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = SplitMix64(seed);
        let mut s = h.next_u64();
        for b in purpose.bytes() {
            s = SplitMix64(s ^ u64::from(b)).next_u64();
        }
        SplitMix64(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}
