//! Deterministic pseudo-random number generation.
//!
//! The simulators in this workspace must be exactly reproducible from a
//! seed, independent of the version of any external crate. We therefore
//! implement the generators ourselves:
//!
//! * [`SplitMix64`] — tiny, used for seeding and stream derivation,
//! * [`Xoshiro256StarStar`] — the workhorse generator (Blackman & Vigna),
//! * [`StreamFactory`] — derives independent, reproducible streams, one per
//!   simulated workstation, mirroring CSIM's per-facility random streams.
//!
//! Both generators implement [`rand::RngCore`] so they compose with the
//! `rand` ecosystem where convenient.

use rand::RngCore;

/// SplitMix64 generator (Steele, Lea & Flood).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`] and to derive independent stream seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. All seeds, including 0, are valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[allow(clippy::should_implement_trait)] // established name; RngCore::next_u64 delegates here
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_from_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna, 2018).
///
/// 256 bits of state, period `2^256 - 1`, passes BigCrush. This is the
/// generator used by every stochastic component in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion, as recommended by the authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // The all-zero state is invalid (fixed point); SplitMix64 expansion
        // of any seed cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// The first [`Xoshiro256StarStar::next_f64_open`] of
    /// `Xoshiro256StarStar::new(seed)`, computed from SplitMix64's second
    /// output alone: the first output reads only the second state word,
    /// so the other three are never expanded (and `new`'s all-zero
    /// guard sets only the first).
    #[inline]
    pub fn first_f64_open(seed: u64) -> f64 {
        let mut sm = SplitMix64::new(seed);
        sm.next(); // the first state word
        1.0 - unit_f64(star_star(sm.next()))
    }

    /// Next 64 uniformly distributed bits.
    #[allow(clippy::should_implement_trait)] // established name; RngCore::next_u64 delegates here
    pub fn next(&mut self) -> u64 {
        let result = star_star(self.s[1]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next())
    }

    /// Uniform `f64` in `(0, 1]` — safe as an argument to `ln`.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// The 2^128-step jump function, for manually spacing streams.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for jump_word in JUMP {
            for b in 0..64 {
                if (jump_word & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next();
            }
        }
        self.s = [s0, s1, s2, s3];
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_from_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// The xoshiro256** output scrambler over the second state word.
#[inline]
fn star_star(s1: u64) -> u64 {
    s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// A uniform `f64` in `[0, 1)` from the top 53 of 64 random bits.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 2^-53 scaling of the top 53 bits yields a uniform double in [0,1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn fill_bytes_from_u64<R: RngCore>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Derives independent random streams from a master seed.
///
/// Each simulated workstation (and each stochastic subsystem, e.g. owner
/// think times vs. owner service demands) gets its own stream so that
/// changing the number of workstations does not perturb the sample path of
/// the others — the standard variance-reduction discipline for simulation
/// experiments.
#[derive(Debug, Clone)]
pub struct StreamFactory {
    master: SplitMix64,
    issued: u64,
}

impl StreamFactory {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master: SplitMix64::new(master_seed),
            issued: 0,
        }
    }

    /// Number of streams issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Issue the next independent stream.
    pub fn stream(&mut self) -> Xoshiro256StarStar {
        self.issued += 1;
        Xoshiro256StarStar::new(self.master.next())
    }

    /// Issue a stream tied to a stable `(component, index)` label.
    ///
    /// Unlike [`StreamFactory::stream`], the result does not depend on the
    /// order of issuance, only on the master seed and the label — useful
    /// when workstations are constructed lazily or in parallel.
    pub fn labeled_stream(&self, component: &str, index: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.labeled_seed(component, index))
    }

    /// The seed [`StreamFactory::labeled_stream`] expands for the
    /// `(component, index)` label, for a caller that needs less of the
    /// stream than its whole state, such as
    /// [`Xoshiro256StarStar::first_f64_open`].
    #[inline]
    pub fn labeled_seed(&self, component: &str, index: u64) -> u64 {
        let mut h = SplitMix64::new(self.master.state ^ 0xA076_1D64_78BD_642F);
        let mut acc = h.next();
        for &b in component.as_bytes() {
            acc = acc.rotate_left(8) ^ u64::from(b);
            acc = acc.wrapping_mul(0x100_0000_01B3);
        }
        acc ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next();
        let b = sm.next();
        assert_ne!(a, b);
        // Determinism: same seed, same sequence.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next(), a);
        assert_eq!(sm2.next(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn xoshiro_seeds_differ() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_open_never_zero() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn next_f64_mean_close_to_half() {
        let mut rng = Xoshiro256StarStar::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Xoshiro256StarStar::new(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(13) < 13);
        }
    }

    #[test]
    fn bounded_covers_all_values() {
        let mut rng = Xoshiro256StarStar::new(13);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.next_bounded(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        Xoshiro256StarStar::new(1).next_bounded(0);
    }

    #[test]
    fn jump_decorrelates() {
        let mut a = Xoshiro256StarStar::new(3);
        let mut b = a.clone();
        b.jump();
        let va: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stream_factory_issues_distinct_streams() {
        let mut f = StreamFactory::new(2023);
        let mut s1 = f.stream();
        let mut s2 = f.stream();
        assert_eq!(f.issued(), 2);
        let v1: Vec<u64> = (0..8).map(|_| s1.next()).collect();
        let v2: Vec<u64> = (0..8).map(|_| s2.next()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn stream_factory_reproducible() {
        let mut f1 = StreamFactory::new(77);
        let mut f2 = StreamFactory::new(77);
        assert_eq!(f1.stream().next(), f2.stream().next());
    }

    #[test]
    fn labeled_streams_stable_and_distinct() {
        let f = StreamFactory::new(9);
        let mut a1 = f.labeled_stream("owner-think", 0);
        let mut a2 = f.labeled_stream("owner-think", 0);
        let mut b = f.labeled_stream("owner-think", 1);
        let mut c = f.labeled_stream("owner-demand", 0);
        assert_eq!(a1.next(), a2.next());
        let x = a1.next();
        assert_ne!(x, b.next());
        assert_ne!(x, c.next());
    }

    #[test]
    fn labeled_stream_expands_labeled_seed() {
        let f = StreamFactory::new(9);
        for (c, i) in [
            ("ws-discrete", 0),
            ("ws-discrete", 7 << 32 | 3),
            ("", u64::MAX),
        ] {
            let want = Xoshiro256StarStar::new(f.labeled_seed(c, i));
            assert_eq!(f.labeled_stream(c, i), want, "({c:?}, {i})");
        }
    }

    #[test]
    fn first_f64_open_is_the_first_open_draw() {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut seeds = vec![0, 1, u64::MAX];
        // SplitMix64's state wraps within its first two steps, or is 0
        // after one or two of them.
        for k in [1, 2] {
            for d in [0, 1, u64::MAX] {
                seeds.push(d.wrapping_sub(GAMMA.wrapping_mul(k)));
            }
        }
        let mut pick = SplitMix64::new(2018);
        seeds.extend((0..10_000).map(|_| pick.next()));
        for seed in seeds {
            let want = Xoshiro256StarStar::new(seed).next_f64_open();
            let got = Xoshiro256StarStar::first_f64_open(seed);
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed:#x}");
        }
    }

    #[test]
    fn fill_bytes_works_with_remainder() {
        let mut rng = Xoshiro256StarStar::new(21);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
