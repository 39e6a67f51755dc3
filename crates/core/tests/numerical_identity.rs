//! Outcome identity for the numerical partitioner.
//!
//! A deterministic generator builds device ensembles over p ∈ {2, 3, 8,
//! 64, 256, 512}, with Akima and piecewise models, clean memory-cliff
//! and ±30 % noisy variants, and three problem sizes each. The integer
//! distributions, and whether each solve needed the fixed-point
//! fallback, are folded into one FNV-1a digest per group. The expected
//! digests pin the partitioner's outcomes: a change to the Newton step
//! or the fallback must leave every one of them unchanged.
//!
//! A second test checks the O(p) Newton step itself against the
//! explicit O(p²) product with the Jacobian it solves.
//!
//! Devices are drawn distinct. Two identical devices get continuous
//! shares that differ only by rounding, so they may swap a ±1 unit
//! tie in the integer apportionment; that is not an outcome change.

use fupermod_core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::Point;
use fupermod_num::solve::solve_diag_rank_one;
use fupermod_num::NumError;

/// Knuth's MMIX linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const SIZES: [u64; 7] = [50, 200, 400, 800, 1600, 3200, 6400];
/// Mean units per rank of the three problem sizes of a group: below,
/// around and beyond the typical cliff.
const PER_RANK: [u64; 3] = [300, 1500, 5000];

/// Measured points of one device: linear time up to a cliff, then
/// `slow`× slower, optionally at random sizes with ±30 % multiplicative
/// noise.
fn device_points(rng: &mut Lcg, rank: usize, noisy: bool) -> Vec<Point> {
    // The rank term keeps every device distinct.
    let speed = 20.0 + 200.0 * rng.unit() + 0.01 * rank as f64;
    let cliff = 300.0 + 3000.0 * rng.unit();
    let slow = 2.0 + 6.0 * rng.unit();
    // The noisy variant measures at random sizes, some close together,
    // so noise can make time fall between neighbours: the piecewise
    // model then caps it to an exactly flat segment (zero derivative).
    let sizes: Vec<u64> = if noisy {
        (0..12).map(|_| 20 + rng.next_u64() % 8000).collect()
    } else {
        SIZES.to_vec()
    };
    sizes
        .into_iter()
        .map(|d| {
            let x = d as f64;
            let mut t = if x <= cliff {
                x / speed
            } else {
                cliff / speed + (x - cliff) * slow / speed
            };
            if noisy {
                t *= 1.0 + 0.3 * (2.0 * rng.unit() - 1.0);
            }
            Point::single(d, t)
        })
        .collect()
}

fn build<M: Model + Default>(points: &[Point]) -> M {
    let mut m = M::default();
    for pt in points {
        m.update(*pt).unwrap();
    }
    m
}

#[derive(Default)]
struct Tally {
    newton: usize,
    fallback: usize,
}

/// Partitions each problem size of one group and digests the outcomes.
fn group_digest(p: usize, akima: bool, noisy: bool, tally: &mut Tally) -> u64 {
    let seed = (p as u64) << 8 | u64::from(akima) << 1 | u64::from(noisy);
    let mut rng = Lcg(seed);
    let points: Vec<Vec<Point>> = (0..p).map(|r| device_points(&mut rng, r, noisy)).collect();
    let models: Vec<Box<dyn Model>> = points
        .iter()
        .map(|pts| -> Box<dyn Model> {
            if akima {
                Box::new(build::<AkimaModel>(pts))
            } else {
                Box::new(build::<PiecewiseModel>(pts))
            }
        })
        .collect();
    let refs: Vec<&dyn Model> = models.iter().map(|m| m.as_ref()).collect();

    // With no fallback iterations a failed Newton solve returns the
    // even split, so comparing the two tells which path produced the
    // default result.
    let default = NumericalPartitioner::default();
    let no_fallback = NumericalPartitioner {
        fallback_iters: 0,
        ..default
    };
    let mut h = Fnv::new();
    for per_rank in PER_RANK {
        let total = per_rank * p as u64 + rng.next_u64() % p as u64;
        let sizes = default.partition(total, &refs).unwrap().sizes();
        let used_fallback = sizes != no_fallback.partition(total, &refs).unwrap().sizes();
        if used_fallback {
            tally.fallback += 1;
        } else {
            tally.newton += 1;
        }
        h.write_u64(total);
        h.write_u64(u64::from(used_fallback));
        for d in sizes {
            h.write_u64(d);
        }
    }
    h.0
}

/// `(p, akima, noisy, digest)`, captured from the dense-Newton
/// implementation this partitioner's outcomes are pinned to.
const EXPECTED: [(usize, bool, bool, u64); 24] = [
    (2, true, false, 0x6ae85e521e983197),
    (2, true, true, 0x3c1b1611bfbebf20),
    (2, false, false, 0x285328c77b17115a),
    (2, false, true, 0xcde2a2965ee48212),
    (3, true, false, 0x91aba348b6458064),
    (3, true, true, 0xdfb218592406f9db),
    (3, false, false, 0xa8736026787302ba),
    (3, false, true, 0xd73134abbc04221d),
    (8, true, false, 0xf52359e7e4c7674c),
    (8, true, true, 0xc9f6352fa40c64bd),
    (8, false, false, 0x8893949e83e51298),
    (8, false, true, 0x5db8bd319890cfa4),
    (64, true, false, 0x0b904b6204258b50),
    (64, true, true, 0x47b00091be649256),
    (64, false, false, 0xadc0b5313ec7fb42),
    (64, false, true, 0x4867842ad574192d),
    (256, true, false, 0xb2f28fa5290591a1),
    (256, true, true, 0xb0a087f8c8b7c49e),
    (256, false, false, 0x55bd50101224e94c),
    (256, false, true, 0x5b163638b0fc12f4),
    (512, true, false, 0x0a83d94a8c331df0),
    (512, true, true, 0xc4dc0a76b61575bd),
    (512, false, false, 0xd593bc6b88c575ec),
    (512, false, true, 0x3e9e9270337873d6),
];

#[test]
fn integer_distributions_match_the_pinned_digests() {
    let mut tally = Tally::default();
    let mut got = Vec::new();
    for p in [2usize, 3, 8, 64, 256, 512] {
        for akima in [true, false] {
            for noisy in [false, true] {
                got.push((p, akima, noisy, group_digest(p, akima, noisy, &mut tally)));
            }
        }
    }
    let listing: String = got
        .iter()
        .map(|(p, a, n, d)| format!("    ({p}, {a}, {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, EXPECTED, "digests differ; got:\n{listing}");
    assert!(
        tally.newton > 0 && tally.fallback > 0,
        "generator must reach both paths: {} Newton, {} fallback",
        tally.newton,
        tally.fallback
    );
}

/// A diagonal entry as a model derivative can produce it: mostly a
/// positive slope over several decades, sometimes negative (a
/// non-monotone spline), tiny (rounding on a flat segment) or zero.
fn diagonal_entry(rng: &mut Lcg) -> f64 {
    let u = rng.unit();
    let magnitude = 10f64.powf(-3.0 + 4.0 * rng.unit());
    if u < 0.1 {
        0.0
    } else if u < 0.2 {
        (rng.unit() - 0.5) * 1e-17
    } else if u < 0.35 {
        -magnitude
    } else {
        magnitude
    }
}

#[test]
fn newton_step_matches_the_explicit_jacobian_product() {
    let mut rng = Lcg(0x5eed);
    let mut solved = 0;
    for p in [2usize, 3, 8, 16, 64] {
        let n = p - 1;
        for _ in 0..300 {
            let mut a: Vec<f64> = (0..n).map(|_| diagonal_entry(&mut rng)).collect();
            // At most one exact zero: two make J singular.
            if let Some(first) = a.iter().position(|v| *v == 0.0) {
                for v in &mut a[first + 1..] {
                    if *v == 0.0 {
                        *v = 1.0;
                    }
                }
            }
            let c = match rng.next_u64() % 8 {
                0 => 0.0,
                1 => -10f64.powf(-4.0 + 5.0 * rng.unit()),
                _ => 10f64.powf(-6.0 + 7.0 * rng.unit()),
            };
            let f: Vec<f64> = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();

            let mut s: Vec<f64> = f.iter().map(|v| -v).collect();
            match solve_diag_rank_one(&a, c, &mut s) {
                Ok(()) => solved += 1,
                // Only a zero diagonal with no rank-one part is singular
                // among these draws.
                Err(NumError::SingularMatrix) if c == 0.0 && a.contains(&0.0) => continue,
                Err(e) => panic!("p = {p}: {e} for a = {a:?}, c = {c}"),
            }

            // ‖J·s + F‖∞ against the magnitudes that enter each row.
            let mut worst: f64 = 0.0;
            for i in 0..n {
                let mut row = 0.0;
                let mut scale = f[i].abs();
                for (j, sj) in s.iter().enumerate() {
                    let diag = if i == j { a[i] } else { 0.0 };
                    row += (diag + c) * sj;
                    scale += (diag.abs() + c.abs()) * sj.abs();
                }
                worst = worst.max((row + f[i]).abs() / scale);
            }
            assert!(worst <= 1e-9, "p = {p}: relative residual {worst:e}");
        }
    }
    assert!(solved > 1000, "only {solved} systems solved");
}
