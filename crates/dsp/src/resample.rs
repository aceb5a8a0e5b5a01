//! Fractional-delay interpolation (Farrow cubic) — the timing-correction
//! actuator of both demodulators.
//!
//! The Gardner loop and the Oerder–Meyr estimator both *measure* a timing
//! error; applying it requires evaluating the received waveform between
//! samples. The piecewise-parabolic/cubic Farrow structure interpolates with
//! four neighbouring samples and a fractional phase `µ ∈ [0, 1)`.
//!
//! The same interpolator, at the fixed positions `j/M`, is the ground
//! terminal's ×M upsampler: [`Upconverter`].

use crate::complex::Cpx;
use crate::nco::Nco;

/// Cubic Lagrange interpolator over a 4-sample window.
///
/// `interpolate(µ)` evaluates the waveform at position `x[n-2] + µ` where
/// `x[n]` is the most recently pushed sample (i.e. between the two middle
/// samples of the window).
#[derive(Clone, Copy, Debug, Default)]
pub struct FarrowInterpolator {
    /// Window: `w[0]` oldest … `w[3]` newest.
    w: [Cpx; 4],
    primed: u8,
}

impl FarrowInterpolator {
    /// New interpolator with a zeroed window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes the next input sample into the window.
    #[inline]
    pub fn push(&mut self, x: Cpx) {
        self.w[0] = self.w[1];
        self.w[1] = self.w[2];
        self.w[2] = self.w[3];
        self.w[3] = x;
        if self.primed < 4 {
            self.primed += 1;
        }
    }

    /// `true` once four samples have been pushed.
    #[inline]
    pub fn ready(&self) -> bool {
        self.primed >= 4
    }

    /// Cubic Lagrange evaluation at fractional offset `mu ∈ [0, 1)` between
    /// `w[1]` and `w[2]`.
    #[inline]
    pub fn interpolate(&self, mu: f64) -> Cpx {
        self.apply(&Self::coefficients(mu))
    }

    /// The four Lagrange weights (basis over `t = -1, 0, 1, 2` evaluated at
    /// `t = mu`) that [`FarrowInterpolator::apply`] combines the window
    /// with — split out so a fixed set of positions can be tabled.
    #[inline]
    fn coefficients(mu: f64) -> [f64; 4] {
        debug_assert!((0.0..=1.0).contains(&mu));
        let m = mu;
        [
            -m * (m - 1.0) * (m - 2.0) / 6.0,
            (m + 1.0) * (m - 1.0) * (m - 2.0) / 2.0,
            -m * (m + 1.0) * (m - 2.0) / 2.0,
            m * (m + 1.0) * (m - 1.0) / 6.0,
        ]
    }

    /// Weighted sum of the window with precomputed
    /// [`FarrowInterpolator::coefficients`].
    #[inline]
    fn apply(&self, c: &[f64; 4]) -> Cpx {
        self.w[0].scale(c[0])
            + self.w[1].scale(c[1])
            + self.w[2].scale(c[2])
            + self.w[3].scale(c[3])
    }

    /// Resets the window.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Integer-factor upconverter: upsamples by `M` with the cubic Farrow
/// interpolator and mixes the result onto a carrier — a ground terminal's
/// Tx lane ahead of the FDM sum.
///
/// With an integer factor every output sits at an interpolation position
/// `µ = j/M`, so the `M` coefficient sets are computed once instead of per
/// sample. The carrier's local oscillator is tabled the same way: `M`
/// samples, the first `M` ticks of the carrier's own
/// [`Nco::from_step`]. For a carrier `k/M` of the output rate the LO is
/// `M`-periodic, so output `j` of every input sample is
/// `apply(window, c_j) · lo[j]` — no per-sample `sin_cos` or phase wrap.
#[derive(Clone, Debug)]
pub struct Upconverter {
    farrow: FarrowInterpolator,
    /// Output `j` of each input sample: the Farrow coefficients at
    /// `µ = j/M` and the LO sample `lo[j]` (one LO period over `j`).
    taps: Vec<([f64; 4], Cpx)>,
}

impl Upconverter {
    /// Upconverter by `factor` (a power of two, so that every `j/factor`
    /// is exact in binary) onto a carrier advancing `carrier_step` radians
    /// per output sample.
    pub fn new(factor: usize, carrier_step: f64) -> Self {
        assert!(
            factor.is_power_of_two(),
            "upconversion factor must be a power of two"
        );
        let mut nco = Nco::from_step(carrier_step);
        let taps = (0..factor)
            .map(|j| {
                let c = FarrowInterpolator::coefficients(j as f64 / factor as f64);
                (c, nco.tick())
            })
            .collect();
        Upconverter {
            farrow: FarrowInterpolator::new(),
            taps,
        }
    }

    /// Returns the upconverter to its freshly-built state (empty window)
    /// while keeping its taps.
    pub fn reset(&mut self) {
        self.farrow.reset();
    }

    /// Pushes one input sample, appending the `factor` output samples it
    /// completes to `out` (none until the 4-sample window has filled).
    #[inline]
    pub fn push(&mut self, x: Cpx, out: &mut Vec<Cpx>) {
        self.farrow.push(x);
        if !self.farrow.ready() {
            return;
        }
        let w = &self.farrow;
        out.extend(self.taps.iter().map(|(c, lo)| w.apply(c) * *lo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_at_sample_points_is_exact() {
        let mut f = FarrowInterpolator::new();
        for v in [1.0, 2.0, -3.0, 5.0] {
            f.push(Cpx::new(v, -v));
        }
        assert!((f.interpolate(0.0) - Cpx::new(2.0, -2.0)).abs() < 1e-12);
        assert!((f.interpolate(1.0) - Cpx::new(-3.0, 3.0)).abs() < 1e-12);
    }

    #[test]
    fn interpolates_cubic_polynomial_exactly() {
        // Cubic interpolation reproduces any cubic exactly.
        let poly = |t: f64| 0.5 * t * t * t - 1.2 * t * t + 0.3 * t + 2.0;
        let mut f = FarrowInterpolator::new();
        for t in [-1.0, 0.0, 1.0, 2.0] {
            f.push(Cpx::new(poly(t), 0.0));
        }
        for &mu in &[0.1, 0.25, 0.5, 0.77, 0.99] {
            assert!((f.interpolate(mu).re - poly(mu)).abs() < 1e-10, "mu {mu}");
        }
    }

    #[test]
    fn interpolates_sine_accurately() {
        // A well-oversampled sinusoid should interpolate to <1% error.
        let omega = 0.2; // rad/sample — ~31x oversampled
        let wave = |t: f64| Cpx::new((omega * t).sin(), (omega * t).cos());
        let mut f = FarrowInterpolator::new();
        for t in 0..4 {
            f.push(wave(t as f64));
        }
        for &mu in &[0.3, 0.5, 0.8] {
            let got = f.interpolate(mu);
            let want = wave(1.0 + mu);
            assert!((got - want).abs() < 1e-4, "mu {mu}");
        }
    }

    /// The upconversion path the pipeline's Tx lanes ran before the
    /// upconverter: a Farrow resampler stepping `µ` by `1/M` from zero,
    /// then a free-running NCO mixing every output sample.
    fn oracle_upconvert(m: usize, carrier_step: f64, wave: &[Cpx]) -> Vec<Cpx> {
        let mut farrow = FarrowInterpolator::new();
        let step = 1.0 / m as f64;
        let mut next_pos = 0.0;
        let mut out = Vec::new();
        for &x in wave {
            farrow.push(x);
            if !farrow.ready() {
                continue;
            }
            while next_pos < 1.0 {
                out.push(farrow.interpolate(next_pos));
                next_pos += step;
            }
            next_pos -= 1.0;
        }
        let mut nco = Nco::from_step(carrier_step);
        for s in out.iter_mut() {
            *s = nco.mix(*s);
        }
        out
    }

    fn upconvert(up: &mut Upconverter, wave: &[Cpx]) -> Vec<Cpx> {
        let mut out = Vec::new();
        for &x in wave {
            up.push(x, &mut out);
        }
        out
    }

    fn carrier_step(k: usize, m: usize) -> f64 {
        std::f64::consts::TAU * k as f64 / m as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(50))]

        #[test]
        fn upconverter_is_bitwise_the_resampler_and_nco(
            k in 0usize..=6,
            burst in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 4..400),
        ) {
            // M = 8 with up to seven carriers: the NCO's accumulated phase
            // returns exactly to zero after 8 ticks, so the tabled LO is
            // the free-running one, sample for sample.
            let wave: Vec<Cpx> = burst.iter().map(|&(re, im)| Cpx::new(re, im)).collect();
            let got = upconvert(&mut Upconverter::new(8, carrier_step(k, 8)), &wave);
            let want = oracle_upconvert(8, carrier_step(k, 8), &wave);
            proptest::prop_assert_eq!(got.len(), (wave.len() - 3) * 8);
            proptest::prop_assert!(got == want, "carrier {} diverged", k);
        }
    }

    #[test]
    fn reset_matches_fresh_upconverter() {
        let mut used = Upconverter::new(8, carrier_step(3, 8));
        let mut sink = Vec::new();
        for i in 0..37 {
            used.push(Cpx::new(i as f64, -1.0), &mut sink);
        }
        used.reset();
        let mut fresh = Upconverter::new(8, carrier_step(3, 8));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for t in 0..50 {
            let x = Cpx::from_angle(0.21 * t as f64);
            used.push(x, &mut a);
            fresh.push(x, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn upsampling_preserves_waveform() {
        let omega = 0.15;
        let mut up = Upconverter::new(2, 0.0);
        let wave: Vec<Cpx> = (0..200)
            .map(|t| Cpx::from_angle(omega * t as f64))
            .collect();
        let out = upconvert(&mut up, &wave);
        // Output sample k corresponds to input time k/2 with a 1-sample
        // window offset; verify against the continuous wave.
        let mut err_max: f64 = 0.0;
        for (k, s) in out.iter().enumerate().skip(10).take(300) {
            let t = k as f64 / 2.0 + 1.0; // window centring offset
            let want = Cpx::from_angle(omega * t);
            err_max = err_max.max((*s - want).abs());
        }
        assert!(err_max < 5e-3, "max error {err_max}");
    }

    #[test]
    fn upconverter_lands_on_its_carrier() {
        // A DC burst upconverted onto carrier k/M is a tone at k/M: after
        // mixing back down the output is flat.
        let (m, k) = (8, 5);
        let out = upconvert(
            &mut Upconverter::new(m, carrier_step(k, m)),
            &[Cpx::ONE; 20],
        );
        let mut down = Nco::from_step(-carrier_step(k, m));
        for s in out {
            assert!((down.mix(s) - Cpx::ONE).abs() < 1e-9);
        }
    }
}
