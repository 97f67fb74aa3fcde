//! The Hopkins aerial-image simulator and its adjoint (gradient).
//!
//! Implements Eq. (1)–(3) of the paper: the aerial image is
//! `I = sum_i w_i |IFFT(H_i . FFT(M))|^2`, where each `H_i` occupies only a
//! small centered support of the spectrum, so the per-kernel product touches
//! `P^2` bins while the transforms dominate the cost. The adjoint
//! ([`LithoSimulator::gradient_into`]) backpropagates a loss derivative `dL/dI` to the mask:
//! `dL/dM = 2 Re IFFT( sum_i w_i conj(H_i) . FFT((dL/dI) . A_i) )`.
//!
//! # Hot-path engineering
//!
//! The simulate/gradient pair is the inner loop of every ILT solver, so it
//! is built to run allocation-free at steady state and to parallelise
//! deterministically:
//!
//! * Masks and loss derivatives are real, so their spectra are conjugate
//!   symmetric. The mask forward, the per-kernel gradient forwards and the
//!   final adjoint inverse therefore run as real-input transforms on
//!   Hermitian half-spectra ([`Rfft2d`]), roughly halving their work; the
//!   crop-multiply reads the missing half through the symmetry.
//! * [`SimWorkspace`] is a scratch arena holding every buffer the two
//!   passes need (mask half-spectrum, per-kernel fields, per-kernel adjoint
//!   partials, per-worker scratch, the adjoint accumulator, and the output
//!   grids). [`LithoSimulator::simulate_into`] /
//!   [`LithoSimulator::gradient_into`] reuse it across iterations without
//!   touching the heap.
//! * Per-kernel work (the `K` inverse transforms of the forward pass, the
//!   `K` forward transforms of the adjoint) is spread across an
//!   [`ilt_par::InnerPool`]. Each kernel writes its own buffer and all
//!   cross-kernel reductions happen serially in kernel order afterwards, so
//!   results are **bit-identical** for any thread count.
//! * Per-kernel inverses use [`Fft2d::inverse_support`], skipping the
//!   `n - P` first-pass transforms of rows that the `P x P` crop-multiply
//!   left zero.

use ilt_fft::{spectral, Complex, Fft2d, Rfft2d};
use ilt_grid::{Grid, RealGrid};
use ilt_par::InnerPool;

use crate::error::LithoError;
use crate::kernels::KernelSet;

/// A reusable aerial-image simulator for square `n x n` masks.
#[derive(Debug)]
pub struct LithoSimulator {
    n: usize,
    fft: Fft2d,
    rfft: Rfft2d,
    kernels: KernelSet,
    /// `bin[i]` is the unshifted spectrum index of centered support row or
    /// column `i`.
    bin: Vec<usize>,
    /// Stored half-spectrum columns (`0..=n/2`) the Hermitianised adjoint
    /// accumulator can touch: the support columns and their reflections.
    rbin_cols: Vec<usize>,
    /// Worker pool for per-kernel and per-row-batch parallelism. Serial by
    /// default; see [`LithoSimulator::with_inner_pool`].
    pool: InnerPool,
}

/// Reusable scratch arena for [`LithoSimulator::simulate_into`] and
/// [`LithoSimulator::gradient_into`].
///
/// Holds every intermediate buffer of the forward and adjoint passes so
/// steady-state solver iterations perform no heap allocation. Create one
/// with [`LithoSimulator::workspace`] and reuse it across iterations; if it
/// is ever handed to a simulator of a different shape it transparently
/// reallocates (counted on the `litho.workspace.realloc` telemetry
/// counter).
#[derive(Debug)]
pub struct SimWorkspace {
    n: usize,
    /// Mask half-spectrum in transposed `(n/2+1) x n` layout.
    half_spectrum: Vec<Complex>,
    /// Real-transform scratch, `(n/2+1) * n`.
    rscratch: Vec<Complex>,
    /// Hermitianised adjoint half-spectrum accumulator, `(n/2+1) * n`.
    raccum: Vec<Complex>,
    /// Per-kernel fields `A_i`, each `n^2`.
    fields: Vec<Vec<Complex>>,
    /// Per-kernel adjoint support products, each `P^2`.
    partials: Vec<Vec<Complex>>,
    /// Per-worker dense scratch for the adjoint forward transforms, each
    /// `n^2`.
    scratch: Vec<Vec<Complex>>,
    /// The aerial image written by the forward pass.
    intensity: RealGrid,
    /// The mask gradient written by the adjoint pass.
    grad: RealGrid,
}

impl SimWorkspace {
    fn new(n: usize, kernel_count: usize, support: usize, workers: usize) -> Self {
        let cells = n * n;
        let half_len = (n / 2 + 1) * n;
        SimWorkspace {
            n,
            half_spectrum: vec![Complex::ZERO; half_len],
            rscratch: vec![Complex::ZERO; half_len],
            raccum: vec![Complex::ZERO; half_len],
            fields: (0..kernel_count)
                .map(|_| vec![Complex::ZERO; cells])
                .collect(),
            partials: (0..kernel_count)
                .map(|_| vec![Complex::ZERO; support * support])
                .collect(),
            scratch: (0..workers.max(1))
                .map(|_| vec![Complex::ZERO; cells])
                .collect(),
            intensity: Grid::new(n, n, 0.0),
            grad: Grid::new(n, n, 0.0),
        }
    }

    /// Grid edge length this workspace is currently sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The aerial image produced by the most recent
    /// [`LithoSimulator::simulate_into`].
    #[inline]
    pub fn intensity(&self) -> &RealGrid {
        &self.intensity
    }

    /// Per-kernel fields produced by the most recent
    /// [`LithoSimulator::simulate_into`].
    #[inline]
    pub fn fields(&self) -> &[Vec<Complex>] {
        &self.fields
    }

    /// The mask gradient produced by the most recent
    /// [`LithoSimulator::gradient_into`].
    #[inline]
    pub fn grad(&self) -> &RealGrid {
        &self.grad
    }

    /// Resizes any buffer that does not match the requested shape.
    /// Steady-state calls compare a handful of lengths and touch nothing.
    fn ensure(&mut self, n: usize, kernel_count: usize, support: usize, workers: usize) {
        let cells = n * n;
        let p2 = support * support;
        let workers = workers.max(1);
        let half_len = (n / 2 + 1) * n;
        let shape_ok = self.n == n
            && self.half_spectrum.len() == half_len
            && self.rscratch.len() == half_len
            && self.raccum.len() == half_len
            && self.fields.len() == kernel_count
            && self.fields.iter().all(|f| f.len() == cells)
            && self.partials.len() == kernel_count
            && self.partials.iter().all(|p| p.len() == p2)
            && self.scratch.len() >= workers
            && self.scratch.iter().all(|s| s.len() == cells)
            && self.intensity.width() == n
            && self.intensity.height() == n
            && self.grad.width() == n
            && self.grad.height() == n;
        if !shape_ok {
            ilt_telemetry::counter_add("litho.workspace.realloc", 1);
            *self = SimWorkspace::new(n, kernel_count, support, workers);
        }
    }
}

impl LithoSimulator {
    /// Creates a simulator for `n x n` masks using the given (already
    /// scaled) kernel set.
    ///
    /// The simulator starts with the process-configured inner pool
    /// ([`InnerPool::current`], i.e. the `ILT_INNER_THREADS` budget); use
    /// [`LithoSimulator::with_inner_pool`] to override it explicitly.
    ///
    /// # Errors
    ///
    /// * [`LithoError::GridMismatch`] if the kernel support exceeds `n`;
    /// * [`LithoError::Fft`] if `n` is not a power of two of at least 2.
    pub fn new(n: usize, kernels: KernelSet) -> Result<Self, LithoError> {
        if kernels.support() > n {
            return Err(LithoError::GridMismatch {
                grid: n,
                support: kernels.support(),
            });
        }
        let fft = Fft2d::new(n, n)?;
        let rfft = Rfft2d::new(n)?;
        let p = kernels.support();
        let half = p as i64 / 2;
        let bin: Vec<usize> = (0..p)
            .map(|i| spectral::wrap_index(i as i64 - half, n))
            .collect();
        // Stored columns the Hermitianised adjoint accumulator can touch:
        // every support column that lands in the stored half, plus the
        // stored image of every support column's reflection.
        let hw = n / 2 + 1;
        let mut rbin_cols: Vec<usize> = bin
            .iter()
            .flat_map(|&c| {
                let refl = (n - c) % n;
                [(c < hw).then_some(c), (refl < hw).then_some(refl)]
            })
            .flatten()
            .collect();
        rbin_cols.sort_unstable();
        rbin_cols.dedup();
        Ok(LithoSimulator {
            n,
            fft,
            rfft,
            kernels,
            bin,
            rbin_cols,
            pool: InnerPool::current(),
        })
    }

    /// Returns `self` with the given inner pool (builder style).
    #[must_use]
    pub fn with_inner_pool(mut self, pool: InnerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Replaces the inner pool used for per-kernel parallelism.
    pub fn set_inner_pool(&mut self, pool: InnerPool) {
        self.pool = pool;
    }

    /// The inner pool currently in use.
    #[inline]
    pub fn inner_pool(&self) -> InnerPool {
        self.pool
    }

    /// Simulation grid edge length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel set in use.
    #[inline]
    pub fn kernels(&self) -> &KernelSet {
        &self.kernels
    }

    /// Creates a scratch arena sized for this simulator and its pool.
    pub fn workspace(&self) -> SimWorkspace {
        SimWorkspace::new(
            self.n,
            self.kernels.len(),
            self.kernels.support(),
            self.pool.threads(),
        )
    }

    /// Runs the forward model into a reusable workspace: the aerial image
    /// lands in [`SimWorkspace::intensity`], the per-kernel fields (needed
    /// by the adjoint) in [`SimWorkspace::fields`]. Performs no heap
    /// allocation when the workspace already matches this simulator.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::MaskShape`] if the mask is not `n x n`.
    pub fn simulate_into(&self, mask: &RealGrid, ws: &mut SimWorkspace) -> Result<(), LithoError> {
        ilt_telemetry::counter_add("litho.simulate", 1);
        self.check_shape(mask)?;
        let n = self.n;
        let p = self.kernels.support();
        ws.ensure(n, self.kernels.len(), p, self.pool.threads());

        // The mask is real: a half-length rfft produces the stored half of
        // its conjugate-symmetric spectrum; the crop-multiply reads the
        // missing half through the symmetry.
        self.rfft.forward(
            mask.as_slice(),
            &mut ws.half_spectrum,
            &mut ws.rscratch,
            &self.pool,
        )?;
        let kernels = self.kernels.iter().as_slice();
        let bin = &self.bin;
        let fft = &self.fft;
        let hw = n / 2 + 1;
        let half = &ws.half_spectrum;
        // Per-kernel crop-multiply + sparse inverse, one kernel per buffer:
        // disjoint writes, so the pool changes nothing about the result.
        self.pool.for_each_mut(&mut ws.fields, |k, field| {
            let h = kernels[k].spectrum();
            field.fill(Complex::ZERO);
            for r in 0..p {
                let rr = bin[r];
                let row = rr * n;
                for c in 0..p {
                    let cc = bin[c];
                    // Hermitian lookup: stored columns are transposed
                    // (column-contiguous), mirrored columns conjugate.
                    let m = if cc < hw {
                        half[cc * n + rr]
                    } else {
                        half[(n - cc) * n + (n - rr) % n].conj()
                    };
                    field[row + cc] = m * h[r * p + c];
                }
            }
            fft.inverse_support(field, bin)
                .expect("field buffer matches plan by construction");
        });

        // Intensity reduction stays serial and in kernel order so the sum
        // is bit-identical regardless of the pool.
        ws.intensity.as_mut_slice().fill(0.0);
        for (kernel, field) in kernels.iter().zip(&ws.fields) {
            let w = kernel.weight();
            for (acc, z) in ws.intensity.as_mut_slice().iter_mut().zip(field) {
                *acc += w * z.norm_sqr();
            }
        }
        Ok(())
    }

    /// Convenience wrapper returning only the aerial image (allocates a
    /// workspace per call; solver loops use
    /// [`LithoSimulator::simulate_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`LithoSimulator::simulate_into`].
    pub fn aerial_image(&self, mask: &RealGrid) -> Result<RealGrid, LithoError> {
        let mut ws = self.workspace();
        self.simulate_into(mask, &mut ws)?;
        Ok(ws.intensity)
    }

    /// Backpropagates `dL/dI` using the fields left in the workspace by the
    /// preceding [`LithoSimulator::simulate_into`] call. The gradient lands
    /// in [`SimWorkspace::grad`] (also returned by reference). Performs no
    /// heap allocation when the workspace already matches this simulator.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::MaskShape`] if `dldi` is not `n x n`.
    pub fn gradient_into<'w>(
        &self,
        ws: &'w mut SimWorkspace,
        dldi: &RealGrid,
    ) -> Result<&'w RealGrid, LithoError> {
        ilt_telemetry::counter_add("litho.gradient", 1);
        self.check_shape(dldi)?;
        let n = self.n;
        let p = self.kernels.support();
        ws.ensure(n, self.kernels.len(), p, self.pool.threads());

        // Per-kernel: scratch = A_i . dL/dI, forward transform, then record
        // the weighted conjugate-kernel product on the P x P support only.
        // Each kernel owns its partial buffer; workers never share scratch.
        let kernels = self.kernels.iter().as_slice();
        let bin = &self.bin;
        let fft = &self.fft;
        let fields = &ws.fields;
        let dldi_slice = dldi.as_slice();
        self.pool.for_each_with_scratch(
            &mut ws.partials,
            &mut ws.scratch,
            |k, partial, scratch| {
                for ((dst, a), &g) in scratch.iter_mut().zip(&fields[k]).zip(dldi_slice) {
                    *dst = a.scale(g);
                }
                let adj = kernels[k].adjoint_spectrum();
                // Only the P support columns of the spectrum are read
                // below, so the forward can skip the other column
                // transforms. The result is transposed; the pool slot is
                // already a worker, so the column pass stays serial.
                fft.forward_support_transposed(scratch, bin, &InnerPool::serial())
                    .expect("scratch buffer matches plan by construction");
                for r in 0..p {
                    for c in 0..p {
                        let idx = bin[c] * n + bin[r];
                        partial[r * p + c] = scratch[idx] * adj[r * p + c];
                    }
                }
            },
        );

        // Fixed-order Hermitianised reduction: accumulate S + R(S) where
        // R(S)(r,c) = conj(S((n-r)%n, (n-c)%n)), so the inverse rfft of the
        // half-spectrum yields 2.Re(IFFT(S)) = dL/dM directly (the trailing
        // x2 of the adjoint is absorbed here).
        let hw = n / 2 + 1;
        ws.raccum.fill(Complex::ZERO);
        for partial in &ws.partials {
            for r in 0..p {
                let rr = bin[r];
                let r2 = (n - rr) % n;
                for c in 0..p {
                    let cc = bin[c];
                    let v = partial[r * p + c];
                    if cc < hw {
                        ws.raccum[cc * n + rr] += v;
                    }
                    let c2 = (n - cc) % n;
                    if c2 < hw {
                        ws.raccum[c2 * n + r2] += v.conj();
                    }
                }
            }
        }
        // Only the support columns (and their reflections) are nonzero, so
        // the inverse skips the rest of the first-pass transforms.
        self.rfft.inverse_support_scaled(
            &mut ws.raccum,
            ws.grad.as_mut_slice(),
            &mut ws.rscratch,
            Some(&self.rbin_cols),
            1.0,
            &self.pool,
        )?;
        Ok(&ws.grad)
    }

    fn check_shape(&self, grid: &RealGrid) -> Result<(), LithoError> {
        if grid.width() != self.n || grid.height() != self.n {
            return Err(LithoError::MaskShape {
                expected: self.n,
                actual: (grid.width(), grid.height()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelSet;
    use crate::optics::OpticsConfig;
    use ilt_grid::{Grid, Rect};

    fn simulator() -> LithoSimulator {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        LithoSimulator::new(cfg.base_n, kernels).unwrap()
    }

    fn wavy_mask(n: usize) -> RealGrid {
        Grid::from_fn(n, n, |x, y| {
            0.3 + 0.2 * ((x as f64 * 0.3).sin() * (y as f64 * 0.21).cos())
        })
    }

    #[test]
    fn rejects_oversized_support() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        assert!(matches!(
            LithoSimulator::new(16, kernels),
            Err(LithoError::GridMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_mask_shape() {
        let sim = simulator();
        let mask = Grid::new(32, 32, 0.0);
        assert!(matches!(
            sim.aerial_image(&mask),
            Err(LithoError::MaskShape { .. })
        ));
        let good = Grid::new(sim.n(), sim.n(), 0.5);
        let mut ws = sim.workspace();
        sim.simulate_into(&good, &mut ws).unwrap();
        assert!(matches!(
            sim.gradient_into(&mut ws, &mask),
            Err(LithoError::MaskShape { .. })
        ));
    }

    #[test]
    fn clear_field_prints_at_unity() {
        let sim = simulator();
        let mask = Grid::new(sim.n(), sim.n(), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        for (_, _, &v) in aerial.iter() {
            assert!((v - 1.0).abs() < 1e-9, "clear field intensity {v}");
        }
    }

    #[test]
    fn dark_field_prints_nothing() {
        let sim = simulator();
        let mask = Grid::new(sim.n(), sim.n(), 0.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        assert!(aerial.max() < 1e-12);
    }

    #[test]
    fn intensity_is_nonnegative_and_bounded() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(20, 20, 44, 44), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        assert!(aerial.min() >= 0.0);
        // A binary mask can slightly overshoot 1 via ringing, but not wildly.
        assert!(aerial.max() < 1.6, "max {}", aerial.max());
    }

    #[test]
    fn image_is_blurred_version_of_mask() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(24, 24, 40, 40), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        // Bright inside, dim far away, intermediate at the edge.
        assert!(aerial.get(32, 32) > 0.4);
        assert!(aerial.get(4, 4) < 0.05);
        let edge = aerial.get(24, 32);
        assert!(edge > 0.1 && edge < aerial.get(32, 32));
    }

    #[test]
    fn shift_invariance() {
        // Shifting the mask shifts the image (circularly).
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(10, 12, 22, 20), 1.0);
        let a = sim.aerial_image(&mask).unwrap();
        let mut shifted = Grid::new(n, n, 0.0);
        shifted.fill_rect(Rect::new(15, 12, 27, 20), 1.0);
        let b = sim.aerial_image(&shifted).unwrap();
        for y in 0..n {
            for x in 0..n - 5 {
                assert!((a.get(x, y) - b.get(x + 5, y)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fields_match_intensity() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(16, 16, 48, 32), 1.0);
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let recomputed: f64 = sim
            .kernels()
            .iter()
            .zip(ws.fields())
            .map(|(k, f)| k.weight() * f[33 * n + 20].norm_sqr())
            .sum();
        assert!((recomputed - ws.intensity().get(20, 33)).abs() < 1e-12);
    }

    #[test]
    fn intensity_matches_direct_summation() {
        // Oracle: I = sum_k w_k |IDFT(crop_P(DFT(M)) . H_k)|^2 evaluated by
        // direct summation over the P x P support, with no FFT involved.
        let sim = simulator();
        let n = sim.n();
        let p = sim.kernels().support();
        let mask = wavy_mask(n);
        let bins: Vec<usize> = (0..p)
            .map(|i| spectral::wrap_index(i as i64 - p as i64 / 2, n))
            .collect();
        // twiddle[j] = exp(+2 pi i j / n); products are reduced mod n first.
        let twiddle: Vec<Complex> = (0..n)
            .map(|j| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        // Mask spectrum on the support: S(ky, kx) = sum M(x, y) e^{-i...}.
        let mut spectrum = vec![Complex::ZERO; p * p];
        for (r, &ky) in bins.iter().enumerate() {
            for (c, &kx) in bins.iter().enumerate() {
                let mut acc = Complex::ZERO;
                for y in 0..n {
                    for x in 0..n {
                        let t = twiddle[(ky * y + kx * x) % n].conj();
                        acc += t.scale(mask.get(x, y));
                    }
                }
                spectrum[r * p + c] = acc;
            }
        }
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let norm = 1.0 / (n * n) as f64;
        for y in 0..n {
            for x in 0..n {
                let mut expected = 0.0;
                for kernel in sim.kernels().iter() {
                    let h = kernel.spectrum();
                    let mut field = Complex::ZERO;
                    for (r, &ky) in bins.iter().enumerate() {
                        for (c, &kx) in bins.iter().enumerate() {
                            let t = twiddle[(ky * y + kx * x) % n];
                            field += spectrum[r * p + c] * h[r * p + c] * t;
                        }
                    }
                    expected += kernel.weight() * field.scale(norm).norm_sqr();
                }
                let got = ws.intensity().get(x, y);
                assert!(
                    (got - expected).abs() < 1e-10,
                    "({x},{y}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = wavy_mask(n);
        // Loss: L = sum I (so dL/dI = 1 everywhere).
        let dldi = Grid::new(n, n, 1.0);
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let base: f64 = ws.intensity().sum();
        let grad = sim.gradient_into(&mut ws, &dldi).unwrap();

        let eps = 1e-5;
        for &(px, py) in &[(10usize, 10usize), (30, 17), (5, 40)] {
            let original = mask.get(px, py);
            mask.set(px, py, original + eps);
            let bumped: f64 = sim.aerial_image(&mask).unwrap().sum();
            mask.set(px, py, original);
            let numeric = (bumped - base) / eps;
            let analytic = grad.get(px, py);
            assert!(
                (numeric - analytic).abs() < 1e-3 * (1.0 + numeric.abs()),
                "at ({px},{py}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_of_weighted_loss_matches_finite_difference() {
        // dL/dI varying per pixel exercises the per-kernel product path.
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::from_fn(n, n, |x, y| ((x + y) % 3) as f64 * 0.4);
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());
        let loss = |intensity: &RealGrid| -> f64 {
            intensity
                .as_slice()
                .iter()
                .zip(dldi.as_slice())
                .map(|(i, g)| i * g)
                .sum()
        };
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let base = loss(ws.intensity());
        let grad = sim.gradient_into(&mut ws, &dldi).unwrap();
        let eps = 1e-5;
        let (px, py) = (22, 13);
        let original = mask.get(px, py);
        mask.set(px, py, original + eps);
        let bumped = loss(&sim.aerial_image(&mask).unwrap());
        mask.set(px, py, original);
        let numeric = (bumped - base) / eps;
        let analytic = grad.get(px, py);
        assert!(
            (numeric - analytic).abs() < 1e-3 * (1.0 + numeric.abs()),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
        let sim = simulator();
        let n = sim.n();
        let mask = wavy_mask(n);
        let dldi = Grid::from_fn(n, n, |x, y| ((x * 3 + y) % 7) as f64 * 0.1 - 0.3);

        // A fresh workspace for one call.
        let mut fresh = sim.workspace();
        sim.simulate_into(&mask, &mut fresh).unwrap();
        sim.gradient_into(&mut fresh, &dldi).unwrap();

        // One workspace reused across three iterations.
        let mut ws = sim.workspace();
        for _ in 0..3 {
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
        }
        assert_eq!(fresh.intensity().as_slice(), ws.intensity().as_slice());
        assert_eq!(fresh.grad().as_slice(), ws.grad().as_slice());
    }

    #[test]
    fn parallel_pool_is_bit_identical_to_serial() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        let serial = LithoSimulator::new(cfg.base_n, kernels.clone())
            .unwrap()
            .with_inner_pool(InnerPool::serial());
        let parallel = LithoSimulator::new(cfg.base_n, kernels)
            .unwrap()
            .with_inner_pool(InnerPool::new(4));
        let n = serial.n();
        let mask = wavy_mask(n);
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());

        let mut ws_s = serial.workspace();
        serial.simulate_into(&mask, &mut ws_s).unwrap();
        serial.gradient_into(&mut ws_s, &dldi).unwrap();

        let mut ws_p = parallel.workspace();
        parallel.simulate_into(&mask, &mut ws_p).unwrap();
        parallel.gradient_into(&mut ws_p, &dldi).unwrap();

        assert_eq!(ws_s.intensity().as_slice(), ws_p.intensity().as_slice());
        assert_eq!(ws_s.grad().as_slice(), ws_p.grad().as_slice());
        for (a, b) in ws_s.fields().iter().zip(ws_p.fields()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn workspace_adapts_to_mismatched_simulator() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        let sim = LithoSimulator::new(cfg.base_n, kernels.clone()).unwrap();
        let big = LithoSimulator::new(cfg.base_n * 2, kernels.scaled(2).unwrap()).unwrap();
        // A workspace sized for `sim` must still produce correct results
        // when handed to `big`.
        let mut ws = sim.workspace();
        let mask = wavy_mask(big.n());
        big.simulate_into(&mask, &mut ws).unwrap();
        let mut fresh = big.workspace();
        big.simulate_into(&mask, &mut fresh).unwrap();
        assert_eq!(fresh.intensity().as_slice(), ws.intensity().as_slice());
    }
}
