//! A timing [`TileSolver`] wrapper: every flow takes `&dyn TileSolver`, so
//! wrapping the production solvers shows solver time inside real flows
//! without touching program code.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ilt_opt::{IltOutcome, OptError, SolveContext, SolveRequest, TileSolver};

use crate::spans::Spans;

/// Solves grouped by solver, grid edge, physical scale and warm/cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bucket {
    pub solver: &'static str,
    pub n: usize,
    pub scale: usize,
    pub warm: bool,
}

impl Bucket {
    /// Scale-free metric label: the grid edge relative to the tile edge
    /// (`x1` is a tile, `x2` a clip of two tiles), the scale, and
    /// warm/cold.
    pub fn label(&self, tile: usize) -> String {
        let warm = if self.warm { "warm" } else { "cold" };
        format!(
            "{}.x{}.s{}.{}",
            self.solver,
            self.n / tile,
            self.scale,
            warm
        )
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStats {
    pub solves: u64,
    pub failures: u64,
    pub iterations: u64,
    pub seconds: f64,
    /// Iterations per simulated `(grid edge, scale)`: a pixel solve's
    /// multi-level phase simulates at half the edge and twice the scale.
    pub level_iterations: BTreeMap<(usize, usize), u64>,
}

/// Per-bucket solve counts and times, shared by every wrapper of a pass.
#[derive(Debug, Default)]
pub struct SolveStats {
    buckets: Mutex<BTreeMap<Bucket, BucketStats>>,
}

impl SolveStats {
    pub fn snapshot(&self) -> BTreeMap<Bucket, BucketStats> {
        self.buckets.lock().expect("solve stats lock").clone()
    }

    fn record(&self, bucket: Bucket, seconds: f64, outcome: Option<&IltOutcome>) {
        let mut buckets = self.buckets.lock().expect("solve stats lock");
        let stats = buckets.entry(bucket).or_default();
        stats.solves += 1;
        stats.seconds += seconds;
        let Some(outcome) = outcome else {
            stats.failures += 1;
            return;
        };
        for segment in &outcome.convergence.segments {
            let level = if segment.label == "coarse" {
                (bucket.n / 2, bucket.scale * 2)
            } else {
                (bucket.n, bucket.scale)
            };
            let iters = segment.losses.len() as u64;
            stats.iterations += iters;
            *stats.level_iterations.entry(level).or_insert(0) += iters;
        }
    }
}

/// Times every solve of `inner` into `stats` and, when `spans` is set,
/// records a `solve` span under the flow span `parent`.
pub struct TimedSolver<'a> {
    pub inner: &'a dyn TileSolver,
    pub tag: &'static str,
    pub stats: &'a SolveStats,
    pub spans: Option<(&'a Spans, u64)>,
}

impl TileSolver for TimedSolver<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        let span = self
            .spans
            .map(|(spans, parent)| (spans, spans.open("solve", parent)));
        let start = Instant::now();
        let result = self.inner.solve(ctx, request);
        let seconds = start.elapsed().as_secs_f64();
        let bucket = Bucket {
            solver: self.tag,
            n: ctx.n,
            scale: ctx.scale,
            warm: request.warm,
        };
        self.stats.record(bucket, seconds, result.as_ref().ok());
        if let Some((spans, open)) = span {
            spans.close(
                open,
                format!("n={} scale={} warm={}", ctx.n, ctx.scale, request.warm),
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_core::{flows, ExperimentConfig};
    use ilt_layout::generate_clip;
    use ilt_opt::{LevelSetIlt, PixelIlt};
    use ilt_tile::TileExecutor;

    #[test]
    fn wrapper_is_bit_identical_and_counts_exactly() {
        let cfg = ExperimentConfig::test_tiny();
        let session = ilt_core::Session::new(cfg.clone()).unwrap();
        let bank = session.bank();
        let target = generate_clip(&cfg.generator, 3);
        let exec = TileExecutor::sequential();
        let pixel = PixelIlt::new();
        let gls = LevelSetIlt::new();
        let stats = SolveStats::default();
        let timed_pixel = TimedSolver {
            inner: &pixel,
            tag: "pixel",
            stats: &stats,
            spans: None,
        };
        let timed_gls = TimedSolver {
            inner: &gls,
            tag: "levelset",
            stats: &stats,
            spans: None,
        };
        let plain = flows::multigrid_schwarz(&cfg, bank, &target, &pixel, &exec).unwrap();
        let timed = flows::multigrid_schwarz(&cfg, bank, &target, &timed_pixel, &exec).unwrap();
        assert_eq!(plain.mask.as_slice(), timed.mask.as_slice());
        let plain = flows::divide_and_conquer(&cfg, bank, &target, &gls, &exec).unwrap();
        let timed = flows::divide_and_conquer(&cfg, bank, &target, &timed_gls, &exec).unwrap();
        assert_eq!(plain.mask.as_slice(), timed.mask.as_slice());
        assert_eq!(plain.name, timed.name);

        let s = cfg.schedule;
        let buckets = stats.snapshot();
        let solves: u64 = buckets.values().map(|b| b.solves).sum();
        let tiles = 9u64;
        // Ours: one coarse tile (the coarse grid covers the clip), two fine
        // stages of nine tiles and a refine pass over nine; D&C: nine tiles.
        let coarse = buckets
            .iter()
            .filter(|(k, _)| k.scale == 2)
            .map(|(_, v)| v.solves)
            .sum::<u64>();
        assert_eq!(coarse, 1);
        assert_eq!(solves, coarse + 2 * tiles + tiles + tiles);
        let gls_stats = buckets
            .iter()
            .find(|(k, _)| k.solver == "levelset")
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(gls_stats.solves, tiles);
        assert_eq!(gls_stats.iterations, tiles * s.baseline_iterations as u64);
        let pixel_iters: u64 = buckets
            .iter()
            .filter(|(k, _)| k.solver == "pixel")
            .map(|(_, v)| v.iterations)
            .sum();
        let expected = coarse * s.coarse_iterations as u64
            + tiles * s.fine_iterations as u64
            + tiles * s.refine_iterations as u64;
        assert_eq!(pixel_iters, expected);
        assert!(buckets.values().all(|b| b.failures == 0));
    }
}
