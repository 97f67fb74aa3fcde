//! The three benchmark workloads: their fixed configurations and the
//! inputs generated from a seed.
//!
//! Every configuration is built here in code; nothing is read from the
//! environment (see `main::refuse_program_env`).

use ilt_core::ExperimentConfig;
use ilt_grid::{BitGrid, Rect};
use ilt_layout::generate_clip;
use ilt_tile::Partition;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Table 1 row: all four methods on one default-scale clip.
    Table1Row,
    /// The multigrid-Schwarz flow on a 7x7 tile grid.
    Fullchip7x7,
    /// A cold solve, then a chain of ECO edits re-solved warm from a
    /// private mask store.
    EcoEdits,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Row,
        Workload::Fullchip7x7,
        Workload::EcoEdits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Row => "table1_row",
            Workload::Fullchip7x7 => "fullchip_7x7",
            Workload::EcoEdits => "eco_edits",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tile workers of the flow executor.
    pub fn workers(self) -> usize {
        match self {
            Workload::Fullchip7x7 => 2,
            Workload::Table1Row | Workload::EcoEdits => 1,
        }
    }
}

/// Problem size: the default scale the workloads are defined at, or, in
/// the benchmark's own tests, the miniature `test_tiny` scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Default,
    #[cfg(test)]
    Tiny,
}

/// Edits in one ECO chain.
pub const CHAIN_LEN: usize = 8;
/// Edge of one square ECO edit, in pixels.
pub const EDIT_EDGE: usize = 8;

/// The experiment configuration of `workload` at `scale`.
pub fn config(workload: Workload, scale: Scale) -> ExperimentConfig {
    let mut cfg = match scale {
        Scale::Default => ExperimentConfig::paper_default(),
        #[cfg(test)]
        Scale::Tiny => ExperimentConfig::test_tiny(),
    };
    cfg.s_max = 2;
    cfg.stream_tiles = true;
    cfg.workers = workload.workers();
    if workload == Workload::Fullchip7x7 {
        // clip = tile + 6 * stride puts exactly seven tile origins on each
        // axis; with the paper's half-tile overlap that is 4 * tile, a
        // power of two, so the whole clip can be inspected.
        let stride = cfg.partition.stride();
        cfg.clip = cfg.partition.tile + 6 * stride;
        cfg.generator.size = cfg.clip;
    }
    cfg.validate();
    cfg
}

/// One ECO edit: fill `rect` with `fill`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    pub rect: Rect,
    pub fill: u8,
}

impl Edit {
    /// Applies the edit to a copy of `layout`.
    pub fn apply(&self, layout: &BitGrid) -> BitGrid {
        let mut out = layout.clone();
        for y in self.rect.y0..self.rect.y1 {
            for x in self.rect.x0..self.rect.x1 {
                out.set(x as usize, y as usize, self.fill);
            }
        }
        out
    }
}

/// Everything a workload's passes consume, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The clip every cold flow solves.
    pub clip: BitGrid,
    /// The ECO chain's layouts: `layouts[0]` is `clip`, `layouts[k]` is
    /// `layouts[k - 1]` with the chain's `k`-th edit applied. Empty unless
    /// the workload is [`Workload::EcoEdits`].
    pub layouts: Vec<BitGrid>,
}

/// SplitMix64: a small, fixed PRNG so the generated inputs depend on the
/// seed and on nothing else.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Generates the workload's inputs from `seed`.
pub fn generate(workload: Workload, cfg: &ExperimentConfig, seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed);
    let clip = generate_clip(&cfg.generator, rng.next());
    if workload != Workload::EcoEdits {
        return Inputs {
            clip,
            layouts: Vec::new(),
        };
    }
    let partition =
        Partition::new(cfg.clip, cfg.clip, cfg.partition).expect("workload partition is valid");
    // The seam edit straddles the clip centre, where every tile of the 3x3
    // grid meets; it lands at a seeded position in the chain.
    let seam_slot = rng.range(0, CHAIN_LEN - 1);
    let mut layouts = vec![clip.clone()];
    for slot in 0..CHAIN_LEN {
        let last = layouts.last().expect("chain starts with the base clip");
        let rect = if slot == seam_slot {
            let c = (cfg.clip / 2) as i64;
            let x0 = c - rng.range(1, EDIT_EDGE - 1) as i64;
            let y0 = c - rng.range(1, EDIT_EDGE - 1) as i64;
            square(x0, y0)
        } else {
            exclusive_rect(&partition, cfg.generator.border, &mut rng)
        };
        let (cx, cy) = ((rect.x0 + rect.x1) / 2, (rect.y0 + rect.y1) / 2);
        let fill = 1 - last.get(cx as usize, cy as usize);
        layouts.push(Edit { rect, fill }.apply(last));
    }
    Inputs { clip, layouts }
}

fn square(x0: i64, y0: i64) -> Rect {
    let e = EDIT_EDGE as i64;
    Rect {
        x0,
        y0,
        x1: x0 + e,
        y1: y0 + e,
    }
}

/// A seeded edit rect covered by exactly one tile — one of the grid's four
/// corner tiles, the only ones with an exclusive region — kept off the
/// generator's empty border.
fn exclusive_rect(partition: &Partition, border: usize, rng: &mut SplitMix) -> Rect {
    let (nx, ny) = (partition.tiles_x(), partition.tiles_y());
    let corners = [0, nx - 1, nx * (ny - 1), nx * ny - 1];
    let tile = partition.tile(corners[rng.range(0, 3)]);
    let covering = |r: Rect| {
        partition
            .tiles()
            .iter()
            .filter(|t| t.rect.overlaps(r))
            .count()
    };
    let e = EDIT_EDGE as i64;
    let b = border as i64;
    let (lo_x, hi_x) = (
        tile.rect.x0.max(b),
        tile.rect.x1.min(partition.width() as i64 - b) - e,
    );
    let (lo_y, hi_y) = (
        tile.rect.y0.max(b),
        tile.rect.y1.min(partition.height() as i64 - b) - e,
    );
    loop {
        let x0 = rng.range(lo_x as usize, hi_x as usize) as i64;
        let y0 = rng.range(lo_y as usize, hi_y as usize) as i64;
        let rect = square(x0, y0);
        if covering(rect) == 1 {
            return rect;
        }
    }
}

/// Tiles whose rect holds a pixel that differs between `a` and `b`.
pub fn changed_tiles(partition: &Partition, a: &BitGrid, b: &BitGrid) -> Vec<usize> {
    partition
        .tiles()
        .iter()
        .filter(|t| {
            let r = t.rect;
            (r.y0..r.y1).any(|y| {
                (r.x0..r.x1).any(|x| a.get(x as usize, y as usize) != b.get(x as usize, y as usize))
            })
        })
        .map(|t| t.index)
        .collect()
}

/// The dirty set an edit must produce: the changed tiles plus their
/// partition neighbours, sorted.
pub fn expected_dirty(partition: &Partition, edited: &[usize]) -> Vec<usize> {
    let mut dirty: Vec<usize> = edited
        .iter()
        .flat_map(|&i| std::iter::once(i).chain(partition.neighbors(i)))
        .collect();
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// Every `(grid edge, physical scale)` the workload's solvers and its
/// whole-clip inspection simulate at. Pixel solves also run their
/// multi-level phase at half the edge and twice the scale.
pub fn sim_sizes(cfg: &ExperimentConfig) -> Vec<(usize, usize)> {
    let tile = cfg.partition.tile;
    let inspect = (cfg.clip, cfg.inspection_scale());
    let mut solves = vec![(tile, 1), inspect];
    let mut s = 2;
    while s <= cfg.s_max {
        solves.push((tile, s));
        s *= 2;
    }
    let mut sizes: Vec<(usize, usize)> = solves
        .iter()
        .flat_map(|&(n, s)| [(n, s), (n / 2, 2 * s)])
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in Workload::ALL {
            let cfg = config(w, Scale::Tiny);
            assert_eq!(generate(w, &cfg, 7), generate(w, &cfg, 7));
            assert_ne!(generate(w, &cfg, 7).clip, generate(w, &cfg, 8).clip);
        }
    }

    #[test]
    fn eco_chain_mixes_corner_and_seam_edits() {
        for scale in [Scale::Tiny, Scale::Default] {
            let cfg = config(Workload::EcoEdits, scale);
            let partition = Partition::new(cfg.clip, cfg.clip, cfg.partition).unwrap();
            for seed in 0..6 {
                let inputs = generate(Workload::EcoEdits, &cfg, seed);
                assert_eq!(inputs.layouts.len(), CHAIN_LEN + 1);
                let mut dirty_counts = Vec::new();
                for k in 0..CHAIN_LEN {
                    let edited =
                        changed_tiles(&partition, &inputs.layouts[k], &inputs.layouts[k + 1]);
                    assert!(!edited.is_empty(), "every edit changes a pixel");
                    dirty_counts.push(expected_dirty(&partition, &edited).len());
                }
                dirty_counts.sort_unstable();
                let mut expected = vec![4; CHAIN_LEN - 1];
                expected.push(9);
                assert_eq!(dirty_counts, expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn fullchip_grid_is_seven_by_seven_and_inspectable() {
        let cfg = config(Workload::Fullchip7x7, Scale::Default);
        let partition = Partition::new(cfg.clip, cfg.clip, cfg.partition).unwrap();
        assert_eq!((partition.tiles_x(), partition.tiles_y()), (7, 7));
        assert_eq!(cfg.clip, 1024);
        assert!(cfg.clip.is_power_of_two());
    }
}
