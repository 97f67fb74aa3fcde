//! `fullchip`: the paper-scale sweep — wall-clock and peak resident
//! memory of the multigrid-Schwarz flow as the tile grid grows from 1×1
//! to 4×4, with streaming assembly measured against hold-everything.
//!
//! For each grid the flow runs twice on the same layout: once with
//! `stream_tiles` on (tiles solved in colour order and folded into the
//! [`StreamingAssembler`](ilt_tile::StreamingAssembler) band by band) and
//! once holding every fine tile until a batch assemble. The two masks
//! must be bit-identical — streaming is a memory optimisation, not an
//! algorithm change — and at 16+ tiles the streamed resident-tile-mask
//! high-water ([`ilt_prof::residency`]) must be at most `0.6×` the
//! hold-everything one: the streamed path keeps O(one colour band) fine
//! tiles resident instead of O(T). Whole-process allocator peaks are
//! reported alongside but not gated — per-tile solver scratch dominates
//! them identically in both modes.
//!
//! Grids 2×2 and 3×3 have non-power-of-two clip sides, so quality is
//! measured with [`tiled_print_loss`] (per-tile prints over disjoint
//! cores) rather than a full-clip inspection system; the loss *density*
//! (loss / clip area) is what should stay flat as the chip grows.
//!
//! Artifacts, all in `ILT_OUT` (default `results/`):
//!
//! * `BENCH_fullchip.json` — schema `ilt-bench-trajectory/v1`; one point
//!   per tile grid with streamed/held wall seconds, streamed/held peak
//!   live-byte deltas, their ratio, and the tiled loss density;
//! * `report.json` — the usual `ilt-report/v2` carrying the `memory`
//!   section that seeds `report_diff --max-rss-ratio` via
//!   `results/baselines/fullchip.json`, plus a `fullchip` section with
//!   the worst streamed/held resident-tile ratio at 16+ tiles.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin fullchip
//! ```

use ilt_bench::HarnessOptions;
use ilt_core::experiment::{run_method, tiled_print_loss, Method};
use ilt_json::Json;
use ilt_layout::suite_of_size;
use ilt_telemetry as tele;

// Peak-live attribution needs the tracking allocator to BE the global
// allocator; `main` then switches the counting on.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// One measured flow run: wall clock, the allocator's live-byte
/// high-water mark relative to the live level when the run started, and
/// the resident solved-tile-mask high-water (`ilt_prof::residency`).
struct Measured {
    wall_seconds: f64,
    peak_live_delta: i64,
    peak_resident_tile_bytes: i64,
    mask: ilt_grid::RealGrid,
}

/// One trajectory point: streamed vs held on one tile-grid geometry.
struct GridPoint {
    grid: String,
    tiles: usize,
    clip: usize,
    s_max: usize,
    streamed_wall_seconds: f64,
    held_wall_seconds: f64,
    streamed_peak_live_delta: i64,
    held_peak_live_delta: i64,
    streamed_peak_resident_tile_bytes: i64,
    held_peak_resident_tile_bytes: i64,
    resident_ratio: f64,
    window_peak_rss_bytes: u64,
    loss: usize,
    loss_density: f64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    tele::set_enabled(true);
    ilt_prof::alloc::set_enabled(true);
    ilt_prof::init_from_env(false);
    let tile = opts.config.partition.tile;
    let stride = tile - opts.config.partition.overlap;
    println!(
        "fullchip: scale={} tile={} stride={} workers={}",
        opts.scale, tile, stride, opts.workers
    );

    let bank = opts.bank();
    let executor = opts.executor();
    let mut points = Vec::new();
    // clip = tile + (count-1)·stride puts exactly `count` tile origins on
    // each axis (the last lands flush on the clip edge), so the sweep
    // visits the 1×1, 2×2, 3×3, and 4×4 grids of the scale's geometry.
    for count in 1usize..=4 {
        let mut config = opts.config.clone();
        config.clip = tile + (count - 1) * stride;
        // Deepest hierarchy whose coarsest level still fits the clip.
        let mut s = 1;
        while 2 * s <= config.s_max && 2 * s * tile <= config.clip {
            s *= 2;
        }
        config.s_max = s;
        config.generator.size = config.clip;
        config.validate();
        let case = suite_of_size(&config.generator, 1).remove(0);

        ilt_prof::rss::reset_window();
        config.stream_tiles = true;
        let streamed = measured_run(&config, &bank, &case.target, &executor);
        config.stream_tiles = false;
        let held = measured_run(&config, &bank, &case.target, &executor);
        ilt_prof::rss::note_window_sample();

        assert_eq!(
            streamed.mask.as_slice(),
            held.mask.as_slice(),
            "streamed and hold-everything assembly must be bit-identical"
        );

        let partition = ilt_tile::Partition::new(config.clip, config.clip, config.partition)
            .expect("partition");
        let (nx, ny) = (partition.tiles_x(), partition.tiles_y());
        let tiles = nx * ny;
        let resident_ratio = streamed.peak_resident_tile_bytes as f64
            / (held.peak_resident_tile_bytes.max(1)) as f64;
        let loss = tiled_print_loss(&config, &bank, &case.target, &streamed.mask)
            .expect("tiled inspection failed");
        let area = (config.clip * config.clip) as f64;
        let point = GridPoint {
            grid: format!("{nx}x{ny}"),
            tiles,
            clip: config.clip,
            s_max: config.s_max,
            streamed_wall_seconds: streamed.wall_seconds,
            held_wall_seconds: held.wall_seconds,
            streamed_peak_live_delta: streamed.peak_live_delta,
            held_peak_live_delta: held.peak_live_delta,
            streamed_peak_resident_tile_bytes: streamed.peak_resident_tile_bytes,
            held_peak_resident_tile_bytes: held.peak_resident_tile_bytes,
            resident_ratio,
            window_peak_rss_bytes: ilt_prof::rss::window_peak(),
            loss,
            loss_density: loss as f64 / area,
        };
        println!(
            "grid {:>3} ({:>2} tiles, clip {:>4}, s_max {}): resident {:>7.2} MiB streamed \
             vs {:>7.2} MiB held (ratio {:.2}), alloc peak {:>6.2} vs {:>6.2} MiB, \
             {:.2}s vs {:.2}s, loss density {:.4}",
            point.grid,
            point.tiles,
            point.clip,
            point.s_max,
            point.streamed_peak_resident_tile_bytes as f64 / (1 << 20) as f64,
            point.held_peak_resident_tile_bytes as f64 / (1 << 20) as f64,
            point.resident_ratio,
            point.streamed_peak_live_delta as f64 / (1 << 20) as f64,
            point.held_peak_live_delta as f64 / (1 << 20) as f64,
            point.streamed_wall_seconds,
            point.held_wall_seconds,
            point.loss_density,
        );
        // The acceptance gate: once the grid is paper-sized, holding one
        // colour band instead of every tile must bound what the flow keeps
        // resident. The gate reads the flow's own residency high-water
        // (`ilt_prof::residency`) rather than the allocator peak: per-tile
        // solver scratch dominates the process high-water mark equally in
        // both modes, so the allocator numbers (reported above and in the
        // trajectory) cannot distinguish a broken streaming path. Smaller
        // grids are reported but not gated (one band ≈ the whole grid).
        if tiles >= 16 {
            assert!(
                point.resident_ratio <= 0.6,
                "streamed resident-tile peak {} B is more than 0.6x the \
                 hold-everything peak {} B at {} tiles",
                point.streamed_peak_resident_tile_bytes,
                point.held_peak_resident_tile_bytes,
                tiles
            );
        }
        points.push(point);
    }

    // Convergence flatness across the sweep is a test concern
    // (`convergence_flatness` in ilt-core); here it is only reported.
    let worst_big_ratio = points
        .iter()
        .filter(|p| p.tiles >= 16)
        .map(|p| p.resident_ratio)
        .fold(0.0f64, f64::max);
    let section = [("worst_resident_ratio_at_16_tiles", worst_big_ratio.into())];
    ilt_bench::set_report_section("fullchip", Json::from_iter(section));

    let path = opts.artifact("BENCH_fullchip.json");
    let trajectory = render_trajectory(&opts, &points);
    std::fs::write(&path, format!("{trajectory}\n")).expect("cannot write trajectory");
    println!("wrote {}", path.display());

    opts.finish_run("fullchip");
}

/// Runs `Method::Ours` once and reports wall clock plus the allocator
/// peak-live delta over the run. The delta (not absolute RSS) is what
/// separates streaming from holding: process RSS never shrinks, so after
/// the first large run it would mask any later improvement.
fn measured_run(
    config: &ilt_core::ExperimentConfig,
    bank: &ilt_litho::LithoBank,
    target: &ilt_grid::BitGrid,
    executor: &ilt_tile::TileExecutor,
) -> Measured {
    ilt_prof::alloc::reset_peak();
    ilt_prof::residency::reset();
    let live_before = ilt_prof::alloc::stats().live_bytes;
    let flow = run_method(Method::Ours, config, bank, target, executor).expect("flow failed");
    let peak = ilt_prof::alloc::stats().peak_live_bytes;
    Measured {
        wall_seconds: flow.wall_seconds,
        peak_live_delta: (peak - live_before).max(0),
        peak_resident_tile_bytes: ilt_prof::residency::peak_bytes(),
        mask: flow.mask,
    }
}

/// Renders the `ilt-bench-trajectory/v1` full-chip trajectory.
fn render_trajectory(opts: &HarnessOptions, points: &[GridPoint]) -> Json {
    let points = points.iter().map(|p| {
        Json::from_iter([
            ("grid", Json::from(p.grid.as_str())),
            ("tiles", p.tiles.into()),
            ("clip", p.clip.into()),
            ("s_max", p.s_max.into()),
            ("streamed_wall_seconds", p.streamed_wall_seconds.into()),
            ("held_wall_seconds", p.held_wall_seconds.into()),
            (
                "streamed_peak_live_bytes",
                p.streamed_peak_live_delta.into(),
            ),
            ("held_peak_live_bytes", p.held_peak_live_delta.into()),
            (
                "streamed_peak_resident_tile_bytes",
                p.streamed_peak_resident_tile_bytes.into(),
            ),
            (
                "held_peak_resident_tile_bytes",
                p.held_peak_resident_tile_bytes.into(),
            ),
            ("resident_ratio", p.resident_ratio.into()),
            ("window_peak_rss_bytes", p.window_peak_rss_bytes.into()),
            ("loss", p.loss.into()),
            ("loss_density", p.loss_density.into()),
        ])
    });
    Json::from_iter([
        ("schema", Json::from("ilt-bench-trajectory/v1")),
        ("binary", "fullchip".into()),
        ("scale", opts.scale.as_str().into()),
        ("workers", opts.workers.into()),
        ("points", Json::Arr(points.collect())),
    ])
}
