//! `memprofile`: the memory-and-CPU trajectory of the multigrid-Schwarz
//! flow across growing tile grids.
//!
//! Runs `Method::Ours` on a 1×1 clip (one tile, no coarse grid) and the
//! paper-ratio 3×3 clip, with the full `ilt-prof` layer on: the tracking
//! global allocator attributes every byte to the pipeline stage that
//! allocated it, the sampling CPU profiler attributes ticks to span
//! paths, and the RSS window records the per-grid high-water mark. This
//! is the baseline trajectory the streaming-assembly work (ROADMAP item
//! 1: bounded peak memory at paper scale) will be gated against.
//!
//! Artifacts, all in `ILT_OUT` (default `results/`):
//!
//! * `BENCH_memory.json` — schema `ilt-bench-trajectory/v1`; one point
//!   per tile grid with peak RSS, allocated bytes, bytes/iteration,
//!   per-stage byte/call/sample attribution, and the fraction of tracked
//!   bytes attributed to a named stage (expected ≥ 0.9);
//! * `memprofile_flame.txt` — collapsed-stack (flamegraph-ready) text of
//!   the whole run, one `span;path count` line per distinct stack;
//! * `report.json` — the usual `ilt-report/v2`, here carrying the
//!   optional `profile` and `memory` sections (the latter seeds the
//!   `report_diff --max-rss-ratio` gate via
//!   `results/baselines/memprofile.json`).
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin memprofile
//! ```

use ilt_bench::HarnessOptions;
use ilt_core::experiment::Method;
use ilt_core::Session;
use ilt_json::Json;
use ilt_layout::suite_of_size;
use ilt_prof::Stage;
use ilt_telemetry as tele;

// Attribution needs the tracking allocator to BE the global allocator;
// `main` then switches the counting on.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Per-stage attribution deltas of one grid run.
struct StageDelta {
    stage: Stage,
    bytes: u64,
    calls: u64,
    samples: u64,
}

/// One trajectory point: the full flow on one tile-grid geometry.
struct GridPoint {
    grid: String,
    tiles: usize,
    clip: usize,
    wall_seconds: f64,
    iterations: usize,
    window_peak_rss_bytes: u64,
    peak_rss_bytes: u64,
    allocated_bytes: u64,
    allocation_calls: u64,
    bytes_per_iteration: f64,
    peak_live_bytes: i64,
    stage_attribution_fraction: f64,
    stages: Vec<StageDelta>,
}

fn main() {
    let opts = HarnessOptions::from_env();
    tele::set_enabled(true);
    // This binary exists to profile: allocation counting is always on and
    // the sampler defaults to DEFAULT_HZ (ILT_PROF_HZ=0 still disables).
    ilt_prof::alloc::set_enabled(true);
    ilt_prof::init_from_env(true);
    let base_n = opts.config.optics.base_n;
    println!(
        "memprofile: scale={} base_n={} sampler={} alloc=on",
        opts.scale,
        base_n,
        if ilt_prof::sampler_running() {
            format!("{:.0} Hz", ilt_prof::sampler_hz())
        } else {
            "off".to_string()
        }
    );

    let executor = opts.executor();
    let mut points = Vec::new();
    // Clip factors 1 and 2 over the fixed tile/overlap geometry give the
    // 1×1 and paper-ratio 3×3 tile grids (stride is half a tile, so the
    // next admissible clip after 1×1 is already 3×3).
    for factor in [1usize, 2] {
        let mut config = opts.config.clone();
        config.clip = factor * base_n;
        config.s_max = config.s_max.min(factor);
        config.generator.size = config.clip;
        config.validate();
        let sched = &config.schedule;
        let iterations = if config.s_max > 1 {
            sched.coarse_iterations
        } else {
            0
        } + sched.fine_iterations
            + sched.refine_iterations;
        let clip = suite_of_size(&config.generator, 1).remove(0);

        // Snapshot all three profilers, run, then diff.
        let before = ilt_prof::alloc::stats();
        let samples_before = ilt_prof::cpu::samples_per_stage();
        ilt_prof::alloc::reset_peak();
        ilt_prof::rss::reset_window();
        let session = Session::new(config.clone()).expect("session setup failed");
        let flow = session
            .run_method(Method::Ours, &clip.target, &executor)
            .expect("flow failed");
        ilt_prof::rss::note_window_sample();
        let after = ilt_prof::alloc::stats();
        let samples_after = ilt_prof::cpu::samples_per_stage();
        drop(session);

        let allocated = after.allocated_bytes - before.allocated_bytes;
        let calls = after.allocation_calls - before.allocation_calls;
        let stages: Vec<StageDelta> = Stage::ALL
            .iter()
            .map(|&stage| {
                let b = &before.stages[stage as usize];
                let a = &after.stages[stage as usize];
                let name = stage.name();
                let s0 = samples_before.get(name).copied().unwrap_or(0);
                let s1 = samples_after.get(name).copied().unwrap_or(0);
                StageDelta {
                    stage,
                    bytes: a.bytes - b.bytes,
                    calls: a.calls - b.calls,
                    samples: s1 - s0,
                }
            })
            .collect();
        let tracked: u64 = stages.iter().map(|s| s.bytes).sum();
        let tagged: u64 = stages
            .iter()
            .filter(|s| s.stage != Stage::Untagged)
            .map(|s| s.bytes)
            .sum();
        let attribution = if tracked == 0 {
            0.0
        } else {
            tagged as f64 / tracked as f64
        };

        let partition = ilt_tile::Partition::new(config.clip, config.clip, config.partition)
            .expect("partition");
        let (nx, ny) = (partition.tiles_x(), partition.tiles_y());
        let point = GridPoint {
            grid: format!("{nx}x{ny}"),
            tiles: nx * ny,
            clip: config.clip,
            wall_seconds: flow.wall_seconds,
            iterations,
            window_peak_rss_bytes: ilt_prof::rss::window_peak(),
            peak_rss_bytes: ilt_prof::rss::read().map_or(0, |s| s.peak_bytes),
            allocated_bytes: allocated,
            allocation_calls: calls,
            bytes_per_iteration: allocated as f64 / iterations.max(1) as f64,
            peak_live_bytes: after.peak_live_bytes,
            stage_attribution_fraction: attribution,
            stages,
        };
        println!(
            "grid {:>3} ({} tiles, clip {:>4}): {:>7.2} MiB allocated, \
             {:>6.2} MiB window-peak RSS, {:>5.1}% stage-attributed, {:.2}s",
            point.grid,
            point.tiles,
            point.clip,
            point.allocated_bytes as f64 / (1 << 20) as f64,
            point.window_peak_rss_bytes as f64 / (1 << 20) as f64,
            point.stage_attribution_fraction * 100.0,
            point.wall_seconds,
        );
        for s in &point.stages {
            if s.bytes > 0 || s.samples > 0 {
                println!(
                    "    {:<12} {:>10} B in {:>7} calls, {:>5} cpu samples",
                    s.stage.name(),
                    s.bytes,
                    s.calls,
                    s.samples
                );
            }
        }
        points.push(point);
    }

    println!("\ntop self-time frames:");
    for (frame, n) in ilt_prof::cpu::top_self(10) {
        println!("  {n:>6}  {frame}");
    }

    let path = opts.artifact("BENCH_memory.json");
    let trajectory = render_trajectory(&opts, &points);
    std::fs::write(&path, format!("{trajectory}\n")).expect("cannot write trajectory");
    println!("wrote {}", path.display());

    let flame = opts.artifact("memprofile_flame.txt");
    std::fs::write(&flame, ilt_prof::collapsed()).expect("cannot write flamegraph text");
    println!("wrote {}", flame.display());

    ilt_prof::stop_sampler();
    opts.finish_run("memprofile");
}

/// Renders the `ilt-bench-trajectory/v1` memory trajectory.
fn render_trajectory(opts: &HarnessOptions, points: &[GridPoint]) -> Json {
    let points = points.iter().map(|p| {
        let stages = p.stages.iter().map(|s| {
            let usage = Json::from_iter([
                ("bytes", Json::from(s.bytes)),
                ("calls", s.calls.into()),
                ("samples", s.samples.into()),
            ]);
            (s.stage.name(), usage)
        });
        Json::from_iter([
            ("grid", Json::from(p.grid.as_str())),
            ("tiles", p.tiles.into()),
            ("clip", p.clip.into()),
            ("iterations", p.iterations.into()),
            ("wall_seconds", p.wall_seconds.into()),
            ("peak_rss_bytes", p.peak_rss_bytes.into()),
            ("window_peak_rss_bytes", p.window_peak_rss_bytes.into()),
            ("allocated_bytes", p.allocated_bytes.into()),
            ("allocation_calls", p.allocation_calls.into()),
            ("peak_live_bytes", p.peak_live_bytes.into()),
            ("bytes_per_iteration", p.bytes_per_iteration.into()),
            (
                "stage_attribution_fraction",
                p.stage_attribution_fraction.into(),
            ),
            ("stages", stages.collect()),
        ])
    });
    Json::from_iter([
        ("schema", Json::from("ilt-bench-trajectory/v1")),
        ("binary", "memprofile".into()),
        ("scale", opts.scale.as_str().into()),
        ("workers", opts.workers.into()),
        ("points", Json::Arr(points.collect())),
    ])
}
