//! Per-layer metrics of a traced pass: the flows' public stage timings,
//! the timing wrapper's solve buckets, the program's telemetry counters,
//! and unit costs from direct calls into `ilt-litho`, `ilt-fft`,
//! `ilt-tile` and `ilt-store`.

use std::collections::BTreeMap;

use ilt_fft::Rfft2d;
use ilt_grid::{Grid, RealGrid};
use ilt_par::InnerPool;
use ilt_tile::{multi_coloring, AssemblyMode, StreamingAssembler};

use crate::run::{Bench, FlowKind, Pass};
use crate::stats::unit_cost_us;
use crate::timing::{Bucket, BucketStats};

/// Solve buckets reported by name, as [`Bucket::label`] spells them.
/// Every one is emitted on every workload (0 where it does not occur).
pub const BUCKETS: [&str; 5] = [
    "pixel.x1.s2.cold",
    "pixel.x1.s1.cold",
    "pixel.x1.s1.warm",
    "pixel.x2.s2.cold",
    "levelset.x1.s1.cold",
];

/// Seconds each direct unit-cost probe may run for.
const PROBE_S: f64 = 0.15;

/// Every per-layer metric: name, unit, whether higher is better.
pub fn catalogue() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, higher: bool| out.push((name.to_string(), unit, higher));
    for stage in [
        "coarse", "fine", "refine", "other", "assembly", "residual", "wall",
    ] {
        add(&format!("core.{stage}_s"), "s", false);
    }
    for flow in ["gls", "mldnc", "fullchip", "ours", "eco"] {
        add(&format!("flow.{flow}_s"), "s", false);
    }
    add("opt.solves", "count", false);
    add("opt.iterations", "count", false);
    add("opt.failures", "count", false);
    add("opt.solve_s", "s", false);
    for b in BUCKETS {
        add(&format!("opt.{b}.solves"), "count", false);
        add(&format!("opt.{b}.iterations"), "count", false);
        add(&format!("opt.{b}.solve_s"), "s", false);
        add(&format!("opt.{b}.us_per_iter"), "us", false);
    }
    add("litho.simulate_us", "us", false);
    add("litho.gradient_us", "us", false);
    add("litho.simulate_calls", "count", false);
    add("litho.gradient_calls", "count", false);
    add("litho.share", "ratio", true);
    add("litho.calls_error", "ratio", false);
    add("fft.rfft_forward_calls", "count", false);
    add("fft.rfft_inverse_calls", "count", false);
    for size in ["half", "tile", "double"] {
        add(&format!("fft.rfft2d_{size}_us"), "us", false);
    }
    add("fft.bytes_computed", "bytes", false);
    add("tile.count", "count", false);
    add("tile.colors", "count", false);
    add("tile.assemble_us", "us", false);
    add("tile.resident_peak_mb", "MB", false);
    add("par.efficiency", "ratio", true);
    add("store.hits", "count", true);
    add("store.misses", "count", false);
    add("store.hit_ratio", "ratio", true);
    add("store.tiles_reused", "count", true);
    add("store.tiles_resolved", "count", false);
    add("store.puts", "count", false);
    add("store.evictions", "count", false);
    add("store.bytes", "bytes", false);
    add("store.put_s", "s", false);
    add("store.get_us", "us", false);
    add("metrics.inspect_s", "s", false);
    add("metrics.l2_px", "px", false);
    add("metrics.pvband_px", "px", false);
    add("metrics.stitch_loss", "px", false);
    add("metrics.crossings", "count", false);
    add("layout.gen_s", "s", false);
    add("setup.session_s", "s", false);
    add("setup.warmup_s", "s", false);
    add("trace.overhead", "ratio", false);
    out
}

/// What a traced pass measured, besides the pass itself.
pub struct Traced<'a> {
    pub bench: &'a Bench,
    pub pass: &'a Pass,
    pub buckets: &'a BTreeMap<Bucket, BucketStats>,
    pub counters: &'a BTreeMap<String, u64>,
    pub resident_peak_bytes: i64,
    pub untraced_tat_s: f64,
}

/// Computes every per-layer metric, in [`catalogue`] order.
pub fn per_layer(t: &Traced<'_>) -> Vec<(String, f64)> {
    let bench = t.bench;
    let tile = bench.cfg.partition.tile;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    // core: stage tile-seconds shared over the workers, assembly, and the
    // residual that makes them add up to the flows' wall time.
    let workers = bench.cfg.workers as f64;
    let mut stage_s: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut assembly, mut wall, mut tile_s) = (0.0, 0.0, 0.0);
    for (_, flow) in &t.pass.flows {
        wall += flow.wall_seconds;
        for stage in &flow.stages {
            // "refine" before "fine": ECO stages are labelled
            // "eco fine stage k" and "eco refine color k".
            let kind = ["coarse", "refine", "fine"]
                .into_iter()
                .find(|k| stage.label.contains(k))
                .unwrap_or("other");
            *stage_s.entry(kind).or_insert(0.0) += stage.total_tile_seconds() / workers;
            assembly += stage.assembly_seconds;
            tile_s += stage.total_tile_seconds();
        }
    }
    let staged: f64 = stage_s.values().sum();
    for kind in ["coarse", "fine", "refine", "other"] {
        set(
            &format!("core.{kind}_s"),
            stage_s.get(kind).copied().unwrap_or(0.0),
        );
    }
    set("core.assembly_s", assembly);
    set("core.residual_s", wall - staged - assembly);
    set("core.wall_s", wall);
    set(
        "par.efficiency",
        tile_s / (workers * (wall - assembly)).max(f64::MIN_POSITIVE),
    );
    for (kind, name) in [
        (FlowKind::Gls, "gls"),
        (FlowKind::MlDnc, "mldnc"),
        (FlowKind::FullChip, "fullchip"),
        (FlowKind::Ours, "ours"),
        (FlowKind::Eco, "eco"),
    ] {
        set(&format!("flow.{name}_s"), t.pass.flow_s(kind));
    }

    // opt: the timing wrapper's buckets.
    let total = |f: fn(&BucketStats) -> f64| t.buckets.values().map(f).sum::<f64>();
    let solve_s = total(|b| b.seconds);
    set("opt.solves", total(|b| b.solves as f64));
    set("opt.iterations", total(|b| b.iterations as f64));
    set("opt.failures", total(|b| b.failures as f64));
    set("opt.solve_s", solve_s);
    for label in BUCKETS {
        let b = t
            .buckets
            .iter()
            .filter(|(k, _)| k.label(tile) == label)
            .fold(BucketStats::default(), |mut acc, (_, v)| {
                acc.solves += v.solves;
                acc.iterations += v.iterations;
                acc.seconds += v.seconds;
                acc
            });
        set(&format!("opt.{label}.solves"), b.solves as f64);
        set(&format!("opt.{label}.iterations"), b.iterations as f64);
        set(&format!("opt.{label}.solve_s"), b.seconds);
        let per_iter = if b.iterations == 0 {
            0.0
        } else {
            b.seconds * 1e6 / b.iterations as f64
        };
        set(&format!("opt.{label}.us_per_iter"), per_iter);
    }
    for k in t.buckets.keys() {
        if !BUCKETS.contains(&k.label(tile).as_str()) {
            eprintln!(
                "perfbench: solve bucket {} is not reported by name",
                k.label(tile)
            );
        }
    }

    // litho: unit costs at every simulated level, predicted litho time
    // against the measured solve time, predicted calls against the
    // program's own counters.
    let mut levels: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for stats in t.buckets.values() {
        for (&level, &iters) in &stats.level_iterations {
            *levels.entry(level).or_insert(0) += iters;
        }
    }
    levels.entry((tile, 1)).or_insert(0);
    let mut litho_s = 0.0;
    for (&(n, s), &iters) in &levels {
        let (sim_us, grad_us) = litho_unit_us(bench, n, s);
        litho_s += iters as f64 * (sim_us + grad_us) * 1e-6;
        if (n, s) == (tile, 1) {
            set("litho.simulate_us", sim_us);
            set("litho.gradient_us", grad_us);
        }
    }
    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    let sims = counter("litho.simulate");
    let grads = counter("litho.gradient");
    set("litho.simulate_calls", sims);
    set("litho.gradient_calls", grads);
    set(
        "litho.share",
        if solve_s > 0.0 {
            litho_s / solve_s
        } else {
            0.0
        },
    );
    // Each solver iteration is one simulate and one gradient; inspection
    // simulates without a gradient, so iterations predict gradient calls.
    let predicted: u64 = levels.values().sum();
    set(
        "litho.calls_error",
        if grads > 0.0 {
            (predicted as f64 - grads) / grads
        } else {
            0.0
        },
    );

    // fft
    let (fwd, inv) = (counter("fft.rfft_forward"), counter("fft.rfft_inverse"));
    set("fft.rfft_forward_calls", fwd);
    set("fft.rfft_inverse_calls", inv);
    for (size, n) in [("half", tile / 2), ("tile", tile), ("double", 2 * tile)] {
        set(&format!("fft.rfft2d_{size}_us"), rfft2d_us(n));
    }
    // Computed, not measured: every counted 2-D transform taken at the
    // tile edge, reading its real grid and writing its half spectrum.
    let bytes_per = (tile * tile * 8 + (tile / 2 + 1) * tile * 16) as f64;
    set("fft.bytes_computed", (fwd + inv) * bytes_per);

    // tile
    set("tile.count", bench.partition.tiles().len() as f64);
    set(
        "tile.colors",
        multi_coloring(&bench.partition).count() as f64,
    );
    set("tile.assemble_us", assemble_us(bench));
    set(
        "tile.resident_peak_mb",
        t.resident_peak_bytes as f64 / (1024.0 * 1024.0),
    );

    // store: zero outside the ECO workload, where the store is idle.
    let eco = &t.pass.eco;
    set("store.hits", eco.store.hits as f64);
    set("store.misses", eco.store.misses as f64);
    set("store.hit_ratio", eco.store.hit_ratio());
    set("store.tiles_reused", eco.tiles_reused as f64);
    set("store.tiles_resolved", eco.tiles_resolved as f64);
    set("store.puts", eco.store.puts as f64);
    set("store.evictions", eco.store.evictions as f64);
    set("store.bytes", eco.store.bytes as f64);
    set("store.put_s", eco.put_s);
    set("store.get_us", eco.get_us);

    set("metrics.inspect_s", t.pass.inspect_s);
    let q = t.pass.quality;
    set("metrics.l2_px", q.l2 as f64);
    set("metrics.pvband_px", q.pvband as f64);
    set("metrics.stitch_loss", q.stitch);
    set("metrics.crossings", q.crossings as f64);
    set("layout.gen_s", bench.gen_s);
    set("setup.session_s", bench.session_s);
    set("setup.warmup_s", bench.warmup_s);
    set(
        "trace.overhead",
        t.pass.tat_s / t.untraced_tat_s.max(f64::MIN_POSITIVE),
    );

    catalogue()
        .into_iter()
        .map(|(name, _, _)| {
            let value = m
                .get(&name)
                .copied()
                .unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
            (name, value)
        })
        .collect()
}

/// Median microseconds of one `simulate_into` and one `gradient_into` at
/// `(n, scale)`, with a reused workspace.
fn litho_unit_us(bench: &Bench, n: usize, scale: usize) -> (f64, f64) {
    let Ok(system) = bench.session.bank().system(n, scale) else {
        return (0.0, 0.0);
    };
    let mut ws = system.workspace();
    let mask: RealGrid = Grid::from_fn(
        n,
        n,
        |x, y| if (x / 8 + y / 8) % 2 == 0 { 0.9 } else { 0.1 },
    );
    let sim = unit_cost_us(5, PROBE_S, || {
        system
            .simulate_into(&mask, &mut ws)
            .expect("probe simulate");
    });
    system
        .simulate_into(&mask, &mut ws)
        .expect("probe simulate");
    let grad = unit_cost_us(5, PROBE_S, || {
        std::hint::black_box(
            system
                .gradient_into(&mut ws, &mask)
                .expect("probe gradient"),
        );
    });
    (sim, grad)
}

/// Median microseconds of one forward real 2-D FFT of edge `n`.
fn rfft2d_us(n: usize) -> f64 {
    let Ok(plan) = Rfft2d::new(n) else {
        return 0.0;
    };
    let src: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.125).collect();
    let mut spec = vec![Default::default(); plan.spectrum_len()];
    let mut scratch = vec![Default::default(); plan.spectrum_len()];
    let pool = InnerPool::serial();
    unit_cost_us(5, PROBE_S, || {
        plan.forward(&src, &mut spec, &mut scratch, &pool)
            .expect("probe rfft");
    })
}

/// Median microseconds to stream every tile of the workload's partition
/// through a [`StreamingAssembler`] and finish it.
fn assemble_us(bench: &Bench) -> f64 {
    let partition = &bench.partition;
    let n = bench.cfg.partition.tile;
    let crop: RealGrid = Grid::new(n, n, 0.5);
    let mode = AssemblyMode::weighted_default(partition);
    unit_cost_us(3, PROBE_S, || {
        let mut asm = StreamingAssembler::new(partition, mode);
        for &i in &asm.canonical_order().to_vec() {
            asm.push(i, &crop).expect("probe push");
        }
        std::hint::black_box(asm.finish().expect("probe finish"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_pass;
    use crate::timing::SolveStats;
    use crate::workload::{Scale, Workload};

    #[test]
    fn every_catalogued_metric_is_computed_and_core_adds_up() {
        let bench = Bench::setup(Workload::Table1Row, Scale::Tiny, 2).unwrap();
        let stats = SolveStats::default();
        let pass = run_pass(&bench, &stats, None);
        let buckets = stats.snapshot();
        let counters = BTreeMap::new();
        let metrics: BTreeMap<String, f64> = per_layer(&Traced {
            bench: &bench,
            pass: &pass,
            buckets: &buckets,
            counters: &counters,
            resident_peak_bytes: 0,
            untraced_tat_s: pass.tat_s,
        })
        .into_iter()
        .collect();
        assert_eq!(metrics.len(), catalogue().len());
        let parts: f64 = ["coarse", "fine", "refine", "other", "assembly", "residual"]
            .iter()
            .map(|k| metrics[&format!("core.{k}_s")])
            .sum();
        assert!((parts - metrics["core.wall_s"]).abs() < 1e-9);
        assert!((metrics["core.wall_s"] - pass.tat_s).abs() < 1e-9);
        // Every solve of this workload lands in a named bucket.
        let named: f64 = BUCKETS
            .iter()
            .map(|b| metrics[&format!("opt.{b}.solves")])
            .sum();
        assert_eq!(named, metrics["opt.solves"]);
        assert!(metrics["litho.simulate_us"] > 0.0 && metrics["fft.rfft2d_tile_us"] > 0.0);
        assert_eq!(metrics["trace.overhead"], 1.0);
    }

    /// The string values of every `"key": "value"` pair in `text`, in order.
    fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pattern = format!("\"{key}\"");
        text.match_indices(&pattern)
            .filter_map(|(at, _)| {
                let rest = text[at + pattern.len()..].trim_start();
                let rest = rest.strip_prefix(':')?.trim_start().strip_prefix('"')?;
                Some(&rest[..rest.find('"')?])
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let start = json.find("\"per_layer\"").unwrap();
        let per_layer = &json[start..start + json[start..].find(']').unwrap()];
        let names = string_values(per_layer, "name");
        let units = string_values(per_layer, "unit");
        let better = string_values(per_layer, "better");
        let listed: Vec<(String, &str, bool)> = names
            .iter()
            .zip(&units)
            .zip(&better)
            .map(|((n, u), b)| (n.to_string(), *u, *b == "higher"))
            .collect();
        assert_eq!((names.len(), units.len()), (better.len(), better.len()));
        assert_eq!(listed, catalogue());
    }
}
