//! The repository benchmark's measuring program. `run.py` builds it and
//! drives it; see `README.md` in this directory.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! perfbench setup --workload <name> --seed <n>
//! ```
//!
//! `run` prints one context line and, last, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `setup` only sets the
//! workload up and prints `{"setup_s": ...}`, so set-up can be timed in
//! fresh processes (the program's kernel and plan caches are per process).

mod layers;
mod run;
mod spans;
mod stats;
mod timing;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use run::{run_pass, Bench, Pass};
use spans::Spans;
use timing::SolveStats;
use workload::{Scale, Workload};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode: run | setup")?;
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or(format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let allowed: &[&str] = match mode.as_str() {
        "run" => &["workload", "seed", "seconds", "trace", "out"],
        "setup" => &["workload", "seed"],
        other => return Err(format!("unknown mode {other:?}")),
    };
    if let Some(key) = flags.keys().find(|k| !allowed.contains(&k.as_str())) {
        return Err(format!("{mode} takes no --{key}"));
    }
    let get = |k: &str| -> Result<&str, String> {
        flags
            .get(k)
            .map(String::as_str)
            .ok_or(format!("missing --{k}"))
    };
    let workload_name = get("workload")?;
    let workload =
        Workload::parse(workload_name).ok_or(format!("unknown workload {workload_name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    // `setup` only builds the workload; the run flags stay unread.
    let (seconds, trace, out) = if mode == "run" {
        let seconds = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        (seconds, trace, get("out")?.to_string())
    } else {
        (0.0, false, String::new())
    };
    Ok(Args {
        mode,
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Refuses to run when any `ILT_*` variable is set: the program reads
/// several (fault injection, FFT autotuning and transpose block, tile
/// retries and backoff, mask-store budget and spill directory, thread
/// counts), and each silently changes the program being measured.
fn refuse_program_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ILT_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with program settings in the environment: {}",
            set.join(", ")
        ))
    }
}

fn main() {
    let args = match refuse_program_env().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.mode.as_str() {
        "setup" => match Bench::setup(args.workload, Scale::Default, args.seed) {
            Ok(bench) => {
                println!("{{\"setup_s\": {}}}", bench.setup_s());
                0
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                1
            }
        },
        _ => run(&args),
    };
    std::process::exit(code);
}

/// Totals over the passes of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add_pass(&mut self, pass: &Pass, stats: &SolveStats) {
        let buckets = stats.snapshot();
        self.attempted += pass.attempted + buckets.values().map(|b| b.solves).sum::<u64>();
        self.failed += pass.failed + buckets.values().map(|b| b.failures).sum::<u64>();
        self.failures.extend(pass.failures.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

fn run(args: &Args) -> i32 {
    let bench = match Bench::setup(args.workload, Scale::Default, args.seed) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let tuned_before = ilt_fft::cache::tuned_summary();
    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();

    // Whole passes until the next one would overrun `--seconds`; at least one.
    let start = Instant::now();
    loop {
        let stats = SolveStats::default();
        let t = Instant::now();
        let pass = run_pass(&bench, &stats, None);
        let pass_s = t.elapsed().as_secs_f64();
        tally.add_pass(&pass, &stats);
        passes.push(pass);
        if args.trace || start.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }
    // Two passes compare only when a pass takes under half of `--seconds`;
    // otherwise the traced run's untraced-vs-traced comparison below is
    // the run's only determinism check.
    let first = passes[0].quality;
    tally.check(passes.iter().all(|p| p.quality == first), || {
        "quality differs between passes of one run".into()
    });

    // The traced pass runs after the untraced ones, with telemetry on and
    // a span around every public call.
    let spans = Spans::new(ilt_telemetry::next_trace_id().0);
    let traced = args.trace.then(|| {
        ilt_telemetry::set_enabled(true);
        drop(ilt_telemetry::drain());
        ilt_prof::residency::reset();
        let stats = SolveStats::default();
        let pass = run_pass(&bench, &stats, Some(&spans));
        let resident_peak_bytes = ilt_prof::residency::peak_bytes();
        let counters = ilt_telemetry::drain().counters;
        ilt_telemetry::set_enabled(false);
        tally.add_pass(&pass, &stats);
        tally.check(pass.quality == first, || {
            "tracing changed the quality metrics".into()
        });
        (pass, stats.snapshot(), counters, resident_peak_bytes)
    });

    // Autotuning is per process and timing-based: set-up must have tuned
    // every size, or a timed pass paid for it.
    let tuned = ilt_fft::cache::tuned_summary();
    tally.check(tuned_before == tuned, || {
        "FFT autotuning ran inside a timed pass: set-up missed a size".into()
    });

    // The reference inspections run after the timed passes; they depend
    // on the inputs only.
    let reference = run::reference_quality(&bench).unwrap_or_else(|e| {
        tally.check(false, || format!("reference inspection failed: {e}"));
        run::Quality::default()
    });

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if let Some((pass, buckets, counters, resident_peak_bytes)) = &traced {
        let traced = layers::Traced {
            bench: &bench,
            pass,
            buckets,
            counters,
            resident_peak_bytes: *resident_peak_bytes,
            untraced_tat_s: passes[0].tat_s,
        };
        let units: BTreeMap<String, &str> = layers::catalogue()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        for (name, value) in layers::per_layer(&traced) {
            let unit = units[&name];
            metrics.push((name, value, unit));
        }
        let path = format!(
            "{}/{}-seed{}.spans.jsonl",
            args.out,
            args.workload.name(),
            args.seed
        );
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    } else {
        let mut tat: Vec<f64> = passes.iter().map(|p| p.tat_s).collect();
        let peak_rss_mb =
            ilt_prof::rss::read().map_or(0.0, |r| r.peak_bytes as f64 / (1024.0 * 1024.0));
        metrics.push(("setup_s".into(), bench.setup_s(), "s"));
        metrics.push(("tat_s".into(), stats::median(&mut tat), "s"));
        metrics.push((
            "l2_ratio".into(),
            first.l2 as f64 / reference.l2.max(1) as f64,
            "ratio",
        ));
        metrics.push((
            "pvband_ratio".into(),
            first.pvband as f64 / reference.pvband.max(1) as f64,
            "ratio",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
    }

    for (name, value, _) in &metrics {
        tally.check(value.is_finite(), || format!("metric {name} is not finite"));
    }
    tally.failed = tally.failed.min(tally.attempted);
    if !args.trace {
        let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.push(("ok_share".into(), ok_share, "share"));
    }

    for failure in &tally.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!(
        "perfbench-context {}",
        context_json(args, &bench, passes.len(), &tuned, &first, &reference)
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    0
}

/// What the program ran with: the workload, the effective executor
/// widths and the FFT autotuner's per-size choices (timing-based, so they
/// can differ between runs).
fn context_json(
    args: &Args,
    bench: &Bench,
    passes: usize,
    tuned: &[(usize, usize, ilt_fft::cache::TunedParams)],
    quality: &run::Quality,
    reference: &run::Quality,
) -> String {
    let autotune: Vec<String> = tuned
        .iter()
        .map(|(n, t, p)| {
            format!(
                "\"n{n}_t{t}\": {{\"block\": {}, \"row_batch\": {}}}",
                p.block, p.row_batch
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {passes}, \"clip\": {}, \"tile\": {}, \"tile_workers\": {}, \"inner_threads\": {}, \"inner_budget\": {}, \"l2_px\": {}, \"pvband_px\": {}, \"stitch_loss\": {:?}, \"crossings\": {}, \"reference_l2_px\": {}, \"reference_pvband_px\": {}, \"autotune\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        bench.cfg.clip,
        bench.cfg.partition.tile,
        bench.executor.workers(),
        ilt_par::configured_inner_threads(),
        bench.executor.inner_budget().threads(),
        quality.l2,
        quality.pvband,
        quality.stitch,
        quality.crossings,
        reference.l2,
        reference.pvband,
        autotune.join(", ")
    )
}
