//! Set-up and one timed pass of a workload, with its correctness checks.

use std::time::Instant;

use ilt_core::flows::{self, FlowResult};
use ilt_core::incremental::METHOD_OURS_PIXEL;
use ilt_core::incremental::{run_incremental_in, store_tiles};
use ilt_core::{CoreError, ExperimentConfig, Session};
use ilt_grid::{BitGrid, Grid, RealGrid};
use ilt_litho::LithoError;
use ilt_opt::{LevelSetIlt, PixelIlt, TileSolver};
use ilt_store::{tile_content_hash, MaskStore, StoreKey, StoreStats};
use ilt_tile::{Partition, StitchLine, TileExecutor};

use crate::spans::Spans;
use crate::timing::{SolveStats, TimedSolver};
use crate::workload::{self, changed_tiles, expected_dirty, Inputs, Scale, Workload};

/// Byte budget of the benchmark's private mask store: large enough that a
/// whole ECO chain never evicts.
const STORE_BUDGET: u64 = 256 * 1024 * 1024;
/// Rounds of the store lookup probe.
const GET_ROUNDS: usize = 9;

/// Which flow a timed result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    Gls,
    MlDnc,
    FullChip,
    Ours,
    Eco,
}

/// Everything set up before the first timed flow.
pub struct Bench {
    pub workload: Workload,
    pub cfg: ExperimentConfig,
    pub session: Session,
    pub inputs: Inputs,
    pub executor: TileExecutor,
    pub partition: Partition,
    pub lines: Vec<StitchLine>,
    pub session_s: f64,
    pub gen_s: f64,
    pub warmup_s: f64,
}

impl Bench {
    /// Builds the session, generates the inputs and warms every FFT size
    /// and simulator the workload uses, so plan builds and autotuning are
    /// paid here and not inside a timed flow.
    pub fn setup(workload: Workload, scale: Scale, seed: u64) -> Result<Bench, CoreError> {
        ilt_par::set_inner_threads(1);
        let cfg = workload::config(workload, scale);
        let start = Instant::now();
        let session = Session::new(cfg.clone())?;
        let session_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let inputs = workload::generate(workload, &cfg, seed);
        let partition = Partition::new(cfg.clip, cfg.clip, cfg.partition)?;
        let lines = partition.stitch_lines();
        let gen_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        for (n, s) in workload::sim_sizes(&cfg) {
            // A level whose kernels do not fit its grid is skipped by the
            // pixel solver too.
            let system = match session.bank().system(n, s) {
                Err(LithoError::GridMismatch { .. }) => continue,
                built => built?,
            };
            let mut ws = system.workspace();
            let mask: RealGrid = Grid::new(n, n, 0.5);
            system.simulate_into(&mask, &mut ws)?;
            system.gradient_into(&mut ws, &mask)?;
        }
        let warmup_s = start.elapsed().as_secs_f64();

        Ok(Bench {
            workload,
            executor: TileExecutor::new(cfg.workers),
            cfg,
            session,
            inputs,
            partition,
            lines,
            session_s,
            gen_s,
            warmup_s,
        })
    }

    pub fn setup_s(&self) -> f64 {
        self.session_s + self.gen_s + self.warmup_s
    }
}

/// Summed whole-clip quality of every mask a pass produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub l2: u64,
    pub pvband: u64,
    pub stitch: f64,
    /// Mask features crossing a stitch line (stitch-loss windows).
    pub crossings: u64,
}

/// The quality of printing each inspected target unchanged, as its own
/// mask, summed with the same multiplicity as a pass inspects it: the
/// reference the end-to-end quality ratios divide by. Input variation
/// between seeds moves both sides of the ratio alike.
pub fn reference_quality(bench: &Bench) -> Result<Quality, CoreError> {
    let (targets, copies): (Vec<&BitGrid>, u64) = match bench.workload {
        Workload::Table1Row => (vec![&bench.inputs.clip], 4),
        Workload::Fullchip7x7 => (vec![&bench.inputs.clip], 1),
        Workload::EcoEdits => (bench.inputs.layouts.iter().collect(), 1),
    };
    let mut q = Quality::default();
    for target in targets {
        let (quality, report) =
            bench
                .session
                .inspect_mask(&bench.lines, target, &target.to_real())?;
        q.l2 += copies * quality.l2 as u64;
        q.pvband += copies * quality.pvband as u64;
        q.stitch += copies as f64 * report.total;
        q.crossings += copies * report.intersections.len() as u64;
    }
    Ok(q)
}

/// ECO accounting of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcoStats {
    pub tiles_reused: u64,
    pub tiles_resolved: u64,
    pub put_s: f64,
    pub store: StoreStats,
    pub get_us: f64,
}

/// The result of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The workload's headline turn-around time.
    pub tat_s: f64,
    pub flows: Vec<(FlowKind, FlowResult)>,
    pub quality: Quality,
    pub inspect_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub eco: EcoStats,
}

impl Pass {
    /// Records a correctness check; a failed check counts as a failed
    /// operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn flow_s(&self, kind: FlowKind) -> f64 {
        self.flows
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, f)| f.wall_seconds)
            .sum()
    }
}

/// Runs one pass. With `spans` set, every public call gets a span.
pub fn run_pass(bench: &Bench, stats: &SolveStats, spans: Option<&Spans>) -> Pass {
    let mut pass = Pass::default();
    let root = spans.map(|s| s.open(bench.workload.name(), 0));
    let root_id = root.as_ref().map_or(0, |r| r.id());
    let kinds: &[FlowKind] = match bench.workload {
        Workload::Table1Row => &[
            FlowKind::Gls,
            FlowKind::MlDnc,
            FlowKind::FullChip,
            FlowKind::Ours,
        ],
        Workload::Fullchip7x7 => &[FlowKind::Ours],
        Workload::EcoEdits => &[],
    };
    for &kind in kinds {
        let target = &bench.inputs.clip;
        if let Some(flow) = timed_flow(bench, stats, spans, root_id, kind, target, &mut pass) {
            pass.tat_s += flow.wall_seconds;
            inspect(bench, spans, root_id, target, &flow.mask, &mut pass);
            pass.flows.push((kind, flow));
        }
    }
    if bench.workload == Workload::EcoEdits {
        eco_chain(bench, stats, spans, root_id, &mut pass);
    }
    if let (Some(s), Some(open)) = (spans, root) {
        s.close(open, String::new());
    }
    pass
}

/// Runs one cold flow through the timing wrapper and checks it.
fn timed_flow(
    bench: &Bench,
    stats: &SolveStats,
    spans: Option<&Spans>,
    parent: u64,
    kind: FlowKind,
    target: &BitGrid,
    pass: &mut Pass,
) -> Option<FlowResult> {
    let (cfg, bank, exec) = (&bench.cfg, bench.session.bank(), &bench.executor);
    let (pixel, gls) = (PixelIlt::new(), LevelSetIlt::new());
    let (inner, tag): (&dyn TileSolver, _) = match kind {
        FlowKind::Gls => (&gls, "levelset"),
        _ => (&pixel, "pixel"),
    };
    pass.attempted += 1;
    let open = spans.map(|s| s.open("flow", parent));
    let timed = TimedSolver {
        inner,
        tag,
        stats,
        spans: spans.zip(open.as_ref().map(|o| o.id())),
    };
    let result = match kind {
        FlowKind::Gls | FlowKind::MlDnc => {
            flows::divide_and_conquer(cfg, bank, target, &timed, exec)
        }
        FlowKind::FullChip => flows::full_chip(cfg, bank, target, &timed),
        FlowKind::Ours | FlowKind::Eco => flows::multigrid_schwarz(cfg, bank, target, &timed, exec),
    };
    if let (Some(s), Some(open)) = (spans, open) {
        s.close(open, format!("{kind:?}"));
    }
    check_flow(result, &format!("{kind:?}"), pass)
}

type FlowOutcome = Result<FlowResult, CoreError>;

/// Checks a flow result: `Ok`, no degraded tile, and a finite mask in
/// `[0, 1]`. Returns the flow when it produced a mask.
fn check_flow(result: FlowOutcome, what: &str, pass: &mut Pass) -> Option<FlowResult> {
    match result {
        Err(e) => {
            pass.check(false, || format!("{what}: flow failed: {e}"));
            None
        }
        Ok(flow) => {
            pass.check(flow.degraded.is_empty(), || {
                format!("{what}: {} degraded tiles", flow.degraded.len())
            });
            pass.check(mask_in_range(&flow.mask), || {
                format!("{what}: mask outside [0, 1]")
            });
            Some(flow)
        }
    }
}

pub fn mask_in_range(mask: &RealGrid) -> bool {
    mask.as_slice()
        .iter()
        .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
}

/// Whole-clip inspection, summed into the pass quality.
fn inspect(
    bench: &Bench,
    spans: Option<&Spans>,
    parent: u64,
    target: &BitGrid,
    mask: &RealGrid,
    pass: &mut Pass,
) {
    let start = Instant::now();
    let run = || bench.session.inspect_mask(&bench.lines, target, mask);
    let result = match spans {
        Some(s) => s.wrap("inspect", parent, |_| run()),
        None => run(),
    };
    pass.inspect_s += start.elapsed().as_secs_f64();
    match result {
        Ok((q, report)) => {
            pass.quality.l2 += q.l2 as u64;
            pass.quality.pvband += q.pvband as u64;
            pass.quality.stitch += report.total;
            pass.quality.crossings += report.intersections.len() as u64;
            pass.check(report.total.is_finite(), || {
                "inspection: stitch loss not finite".into()
            });
        }
        Err(e) => pass.check(false, || format!("inspection failed: {e}")),
    }
}

/// The ECO workload: a cold solve of the base clip committed to a private
/// store, then the seeded edit chain, each edit re-solved warm and
/// committed before the next.
fn eco_chain(bench: &Bench, stats: &SolveStats, spans: Option<&Spans>, root: u64, pass: &mut Pass) {
    let (cfg, bank, exec) = (&bench.cfg, bench.session.bank(), &bench.executor);
    let store = MaskStore::new(STORE_BUDGET, None);
    let layouts = &bench.inputs.layouts;
    let tiles = bench.partition.tiles().len() as u64;
    let Some(base) = timed_flow(bench, stats, spans, root, FlowKind::Ours, &layouts[0], pass)
    else {
        return;
    };
    inspect(bench, spans, root, &layouts[0], &base.mask, pass);
    commit(bench, &store, spans, root, &layouts[0], &base.mask, pass);
    pass.flows.push((FlowKind::Ours, base));

    let pixel = PixelIlt::new();
    for k in 1..layouts.len() {
        let (prev, next) = (&layouts[k - 1], &layouts[k]);
        pass.attempted += 1;
        let open = spans.map(|s| s.open("run_incremental_in", root));
        let timed = TimedSolver {
            inner: &pixel,
            tag: "pixel",
            stats,
            spans: spans.zip(open.as_ref().map(|o| o.id())),
        };
        let result = run_incremental_in(cfg, bank, &store, prev, next, &timed, exec);
        if let (Some(s), Some(open)) = (spans, open) {
            s.close(open, format!("edit {k}"));
        }
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                pass.check(false, || {
                    format!("edit {k}: incremental re-solve failed: {e}")
                });
                continue;
            }
        };
        let what = format!("edit {k}");
        let edited = changed_tiles(&bench.partition, prev, next);
        let dirty = expected_dirty(&bench.partition, &edited);
        pass.check(outcome.diff.edited == edited, || {
            format!(
                "{what}: edited tiles {:?}, expected {edited:?}",
                outcome.diff.edited
            )
        });
        pass.check(outcome.diff.dirty == dirty, || {
            format!(
                "{what}: dirty set {:?}, expected {dirty:?}",
                outcome.diff.dirty
            )
        });
        let (reused, resolved) = (outcome.tiles_reused as u64, outcome.tiles_resolved as u64);
        pass.check(reused + resolved == tiles, || {
            format!("{what}: {reused} reused + {resolved} re-solved != {tiles} tiles")
        });
        pass.check(resolved == dirty.len() as u64, || {
            format!(
                "{what}: {resolved} tiles re-solved, dirty set has {}",
                dirty.len()
            )
        });
        pass.eco.tiles_reused += reused;
        pass.eco.tiles_resolved += resolved;
        let Some(flow) = check_flow(Ok(outcome.flow), &what, pass) else {
            continue;
        };
        let put_s = commit(bench, &store, spans, root, next, &flow.mask, pass);
        pass.tat_s += flow.wall_seconds + put_s;
        inspect(bench, spans, root, next, &flow.mask, pass);
        pass.flows.push((FlowKind::Eco, flow));
    }
    pass.eco.store = store.stats();
    let (get_us, hits) = store_get_us(bench, &store, layouts.last().expect("chain"));
    pass.eco.get_us = get_us;
    pass.check(hits == tiles, || {
        format!("after the last commit {hits} of {tiles} tiles are in the store")
    });
}

/// Commits a solved mask's tiles to the store; returns the seconds taken.
fn commit(
    bench: &Bench,
    store: &MaskStore,
    spans: Option<&Spans>,
    parent: u64,
    target: &BitGrid,
    mask: &RealGrid,
    pass: &mut Pass,
) -> f64 {
    let start = Instant::now();
    let run = || store_tiles(store, &bench.cfg, target, mask);
    let result = match spans {
        Some(s) => s.wrap("store_tiles", parent, |_| run()),
        None => run(),
    };
    let seconds = start.elapsed().as_secs_f64();
    pass.eco.put_s += seconds;
    let tiles = bench.partition.tiles().len();
    match result {
        Ok(stored) => pass.check(stored == tiles, || {
            format!("committed {stored} of {tiles} tiles")
        }),
        Err(e) => pass.check(false, || format!("commit failed: {e}")),
    }
    seconds
}

/// Unit cost of one store lookup that hits: the median over rounds of
/// looking up every tile of the last committed layout, and how many of
/// them were found. Runs after the store's counters were read, so it does
/// not inflate them.
fn store_get_us(bench: &Bench, store: &MaskStore, layout: &BitGrid) -> (f64, u64) {
    let fp = bench.cfg.fingerprint();
    let keys: Vec<StoreKey> = bench
        .partition
        .tiles()
        .iter()
        .map(|t| StoreKey::new(tile_content_hash(layout, t.rect), fp, METHOD_OURS_PIXEL))
        .collect();
    let mut hits = 0;
    let mut samples: Vec<f64> = (0..GET_ROUNDS)
        .map(|_| {
            let start = Instant::now();
            hits = keys.iter().filter(|k| store.get(k).is_some()).count() as u64;
            start.elapsed().as_secs_f64() * 1e6 / keys.len() as f64
        })
        .collect();
    (crate::stats::median(&mut samples), hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for w in Workload::ALL {
            let bench = Bench::setup(w, Scale::Tiny, 5).unwrap();
            let stats = SolveStats::default();
            let pass = run_pass(&bench, &stats, None);
            assert_eq!(pass.failed, 0, "{}: {:?}", w.name(), pass.failures);
            assert!(
                pass.tat_s > 0.0 && pass.flow_s(FlowKind::Ours) > 0.0,
                "{}",
                w.name()
            );
            assert!(pass.quality.crossings > 0);
            let reference = reference_quality(&bench).unwrap();
            assert!(reference.l2 > 0 && reference.pvband > 0);
            let buckets = stats.snapshot();
            assert!(buckets.values().all(|b| b.failures == 0 && b.solves > 0));
            let spans = Spans::new(1);
            let traced = run_pass(&bench, &SolveStats::default(), Some(&spans));
            assert_eq!(traced.quality, pass.quality, "{}", w.name());
            assert!(spans.records().iter().any(|r| r.name == "solve"));
            if w == Workload::EcoEdits {
                assert_eq!(pass.eco.store.evictions, 0);
                assert!(pass.eco.tiles_reused > 0 && pass.eco.get_us > 0.0);
            }
        }
    }
}
