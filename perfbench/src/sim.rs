//! The single-simulation workloads: a closed loop that launches, runs and
//! validates one kernel at a time on one host thread.

use crate::kernels::{self, Kernel, STAGES};
use crate::trace::{SpanId, Tracer};
use hb_core::{CellDim, Machine, MachineConfig, PhaseTimes};
use std::time::Instant;

/// Cycle budget of one run; every workload kernel finishes far below it.
const BUDGET: u64 = 50_000_000;

/// The machine every simulation runs on. Host knobs are pinned here, so a
/// stray `HB_THREADS` or `HB_EVENT_CORE` cannot change what is measured:
/// one tile-phase thread, the default event core, and telemetry, guest
/// profiling and race checking off.
pub fn config(dim: CellDim) -> MachineConfig {
    MachineConfig {
        cell_dim: dim,
        threads: 1,
        event_core: true,
        telemetry_window: 0,
        profile: false,
        race_check: false,
        ..MachineConfig::baseline_16x8()
    }
}

/// Exact work counts of one run. For a given seed they must repeat on
/// every iteration and every run; any change means simulated behaviour
/// changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub cycles: u64,
    pub instrs: u64,
    /// Packets that completed a link traversal, both networks.
    pub flits: u64,
    /// Packets delivered by the Cell networks.
    pub ejected: u64,
    pub link_busy: u64,
    pub link_stalled: u64,
    pub cache_hits: u64,
    pub cache_accesses: u64,
    pub cache_rejected: u64,
    pub hbm_reads: u64,
    pub hbm_writes: u64,
    pub hbm_row_hits: u64,
    pub hbm_row_accesses: u64,
    pub hbm_data_cycles: u64,
    pub hbm_cycles: u64,
    pub stepped: u64,
    pub skipped: u64,
}

impl Work {
    pub fn collect(m: &Machine) -> Work {
        let cell = m.cell(0);
        let links = cell
            .request_net_snapshot()
            .into_iter()
            .chain(cell.response_net_snapshot());
        let (mut flits, mut busy, mut stalled) = (0, 0, 0);
        for l in links {
            flits += l.flits;
            busy += l.busy;
            stalled += l.stalled;
        }
        let c = cell.cache_stats();
        let h = cell.hbm_stats();
        let (stepped, skipped) = m.tile_ticks();
        Work {
            cycles: m.cycle(),
            instrs: cell.core_stats().instrs,
            flits,
            ejected: cell.net_ejected(),
            link_busy: busy,
            link_stalled: stalled,
            cache_hits: c.hits,
            cache_accesses: c.hits + c.misses + c.secondary_misses + c.write_validate_fills,
            cache_rejected: c.rejected_input + c.rejected_mshr,
            hbm_reads: h.reads,
            hbm_writes: h.writes,
            hbm_row_hits: h.row_hits,
            hbm_row_accesses: h.row_hits + h.row_misses + h.row_conflicts,
            hbm_data_cycles: h.read_cycles + h.write_cycles,
            hbm_cycles: h.denominator(),
            stepped,
            skipped,
        }
    }

    pub fn add(&mut self, o: &Work) {
        self.cycles += o.cycles;
        self.instrs += o.instrs;
        self.flits += o.flits;
        self.ejected += o.ejected;
        self.link_busy += o.link_busy;
        self.link_stalled += o.link_stalled;
        self.cache_hits += o.cache_hits;
        self.cache_accesses += o.cache_accesses;
        self.cache_rejected += o.cache_rejected;
        self.hbm_reads += o.hbm_reads;
        self.hbm_writes += o.hbm_writes;
        self.hbm_row_hits += o.hbm_row_hits;
        self.hbm_row_accesses += o.hbm_row_accesses;
        self.hbm_data_cycles += o.hbm_data_cycles;
        self.hbm_cycles += o.hbm_cycles;
        self.stepped += o.stepped;
        self.skipped += o.skipped;
    }
}

/// One validated kernel run.
pub struct KernelRun {
    pub work: Work,
    pub stages: [f64; 5],
    pub run_s: f64,
    pub validate_s: f64,
    /// Host time per BSP phase; only for profiled runs.
    pub phases: PhaseTimes,
}

impl KernelRun {
    pub fn setup_s(&self) -> f64 {
        self.stages.iter().sum()
    }
}

/// Launches, runs and validates `kernel`. A profiled run steps with
/// `Machine::tick_profiled`, which bills host time to each BSP phase; an
/// unprofiled one calls `Machine::run`.
pub fn run_kernel(
    kernel: Kernel,
    cfg: &MachineConfig,
    seed: u64,
    profiled: bool,
    tracer: &Tracer,
    id: u64,
    parent: SpanId,
) -> Result<KernelRun, String> {
    let kernels::Prepared {
        mut machine,
        stages,
        validator,
    } = kernels::prepare(kernel, cfg, seed, tracer, id, parent);
    let mut phases = PhaseTimes::default();
    let (result, run_s) = if profiled {
        tracer.span("sim.tick_profiled", id, parent, |_| {
            while !machine.all_done() && machine.cycle() < BUDGET {
                machine.tick_profiled(&mut phases);
            }
            match machine.cell(0).fault() {
                Some(f) => Err(format!("fault: {f:?}")),
                None if !machine.all_done() => Err("timeout".to_owned()),
                None => Ok(()),
            }
        })
    } else {
        tracer.span("sim.run", id, parent, |_| {
            machine.run(BUDGET).map(|_| ()).map_err(|e| e.to_string())
        })
    };
    result.map_err(|e| format!("{}: {e}", kernel.label()))?;
    let work = Work::collect(&machine);
    let (checked, validate_s) = tracer.span("validate.golden", id, parent, |_| {
        validator.validate(&mut machine)
    });
    checked.map_err(|e| format!("{}: {e}", kernel.label()))?;
    Ok(KernelRun {
        work,
        stages,
        run_s,
        validate_s,
        phases,
    })
}

/// One pass over a workload's kernels.
#[derive(Default)]
pub struct Iteration {
    pub work: Work,
    pub run_s: f64,
    pub setup_s: f64,
    pub stages: [f64; 5],
    pub validate_s: f64,
    /// Setup + run + validation of every kernel.
    pub wall_s: f64,
    pub phases: PhaseTimes,
    /// Sum of the unprofiled runs' `Machine::run` time (profiled runs only).
    pub plain_run_s: f64,
}

impl Iteration {
    fn add(&mut self, r: &KernelRun) {
        self.work.add(&r.work);
        self.run_s += r.run_s;
        self.setup_s += r.setup_s();
        for (a, b) in self.stages.iter_mut().zip(r.stages) {
            *a += b;
        }
        self.validate_s += r.validate_s;
        self.wall_s += r.setup_s() + r.run_s + r.validate_s;
        add_phases(&mut self.phases, &r.phases);
    }
}

pub fn add_phases(acc: &mut PhaseTimes, p: &PhaseTimes) {
    acc.network += p.network;
    acc.memory += p.memory;
    acc.tiles += p.tiles;
    acc.sched += p.sched;
    acc.sync += p.sync;
    acc.inject += p.inject;
}

/// What a timed loop did.
pub struct LoopResult {
    /// Measured iterations (the warm-up is not among them).
    pub iters: Vec<Iteration>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The exact work counts of one iteration, when every run agreed.
    pub work: Work,
}

/// Iterations discarded as warm-up before measuring.
pub const WARMUP: usize = 1;
/// Measured iterations a run makes even past its time budget.
const MIN_ITERS: usize = 3;

/// Runs `kernels` in a closed loop for `seconds`. Every run is validated
/// against golden and its exact work counts are compared with the first
/// run of the same kernel; any mismatch counts as a failure. With
/// `profiled`, each kernel is run twice per iteration, unprofiled then
/// profiled inside spans, and both must agree.
pub fn timed_loop(
    kernels: &[Kernel],
    cfg: &MachineConfig,
    seed: u64,
    seconds: f64,
    profiled: bool,
    tracer: &Tracer,
) -> LoopResult {
    let quiet = Tracer::new(false);
    let mut refs: Vec<Option<Work>> = vec![None; kernels.len()];
    let mut out = LoopResult {
        iters: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        work: Work::default(),
    };
    let start = Instant::now();
    let mut i = 0usize;
    while i < WARMUP + MIN_ITERS || start.elapsed().as_secs_f64() < seconds {
        let mut it = Iteration::default();
        let mut ok = true;
        tracer.span("iteration", i as u64, None, |sp| {
            for (k, &kernel) in kernels.iter().enumerate() {
                let plain = profiled.then(|| {
                    tracer
                        .span("sim.unprofiled", i as u64, sp, |_| {
                            run_kernel(kernel, cfg, seed, false, &quiet, i as u64, None)
                        })
                        .0
                });
                let (run, _) = tracer.span("job", i as u64, sp, |jp| {
                    run_kernel(kernel, cfg, seed, profiled, tracer, i as u64, jp)
                });
                for r in plain.iter().chain([&run]) {
                    out.attempted += 1;
                    let verdict = match (r, &refs[k]) {
                        (Err(e), _) => Err(e.clone()),
                        (Ok(r), Some(w)) if r.work != *w => Err(format!(
                            "{}: work counts changed between runs: {:?} vs {:?}",
                            kernel.label(),
                            r.work,
                            w
                        )),
                        (Ok(r), _) => {
                            refs[k] = Some(r.work);
                            Ok(())
                        }
                    };
                    if let Err(e) = verdict {
                        out.failed += 1;
                        out.errors.push(e);
                        ok = false;
                    }
                }
                if let Ok(r) = &run {
                    it.add(r);
                }
                if let Some(Ok(p)) = &plain {
                    it.plain_run_s += p.run_s;
                }
            }
        });
        if ok && i >= WARMUP {
            out.iters.push(it);
        }
        i += 1;
    }
    for w in refs.iter().flatten() {
        out.work.add(w);
    }
    out
}

/// Median host seconds per setup stage over `iters`, in [`STAGES`] order.
pub fn stage_medians(iters: &[Iteration]) -> Vec<(&'static str, f64)> {
    STAGES
        .iter()
        .enumerate()
        .map(|(s, name)| {
            let v: Vec<f64> = iters.iter().map(|it| it.stages[s]).collect();
            (*name, crate::report::median(&v))
        })
        .collect()
}
