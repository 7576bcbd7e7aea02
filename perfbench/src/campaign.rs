//! The campaign workload: seeded single-fault jobs through `hb-serve` into
//! a fresh store, on a fixed pool of workers. Each iteration runs a cold
//! leg (every job launches from scratch) and a warm leg (every job restores
//! the shared post-warmup checkpoint) over the same fault seeds.

use crate::kernels::{self, Kernel};
use crate::report::{median, percentile, ratio, Report};
use crate::sim;
use crate::trace::{SpanId, Tracer};
use crate::{Args, WORK_DIR};
use hb_core::{CellDim, MachineConfig, SnapshotDram};
use hb_serve::{
    run_jobs, Campaign, CampaignSummary, CancelToken, Executor, JobError, JobRecord, JobSpec,
    RunOpts, SimExecutor, Store,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of the job pool: two, so the campaign fits a two-core
/// host.
const WORKERS: usize = 2;
/// Fault jobs per leg of one iteration.
const JOBS_PER_LEG: usize = 50;
/// Fault jobs per leg of the small campaign the simulation workloads'
/// traced runs make, so every run reports the `serve.*` layer.
const MINI_JOBS: usize = 6;
/// Measured iterations a run makes even past its time budget.
const MIN_ITERS: usize = 2;
const OUTCOMES: [&str; 4] = ["masked", "sdc", "detected", "hang"];

/// The campaign machine: `hb-serve`'s default 4x4 Cell with the pinned
/// host knobs.
fn config() -> MachineConfig {
    sim::config(CellDim { x: 4, y: 4 })
}

/// Times every job the pool runs, as one span per job.
struct TimedExec<'a> {
    inner: SimExecutor,
    tracer: &'a Tracer,
    parent: SpanId,
    next: AtomicU64,
    job_ms: Mutex<Vec<f64>>,
}

impl Executor for TimedExec<'_> {
    fn run(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (rec, secs) = self.tracer.span("serve.job", id, self.parent, |_| {
            self.inner.run(spec, store)
        });
        self.job_ms
            .lock()
            .expect("job timer poisoned")
            .push(secs * 1e3);
        rec
    }
}

/// What one iteration did.
struct Iteration {
    setup_s: f64,
    /// Wall time of the cold and warm legs.
    legs_s: f64,
    job_ms: Vec<f64>,
    jobs: usize,
    cycles: u64,
    instrs: u64,
    /// Cold-leg outcome per fault seed.
    outcomes: Vec<String>,
    retries: usize,
    injections: usize,
    attempted: u64,
    /// Jobs that failed or disagreed with their reference.
    failed: u64,
    errors: Vec<String>,
}

impl Iteration {
    fn fail(&mut self, jobs: u64, msg: String) {
        self.failed += jobs;
        self.errors.push(msg);
    }
}

/// Golden DRAM digest of the campaign kernel: the kernel is run here,
/// outside `hb-serve`, and checked against `hb_workloads::golden`.
fn expected_digest(tracer: &Tracer) -> Result<u64, String> {
    let cfg = config();
    let kernels::Prepared {
        mut machine,
        validator,
        ..
    } = kernels::prepare(Kernel::CampaignSgemm, &cfg, 0, &Tracer::new(false), 0, None);
    let (res, _) = tracer.span("validate.golden", 0, None, |_| {
        machine.run(10_000_000).map_err(|e| e.to_string())?;
        validator.validate(&mut machine)?;
        Ok(hb_serve::exec::digest(
            &SnapshotDram::from_machine(&machine),
            cfg.num_cells,
        ))
    });
    res
}

/// Counts the jobs of a `run_jobs` call that were not stored.
fn check_summary(what: &str, s: &CampaignSummary, jobs: usize, it: &mut Iteration) {
    if s.run != jobs {
        let msg = format!("{what}: {} of {jobs} jobs stored; {}", s.run, s.line());
        it.fail(jobs.saturating_sub(s.run) as u64, msg);
    }
}

fn iteration(i: u64, seed: u64, jobs: usize, golden_digest: u64, tracer: &Tracer) -> Iteration {
    let cfg = config();
    // Job `j` uses fault seed `base + j`; a hashed base keeps the job sets
    // of different workload seeds apart.
    let base = kernels::sub_seed(seed, 9);
    let cold = Campaign::fault("perfbench cold", "sgemm", &cfg, base, jobs).specs;
    let warm = Campaign::fault("perfbench warm", "warm:sgemm", &cfg, base, jobs).specs;
    let dir = PathBuf::from(format!("{WORK_DIR}/store-{}-{i}", std::process::id()));
    let mut it = Iteration {
        setup_s: 0.0,
        legs_s: 0.0,
        job_ms: Vec::new(),
        jobs: 2 * jobs,
        cycles: 0,
        instrs: 0,
        outcomes: Vec::new(),
        retries: 0,
        injections: 0,
        attempted: 2 * jobs as u64 + 2,
        failed: 0,
        errors: Vec::new(),
    };
    let opts = RunOpts {
        threads: WORKERS,
        ..RunOpts::default()
    };
    let cancel = CancelToken::new();
    tracer.span("campaign.iteration", i, None, |sp| {
        let exec = TimedExec {
            inner: SimExecutor::new(WORKERS),
            tracer,
            parent: sp,
            next: AtomicU64::new(0),
            job_ms: Mutex::new(Vec::new()),
        };
        let _ = std::fs::remove_dir_all(&dir);
        // Set-up: open a fresh store and run both golden jobs.
        let (setup, setup_s) = tracer.span("campaign.setup", i, sp, |_| {
            let store = Store::open(&dir)?;
            let golden = [cold[0].clone(), warm[0].clone()];
            let s = run_jobs(&golden, &store, &exec, &opts, &cancel);
            Ok::<_, std::io::Error>((store, s))
        });
        it.setup_s = setup_s;
        let (store, golden) = match setup {
            Ok(v) => v,
            Err(e) => {
                let msg = format!("cannot open store {}: {e}", dir.display());
                it.fail(it.attempted, msg);
                return;
            }
        };
        check_summary("golden jobs", &golden, 2, &mut it);
        exec.job_ms.lock().expect("job timer poisoned").clear();
        for spec in [&cold[0], &warm[0]] {
            match store.get(&spec.hash()) {
                Some(rec) if rec.outcome == "ok" && rec.dram_digest == golden_digest => {}
                Some(rec) => it.fail(
                    1,
                    format!(
                        "golden job {}: outcome {} digest {:#x}, want ok {golden_digest:#x}",
                        spec.kernel, rec.outcome, rec.dram_digest
                    ),
                ),
                None => {} // counted by check_summary
            }
        }
        let (cold_sum, cold_s) = tracer.span("campaign.cold", i, sp, |_| {
            run_jobs(&cold[1..], &store, &exec, &opts, &cancel)
        });
        let (warm_sum, warm_s) = tracer.span("campaign.warm", i, sp, |_| {
            run_jobs(&warm[1..], &store, &exec, &opts, &cancel)
        });
        it.legs_s = cold_s + warm_s;
        check_summary("cold leg", &cold_sum, jobs, &mut it);
        check_summary("warm leg", &warm_sum, jobs, &mut it);
        it.retries = cold_sum.retried + warm_sum.retried;
        it.job_ms = exec.job_ms.into_inner().expect("job timer poisoned");
        // A warm start restores bit-exactly, so each seed's outcome must
        // match its cold twin.
        for (c, w) in cold[1..].iter().zip(&warm[1..]) {
            // A job that was not stored is counted by check_summary.
            if let (Some(c), Some(w)) = (store.get(&c.hash()), store.get(&w.hash())) {
                let key = |r: &JobRecord| {
                    (
                        r.outcome.clone(),
                        r.site.clone(),
                        r.inj_cycle,
                        r.cycles,
                        r.instrs,
                        r.dram_digest,
                    )
                };
                if key(&c) != key(&w) {
                    let msg = format!(
                        "seed {}: warm run differs from cold ({} vs {})",
                        c.seed, w.outcome, c.outcome
                    );
                    it.fail(1, msg);
                }
                it.cycles += c.cycles + w.cycles;
                it.instrs += c.instrs + w.instrs;
                it.injections += usize::from(!c.site.is_empty());
                it.outcomes.push(c.outcome);
            }
        }
    });
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        it.errors
            .push(format!("cannot remove store {}: {e}", dir.display()));
    }
    it
}

/// Runs campaign iterations for `seconds`; the first is warm-up.
fn timed_loop(
    args: &Args,
    seconds: f64,
    jobs: usize,
    min_iters: usize,
    tracer: &Tracer,
    r: &mut Report,
) -> Vec<Iteration> {
    let golden_digest = match expected_digest(tracer) {
        Ok(d) => d,
        Err(e) => {
            r.attempted += 1;
            r.failed += 1;
            r.errors.push(format!("campaign kernel golden check: {e}"));
            return Vec::new();
        }
    };
    let start = Instant::now();
    let mut iters = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    let mut i = 0;
    while i < sim::WARMUP + min_iters || start.elapsed().as_secs_f64() < seconds {
        let mut it = iteration(i as u64, args.seed, jobs, golden_digest, tracer);
        match &reference {
            Some(o) if *o != it.outcomes => {
                let changed = o.iter().zip(&it.outcomes).filter(|(a, b)| a != b).count();
                let msg = format!("{changed} per-seed outcomes changed between iterations");
                it.fail(changed.max(1) as u64, msg);
            }
            Some(_) => {}
            None => reference = Some(it.outcomes.clone()),
        }
        r.attempted += it.attempted;
        r.failed += it.failed;
        if !it.errors.is_empty() {
            r.errors.append(&mut it.errors);
        } else if i >= sim::WARMUP {
            iters.push(it);
        }
        i += 1;
    }
    iters
}

/// Campaign-layer metrics of one iteration (all iterations agree).
fn serve_metrics(r: &mut Report, iters: &[Iteration]) {
    let job_ms: Vec<f64> = iters
        .iter()
        .flat_map(|it| it.job_ms.iter().copied())
        .collect();
    r.metric("serve.job_ms", median(&job_ms), "ms");
    let Some(it) = iters.first() else { return };
    r.metric("serve.retries", it.retries as f64, "count");
    r.metric("fault.injections", it.injections as f64, "count");
    for o in OUTCOMES {
        let n = it.outcomes.iter().filter(|x| *x == o).count();
        r.metric(&format!("fault.outcomes.{o}"), n as f64, "count");
    }
}

/// The campaign workload. Returns the number of measured iterations.
pub fn workload(args: &Args, tracer: &Tracer, r: &mut Report) -> usize {
    let cfg = config();
    let mut seconds = args.seconds;
    if args.trace {
        // The campaign kernel's phase profile, from the same closed loop
        // the simulation workloads use.
        let lr = sim::timed_loop(
            &[Kernel::CampaignSgemm],
            &cfg,
            0,
            args.seconds * 0.2,
            true,
            tracer,
        );
        r.attempted += lr.attempted;
        r.failed += lr.failed;
        r.errors.extend(lr.errors.iter().cloned());
        crate::layer_metrics(r, &lr);
        seconds *= 0.8;
    }
    let iters = timed_loop(args, seconds, JOBS_PER_LEG, MIN_ITERS, tracer, r);
    if args.trace {
        serve_metrics(r, &iters);
    } else {
        let legs_s: f64 = iters.iter().map(|it| it.legs_s).sum();
        let cycles: u64 = iters.iter().map(|it| it.cycles).sum();
        let instrs: u64 = iters.iter().map(|it| it.instrs).sum();
        let jobs: usize = iters.iter().map(|it| it.jobs).sum();
        let job_ms: Vec<f64> = iters
            .iter()
            .flat_map(|it| it.job_ms.iter().copied())
            .collect();
        let setups: Vec<f64> = iters.iter().map(|it| it.setup_s).collect();
        r.metric("sim_cycles_per_s", ratio(cycles as f64, legs_s), "cycles/s");
        r.metric("guest_mips", ratio(instrs as f64, legs_s) / 1e6, "MIPS");
        r.metric("setup_s", median(&setups), "s");
        r.metric("jobs_per_s", ratio(jobs as f64, legs_s), "1/s");
        r.metric("job_ms_p90", percentile(&job_ms, 0.9), "ms");
        println!(
            "info job_ms_p50 {:.6} ms over {} jobs; p90 has {} beyond it",
            median(&job_ms),
            job_ms.len(),
            job_ms.len() / 10
        );
    }
    if let Some(it) = iters.first() {
        let counts: Vec<String> = OUTCOMES
            .iter()
            .map(|o| format!("{o}={}", it.outcomes.iter().filter(|x| x == o).count()))
            .collect();
        println!(
            "outcomes per iteration (cold leg; warm identical): {}",
            counts.join(" ")
        );
    }
    iters.len()
}

/// One small campaign iteration, so a simulation workload's traced run
/// reports the campaign layer too.
pub fn mini(args: &Args, tracer: &Tracer, r: &mut Report) {
    let iters = timed_loop(args, 0.0, MINI_JOBS, 1, tracer, r);
    serve_metrics(r, &iters);
}
