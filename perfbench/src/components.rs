//! Isolated component timings: each drives one layer's public API with
//! fixed synthetic inputs, so a speed-up of that layer shows even where its
//! share of a workload's host time is small.

use crate::kernels::{self, Kernel};
use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{sim, Args, WORK_DIR};
use hb_cache::{AccessKind, CacheBank, CacheConfig, CacheRequest};
use hb_core::{CellDim, Machine};
use hb_mem::{DramRequest, Hbm2Channel, Hbm2Config};
use hb_noc::{Coord, Network, NetworkConfig, Packet, RouteOrder};
use hb_serve::{
    run_jobs, Campaign, CancelToken, Executor, JobError, JobRecord, JobSpec, RunOpts, Store,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per component; each reports its median.
const REPS: usize = 5;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

/// `Network::tick` on the 16x10 ruche mesh under one random packet per
/// cycle (fixed LCG stream).
fn noc_tick_ns() -> f64 {
    const TICKS: u64 = 5_000;
    median_of(|| {
        let mut net: Network<u64> = Network::new(NetworkConfig {
            width: 16,
            height: 10,
            ruche_factor: 3,
            order: RouteOrder::XThenY,
            fifo_depth: 4,
            link_occupancy: 1,
        });
        let mut seed = 1u64;
        let start = Instant::now();
        for _ in 0..TICKS {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let src = Coord::new((seed >> 33) as u8 % 16, (seed >> 41) as u8 % 10);
            let dst = Coord::new((seed >> 49) as u8 % 16, (seed >> 57) as u8 % 10);
            net.inject(
                src,
                Packet {
                    src,
                    dst,
                    payload: seed,
                },
            );
            net.tick();
            black_box(net.eject(dst));
        }
        start.elapsed().as_secs_f64() * 1e9 / TICKS as f64
    })
}

/// `CacheBank::tick` on a stream of loads that hit 16 words of one line.
fn cache_tick_ns() -> f64 {
    const OPS: u64 = 100_000;
    median_of(|| {
        let mut bank = CacheBank::new(CacheConfig::default());
        bank.try_accept(CacheRequest {
            id: 0,
            addr: 0,
            kind: AccessKind::Store,
            data: 1,
            width: 4,
        });
        bank.tick();
        let start = Instant::now();
        for i in 0..OPS {
            bank.try_accept(CacheRequest {
                id: i,
                addr: (i % 16) as u32 * 4,
                kind: AccessKind::Load,
                data: 0,
                width: 4,
            });
            bank.tick();
            black_box(bank.pop_response());
        }
        start.elapsed().as_secs_f64() * 1e9 / OPS as f64
    })
}

/// `Hbm2Channel::tick` on a stream of sequential line reads, one offered
/// per cycle. Issue outpaces the data bus, so the in-flight list grows
/// with the run: the tick cost includes its retire scan.
fn hbm_tick_ns() -> f64 {
    const TICKS: u64 = 20_000;
    median_of(|| {
        let mut ch = Hbm2Channel::new(Hbm2Config::default());
        let mut next = 0u32;
        let start = Instant::now();
        for _ in 0..TICKS {
            if ch.enqueue(DramRequest {
                id: u64::from(next),
                addr: next * 64,
                write: false,
            }) {
                next += 1;
            }
            ch.tick();
            black_box(ch.pop_response());
        }
        start.elapsed().as_secs_f64() * 1e9 / TICKS as f64
    })
}

/// `hb_ckpt::encode` and `restore` of a 16x8 SGEMM machine halfway through
/// its run. Returns (save ms, restore ms, bytes).
fn checkpoint(seed: u64, r: &mut Report) -> (f64, f64, f64) {
    let cfg = sim::config(CellDim { x: 16, y: 8 });
    let quiet = Tracer::new(false);
    let mut probe = kernels::prepare(Kernel::Sgemm, &cfg, seed, &quiet, 0, None).machine;
    if let Err(e) = probe.run(50_000_000) {
        r.errors.push(format!("checkpoint probe run: {e}"));
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut m = kernels::prepare(Kernel::Sgemm, &cfg, seed, &quiet, 0, None).machine;
    while m.cycle() < probe.cycle() / 2 {
        m.tick();
    }
    let mut blob = Vec::new();
    let save_ms = median_of(|| {
        let start = Instant::now();
        blob = hb_ckpt::encode(&m);
        start.elapsed().as_secs_f64() * 1e3
    });
    let mut restored = Machine::new(cfg.clone());
    let restore_ms = median_of(|| {
        let start = Instant::now();
        restored = Machine::new(cfg.clone());
        let ok = hb_ckpt::restore(&mut restored, &blob);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = ok {
            r.errors.push(format!("checkpoint restore: {e}"));
        }
        ms
    });
    if hb_ckpt::encode(&restored) != blob {
        r.errors
            .push("restored checkpoint does not re-encode to the same bytes".to_owned());
    }
    (save_ms, restore_ms, blob.len() as f64)
}

/// Refuses every job: in the cached re-run every job must be a hit.
struct NoExec;

impl Executor for NoExec {
    fn run(&self, spec: &JobSpec, _: &Store) -> Result<JobRecord, JobError> {
        Err(JobError::Permanent(format!(
            "{} was not cached",
            spec.label
        )))
    }
}

/// `Store::put` of 100 synthetic job records into a fresh store, then a
/// `run_jobs` re-run of the same 100 jobs that must be all cache hits.
/// Returns (ms per put, ms per re-run).
fn store(r: &mut Report) -> (f64, f64) {
    let cfg = sim::config(CellDim { x: 4, y: 4 });
    let specs = Campaign::fault("perfbench store", "sgemm", &cfg, 1, 99).specs;
    let dir = format!("{WORK_DIR}/store-put-{}", std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> std::io::Result<(f64, f64)> {
        let store = Store::open(&dir)?;
        let mut put_ms = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let rec = JobRecord {
                hash: spec.hash(),
                kind: spec.kind.canonical(),
                kernel: spec.kernel.clone(),
                seed: spec.seed,
                outcome: "masked".to_owned(),
                cycles: 10_000 + i as u64,
                instrs: 50_000 + i as u64,
                ..JobRecord::default()
            };
            let start = Instant::now();
            store.put(&rec)?;
            put_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let opts = RunOpts {
            threads: 2,
            ..RunOpts::default()
        };
        let rerun_ms = median_of(|| {
            let start = Instant::now();
            let s = run_jobs(&specs, &store, &NoExec, &opts, &CancelToken::new());
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if s.cached != specs.len() {
                r.errors.push(format!("cached re-run: {}", s.line()));
            }
            ms
        });
        Ok((median(&put_ms), rerun_ms))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result.unwrap_or_else(|e| {
        r.errors.push(format!("store timing: {e}"));
        (f64::NAN, f64::NAN)
    })
}

pub fn measure(args: &Args, r: &mut Report) {
    r.metric("noc.tick_under_load_ns", noc_tick_ns(), "ns");
    r.metric("cache.bank_tick_ns", cache_tick_ns(), "ns");
    r.metric("hbm.tick_ns", hbm_tick_ns(), "ns");
    let (save, restore, bytes) = checkpoint(args.seed, r);
    r.metric("ckpt.save_ms", save, "ms");
    r.metric("ckpt.restore_ms", restore, "ms");
    r.metric("ckpt.bytes", bytes, "bytes");
    let (put, rerun) = store(r);
    r.metric("serve.store_put_ms", put, "ms");
    r.metric("serve.cached_rerun_ms", rerun, "ms");
}
