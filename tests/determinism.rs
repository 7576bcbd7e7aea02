//! The tentpole guarantee of the parallel tile engine: running the tile
//! phase across worker threads is *bit-identical* to the single-threaded
//! schedule. Every kernel in the suite runs twice — `threads = 1` and
//! `threads = 4` — and every architectural counter must match exactly.
//!
//! Tiles step independently during the tile phase (inboxes are latched in
//! the network phase, outboxes drain in the inject phase), so shard
//! assignment and thread interleaving must not be observable anywhere:
//! not in cycle counts, not in stall blame, not in cache/HBM/NoC traffic.

use hammerblade::core::observe::MachineObserver;
use hammerblade::core::profile::CellProfile;
use hammerblade::core::{CellDim, Machine, MachineConfig, PhaseTimes, SnapshotDram};
use hammerblade::kernels::{suite, SizeClass};
use std::sync::{Arc, Mutex};

fn cfg_with_threads(threads: usize) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        // Explicit, not from HB_THREADS/HB_EVENT_CORE: runs must differ
        // only where each test says they do.
        threads,
        event_core: true,
        ..MachineConfig::baseline_16x8()
    }
}

fn cfg_dense(threads: usize) -> MachineConfig {
    MachineConfig {
        event_core: false,
        ..cfg_with_threads(threads)
    }
}

#[test]
fn parallel_tile_phase_is_bit_identical_for_every_kernel() {
    let seq_cfg = cfg_with_threads(1);
    let par_cfg = cfg_with_threads(4);
    for bench in suite() {
        let name = bench.name();
        let seq = bench
            .run(&seq_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (threads=1) failed: {e}"));
        let par = bench
            .run(&par_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (threads=4) failed: {e}"));
        assert_eq!(seq.cycles, par.cycles, "{name}: cycle count diverged");
        assert_eq!(seq.core, par.core, "{name}: core counters diverged");
        assert_eq!(seq.hbm, par.hbm, "{name}: HBM2 counters diverged");
        assert_eq!(seq.cache, par.cache, "{name}: cache counters diverged");
        assert_eq!(
            seq.bisection, par.bisection,
            "{name}: NoC bisection counters diverged"
        );
        assert_eq!(
            seq.profile.east_busy, par.profile.east_busy,
            "{name}: per-router link activity diverged"
        );
    }
}

#[test]
fn event_schedule_is_bit_identical_to_dense_for_every_kernel() {
    // The event-driven core (quiescent tiles parked on a wake list) is a
    // host-side scheduling optimization only: for every kernel, at 1 and
    // 4 worker threads, every architectural counter must match the dense
    // every-tile-every-cycle schedule exactly.
    for threads in [1, 4] {
        let dense_cfg = cfg_dense(threads);
        let event_cfg = cfg_with_threads(threads);
        for bench in suite() {
            let name = bench.name();
            let dense = bench
                .run(&dense_cfg, SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (dense, threads={threads}) failed: {e}"));
            let event = bench
                .run(&event_cfg, SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (event, threads={threads}) failed: {e}"));
            assert_eq!(
                dense.cycles, event.cycles,
                "{name} (threads={threads}): cycle count diverged"
            );
            assert_eq!(
                dense.core, event.core,
                "{name} (threads={threads}): core counters diverged"
            );
            assert_eq!(
                dense.hbm, event.hbm,
                "{name} (threads={threads}): HBM2 counters diverged"
            );
            assert_eq!(
                dense.cache, event.cache,
                "{name} (threads={threads}): cache counters diverged"
            );
            assert_eq!(
                dense.bisection, event.bisection,
                "{name} (threads={threads}): NoC bisection counters diverged"
            );
            assert_eq!(
                dense.profile.east_busy, event.profile.east_busy,
                "{name} (threads={threads}): per-router link activity diverged"
            );
            // Host-side sanity, not an architectural counter: the dense
            // schedule never skips, the event schedule is allowed to.
            assert_eq!(dense.ticks_skipped, 0, "{name}: dense run skipped ticks");
        }
    }
}

#[test]
fn race_sanitizer_is_read_only_and_suite_is_clean() {
    // The dynamic race sanitizer only observes: every kernel must simulate
    // bit-identically with `race_check` on or off — and, while we're
    // watching, the suite must be race-free.
    let off_cfg = cfg_with_threads(1);
    let on_cfg = MachineConfig {
        race_check: true,
        ..cfg_with_threads(1)
    };
    let scope = hammerblade::core::collect_races();
    for bench in suite() {
        let name = bench.name();
        let off = bench
            .run(&off_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race_check off) failed: {e}"));
        let on = bench
            .run(&on_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race_check on) failed: {e}"));
        assert_eq!(off.cycles, on.cycles, "{name}: sanitizer changed cycles");
        assert_eq!(off.core, on.core, "{name}: sanitizer changed core counters");
        assert_eq!(off.hbm, on.hbm, "{name}: sanitizer changed HBM2 counters");
        let races = scope.take();
        assert!(
            races.is_empty(),
            "{name} is racy:\n{}",
            races
                .iter()
                .map(|(_, s)| s.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    // More worker threads than tiles (4x2 Cell, 16 threads): empty and
    // tiny shards must not change anything either.
    let bench = &suite()[0];
    let a = bench.run(&cfg_with_threads(1), SizeClass::Tiny).unwrap();
    let b = bench.run(&cfg_with_threads(16), SizeClass::Tiny).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core, b.core);
}

/// Observer that saves the raw machine payload once, at the end of the
/// first cycle: the only hook inside `Benchmark::run` that sees the
/// launched machine.
#[derive(Debug)]
struct FirstCycle {
    slot: Arc<Mutex<Option<Vec<u8>>>>,
    due: u64,
}

impl MachineObserver for FirstCycle {
    fn sample(&mut self, machine: &mut Machine) {
        *self.slot.lock().unwrap() = Some(machine.save_checkpoint());
        self.due = u64::MAX;
    }

    fn next_due(&self) -> u64 {
        self.due
    }

    fn finish(&mut self, _machine: &mut Machine) {}
}

#[test]
fn tick_profiled_is_bit_identical_to_run_for_every_kernel() {
    // `tick_profiled` and `tick` share one cycle body; only the phase
    // clock differs. Every suite kernel is captured after its first cycle
    // and continued from there both ways: with `run`, and with a
    // `tick_profiled` loop. Counters, the final DRAM image and the
    // uninterrupted `run` result must all agree, dense and event-driven.
    const BUDGET: u64 = 200_000_000;
    for event_core in [false, true] {
        let cfg = MachineConfig {
            event_core,
            ..cfg_with_threads(1)
        };
        for bench in suite() {
            let name = bench.name();
            let slot = Arc::new(Mutex::new(None));
            let captured = slot.clone();
            let scope = hammerblade::core::set_observer_factory(move |_cfg| {
                Some(Box::new(FirstCycle {
                    slot: captured.clone(),
                    due: 1,
                }) as Box<dyn MachineObserver>)
            });
            let reference = bench
                .run(&cfg, SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (event={event_core}) failed: {e}"));
            drop(scope);
            let payload = slot.lock().unwrap().take().expect("first cycle captured");
            let finish = |profiled: bool| {
                let mut m = Machine::new(cfg.clone());
                m.restore_checkpoint(&payload).expect("restore");
                if profiled {
                    let mut phases = PhaseTimes::default();
                    while !m.all_done() {
                        assert!(m.cycle() < BUDGET, "{name}: tick_profiled timed out");
                        m.tick_profiled(&mut phases);
                    }
                    assert!(m.cell(0).fault().is_none(), "{name}: tick_profiled faulted");
                } else {
                    m.run(BUDGET).expect("continued run");
                }
                m.flush_all_caches();
                let cell = m.cell(0);
                let digest = hb_serve::exec::digest(&SnapshotDram::from_machine(&m), 1);
                (
                    m.cycle(),
                    cell.core_stats(),
                    *cell.hbm_stats(),
                    cell.cache_stats(),
                    cell.request_bisection(),
                    CellProfile::capture(cell).east_busy,
                    digest,
                )
            };
            let run = finish(false);
            let profiled = finish(true);
            let tag = format!("{name} (event={event_core})");
            assert_eq!(profiled.0, reference.cycles, "{tag}: cycle count diverged");
            assert_eq!(profiled.1, reference.core, "{tag}: core counters diverged");
            assert_eq!(profiled.2, reference.hbm, "{tag}: HBM2 counters diverged");
            assert_eq!(
                profiled.3, reference.cache,
                "{tag}: cache counters diverged"
            );
            assert_eq!(
                profiled.4, reference.bisection,
                "{tag}: NoC bisection counters diverged"
            );
            assert_eq!(
                profiled.5, reference.profile.east_busy,
                "{tag}: per-router link activity diverged"
            );
            assert_eq!(run, profiled, "{tag}: tick_profiled diverged from run");
        }
    }
}
