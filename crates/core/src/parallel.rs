//! Deterministic parallel execution engine for the tile phase of
//! [`Cell::tick`](crate::Cell::tick).
//!
//! # Execution model
//!
//! The Cell advances in bulk-synchronous (BSP) phases each core cycle (see
//! `DESIGN.md`, "Parallel execution"):
//!
//! 1. **network** — router pipelines advance; packets are ejected into
//!    per-tile/per-bank inboxes,
//! 2. **memory** — cache banks, refill strips and the HBM2 channel,
//! 3. **tiles** — every tile executes one pipeline cycle
//!    ([`Tile::step`](crate::Tile::step)): icache, hazards, SPM, the
//!    remote-op scoreboard, inbox draining and outbox filling,
//! 4. **sync** — barrier-network joins and releases,
//! 5. **inject** — tile/bank outboxes drain into the routers.
//!
//! During phase 3 a tile touches only its own state: inboxes were filled in
//! phase 1 (latched — nothing writes them again until the next cycle) and
//! outboxes are drained in phase 5, so the inbox/outbox pairs act as the
//! double buffers between the tile phase and the sequencing phases. Tiles
//! therefore step independently, and executing them on any number of worker
//! threads produces *bit-identical* architectural state, statistics and
//! network traffic to the single-threaded in-order schedule (verified by
//! `tests/determinism.rs` across the whole kernel suite).
//!
//! Phase 3 has one stepping loop, `step_list`: it steps the step list the
//! wake-list scheduler built (see `crate::sched`; the dense schedule is
//! that list with parking disabled, i.e. every active tile in ascending
//! order). [`TilePool`] is the persistent worker pool that shards it:
//! `threads-1` long-lived `std::thread` workers plus the calling thread,
//! each stepping a contiguous range of list positions. Thread count comes from
//! [`MachineConfig::threads`](crate::MachineConfig::threads) (seeded from
//! the `HB_THREADS` environment variable).

use crate::sched::Park;
use crate::tile::Tile;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each BSP phase of [`Cell::tick`](crate::Cell::tick),
/// accumulated by [`Machine::tick_profiled`](crate::Machine::tick_profiled).
///
/// Used by the `sim_throughput` bench to report what fraction of a cycle is
/// spent in the (parallelizable) tile phase versus the sequential
/// network/memory sequencing — the Amdahl bound on tile-phase scaling.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Router pipelines + ejection into inboxes (+ inter-Cell fabric).
    pub network: Duration,
    /// Cache banks, refill strips, HBM2.
    pub memory: Duration,
    /// Tile execution (the parallel phase).
    pub tiles: Duration,
    /// Wake-list bookkeeping (see `crate::sched`): the scan that builds
    /// the step list, stall catch-up and park application. Under the dense
    /// schedule only the scan remains. Kept out of `tiles` so the Amdahl
    /// tile-share report stays truthful about the parallelizable fraction.
    pub sched: Duration,
    /// Barrier joins/releases.
    pub sync: Duration,
    /// Outbox draining into the routers.
    pub inject: Duration,
}

impl PhaseTimes {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.network + self.memory + self.tiles + self.sched + self.sync + self.inject
    }

    /// Fraction of the accounted time spent in the tile phase.
    pub fn tile_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.tiles.as_secs_f64() / total
        }
    }
}

/// Selects the [`PhaseTimes`] field a phase bills to, e.g.
/// `|t| &mut t.network`.
pub(crate) type Bucket = fn(&mut PhaseTimes) -> &mut Duration;

/// Where a cycle body bills host time: it calls [`lap`](Self::lap) at the
/// end of each phase. The cycle body is generic over the clock, so the
/// untimed instantiation ([`NoClock`]) compiles to the bare phase sequence.
pub(crate) trait PhaseClock {
    /// Bills the host time since the previous lap to `bucket`.
    fn lap(&mut self, bucket: Bucket);
}

/// The untimed clock: zero-sized, every lap a no-op.
pub(crate) struct NoClock;

impl PhaseClock for NoClock {
    #[inline(always)]
    fn lap(&mut self, _: Bucket) {}
}

/// Bills wall-clock laps into `acc`; the first lap starts at `last`.
pub(crate) struct WallClock<'a> {
    pub(crate) acc: &'a mut PhaseTimes,
    pub(crate) last: Instant,
}

impl PhaseClock for WallClock<'_> {
    fn lap(&mut self, bucket: Bucket) {
        let now = Instant::now();
        *bucket(self.acc) += now - self.last;
        self.last = now;
    }
}

/// One shard of tile-stepping work handed to a worker: step
/// `tiles[list[pos]]` for each `pos` in `[start, end)` and, when `parks` is
/// non-null, write that tile's park hint to `parks[pos]`.
///
/// Raw pointers because workers are persistent (the borrow cannot be
/// expressed through the channel); safety rests on three invariants upheld
/// by [`step_list`]: shard ranges are pairwise disjoint and list entries
/// unique (so shards touch disjoint tiles and hint slots), read-only inputs
/// are only read, and the caller blocks on the completion latch before the
/// borrows it took the pointers from end.
struct Job {
    tiles: *mut Tile,
    list: *const u32,
    parks: *mut Park,
    start: usize,
    end: usize,
    now: u64,
}

// SAFETY: `Tile` is `Send` (all fields are owned or `Arc` of `Send + Sync`
// data) and `step_list` guarantees disjoint, latch-synchronized access.
unsafe impl Send for Job {}

impl Job {
    /// Steps the shard's tiles.
    ///
    /// # Safety
    ///
    /// `list[start..end]` must hold unique, in-bounds tile indices, disjoint
    /// from every concurrently running shard, and `parks` (when non-null)
    /// must be valid for `end` writes; the backing borrows must outlive the
    /// call (guaranteed by the pool's completion latch).
    unsafe fn run(&self) {
        for pos in self.start..self.end {
            let t = &mut *self.tiles.add(*self.list.add(pos) as usize);
            t.step(self.now);
            if !self.parks.is_null() {
                *self.parks.add(pos) = t.park_hint(self.now);
            }
        }
    }
}

/// Countdown latch: the caller waits until every worker reports done.
#[derive(Debug, Default)]
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn reset(&self, n: usize) {
        *self.remaining.lock().unwrap() = n;
    }

    fn count_down(&self) {
        let mut g = self.remaining.lock().unwrap();
        *g -= 1;
        if *g == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock().unwrap();
        while *g > 0 {
            g = self.done.wait(g).unwrap();
        }
    }
}

/// A persistent worker pool executing the tile phase across threads.
///
/// Created once per [`Machine`](crate::Machine) (shared by its Cells) and
/// reused every cycle; workers park on their channel between cycles, so the
/// steady-state cost per cycle is one send per worker plus the latch wait.
pub struct TilePool {
    senders: Vec<Sender<Job>>,
    latch: Arc<Latch>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TilePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TilePool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl TilePool {
    /// Builds a pool of `threads` total workers (the calling thread counts
    /// as one, so `threads - 1` OS threads are spawned). `threads <= 1`
    /// yields an empty pool that steps tiles inline.
    pub fn new(threads: usize) -> TilePool {
        let workers = threads.saturating_sub(1);
        let latch = Arc::new(Latch::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Job>();
            let latch = latch.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hb-tile-{w}"))
                .spawn(move || {
                    // Senders dropping (pool drop) ends the iterator.
                    for job in rx {
                        // SAFETY: see `Job` — its range is disjoint from
                        // every other shard (including the caller's), and
                        // the caller keeps the backing allocations borrowed
                        // until the latch opens.
                        unsafe { job.run() };
                        latch.count_down();
                    }
                })
                .expect("spawn tile worker");
            senders.push(tx);
            handles.push(handle);
        }
        TilePool {
            senders,
            latch,
            handles,
        }
    }

    /// Builds a pool sized from the `HB_THREADS` environment variable
    /// (absent/unparsable → 1, i.e. an inline pool).
    pub fn from_env() -> TilePool {
        TilePool::new(threads_from_env())
    }

    /// Total worker count (spawned threads + the calling thread).
    pub fn threads(&self) -> usize {
        self.senders.len() + 1
    }
}

/// The tile phase's one stepping loop: steps exactly the tiles named by
/// `list` (strictly ascending indices), sharded by list position across
/// `pool` when it has workers. With `parks`, each tile's park hint lands at
/// its list position; without, [`Tile::park_hint`] is never called (the
/// dense schedule).
///
/// Bit-identical to the inline loop for any shard assignment: tiles share
/// no mutable state during the step (see the module docs), list entries are
/// unique, so shards touch disjoint tiles and disjoint `parks` positions.
///
/// # Panics
///
/// Panics if `list` is not strictly ascending and within `tiles`, or if
/// `parks` is not the same length as `list`.
pub(crate) fn step_list(
    pool: Option<&TilePool>,
    tiles: &mut [Tile],
    list: &[u32],
    parks: Option<&mut [Park]>,
    now: u64,
) {
    // Strictly ascending and in bounds: the shards' raw tile accesses are
    // disjoint and valid.
    assert!(
        list.windows(2).all(|w| w[0] < w[1])
            && list.last().is_none_or(|&i| (i as usize) < tiles.len()),
        "step list must hold ascending, in-bounds tile indices"
    );
    let parks = match parks {
        Some(p) => {
            assert_eq!(list.len(), p.len());
            p.as_mut_ptr()
        }
        None => std::ptr::null_mut(),
    };
    let base = tiles.as_mut_ptr();
    let job = |start: usize, end: usize| Job {
        tiles: base,
        list: list.as_ptr(),
        parks,
        start,
        end,
        now,
    };
    let len = list.len();
    let workers = pool.map_or(0, |p| p.senders.len());
    let chunk = len.div_ceil(workers + 1);
    let Some(pool) = pool.filter(|_| workers > 0 && chunk > 0) else {
        // SAFETY: one shard covering the whole list, on this thread.
        unsafe { job(0, len).run() };
        return;
    };
    pool.latch.reset(workers);
    for (w, tx) in pool.senders.iter().enumerate() {
        let start = ((w + 1) * chunk).min(len);
        let end = ((w + 2) * chunk).min(len);
        tx.send(job(start, end)).expect("tile worker alive");
    }
    // The calling thread takes the first shard, through the same raw base
    // pointers as the workers so no `&mut` to the full slice is live while
    // they hold theirs.
    // SAFETY: positions [0, chunk) are disjoint from every worker shard.
    unsafe { job(0, chunk.min(len)).run() };
    pool.latch.wait();
}

impl Drop for TilePool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's receive loop.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Parses `HB_THREADS` (total tile-phase workers; absent or invalid → 1).
pub fn threads_from_env() -> usize {
    std::env::var("HB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// Parses `HB_EVENT_CORE` (event-driven tile scheduling; `0` disables it,
/// anything else or unset leaves it on).
pub fn event_core_from_env() -> bool {
    std::env::var("HB_EVENT_CORE").map_or(true, |v| v.trim() != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_is_inline() {
        let pool = TilePool::new(1);
        assert_eq!(pool.threads(), 1);
        // No tiles: must not deadlock or panic.
        step_list(Some(&pool), &mut [], &[], None, 1);
    }

    #[test]
    fn pool_with_more_threads_than_tiles() {
        // 8 workers, 0 tiles: every shard is empty; the latch must still
        // open.
        let pool = TilePool::new(8);
        assert_eq!(pool.threads(), 8);
        step_list(Some(&pool), &mut [], &[], None, 1);
        step_list(Some(&pool), &mut [], &[], Some(&mut []), 2);
    }

    #[test]
    fn env_parsing_defaults_to_one() {
        // Only checks the parser contract on the current environment: the
        // result is always at least 1.
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn phase_times_shares() {
        let t = PhaseTimes {
            tiles: Duration::from_millis(75),
            network: Duration::from_millis(25),
            ..PhaseTimes::default()
        };
        assert!((t.tile_share() - 0.75).abs() < 1e-9);
        assert_eq!(PhaseTimes::default().tile_share(), 0.0);
    }
}
