//! Seeded kernel launches. Every input is generated from the workload seed
//! with `hb_workloads::gen`; the simulator receives only those inputs.
//! Each launch carries its own check against `hb_workloads::golden`.

use crate::trace::{SpanId, Tracer};
use hb_core::{pgas, Machine, MachineConfig};
use hb_kernels::{Aes, Bfs, PageRank, Sgemm, SmithWaterman};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// Setup stages, in the order a launch passes through them.
pub const STAGES: [&str; 5] = [
    "setup.gen",
    "setup.assemble",
    "setup.machine_new",
    "setup.dram_load",
    "setup.launch",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// SGEMM 32x32x32, rank-strided rows.
    Sgemm,
    /// PageRank, 2 power iterations on an R-MAT graph (256 vertices).
    PageRank,
    /// Top-down BFS from the hub vertex of an R-MAT graph (256 vertices).
    Bfs,
    /// Smith-Waterman, 64 pairs of length-32 DNA sequences.
    SmithWaterman,
    /// AES-128 ECB over 256 blocks.
    Aes,
    /// The campaign's kernel: SPM-blocked SGEMM 32x16x32 with the fixed
    /// inputs `hb-serve` generates for `sgemm` jobs.
    CampaignSgemm,
}

impl Kernel {
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Sgemm => "sgemm",
            Kernel::PageRank => "pagerank",
            Kernel::Bfs => "bfs",
            Kernel::SmithWaterman => "sw",
            Kernel::Aes => "aes",
            Kernel::CampaignSgemm => "campaign-sgemm",
        }
    }
}

/// Compares the simulated output in DRAM against the golden reference.
type Check = Box<dyn FnOnce(&Machine) -> Result<(), String>>;

/// A launched machine, ready to run.
pub struct Prepared {
    pub machine: Machine,
    /// Seconds spent in each of [`STAGES`].
    pub stages: [f64; 5],
    pub validator: Validator,
}

pub struct Validator(Check);

impl Validator {
    /// Flushes the modelled caches into DRAM and compares the output
    /// against `hb_workloads::golden`.
    pub fn validate(self, machine: &mut Machine) -> Result<(), String> {
        machine.flush_all_caches();
        (self.0)(machine)
    }
}

/// A sub-seed per input, so inputs of one workload are independent.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Stager<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: SpanId,
    secs: [f64; 5],
}

impl Stager<'_> {
    fn stage<T>(&mut self, i: usize, f: impl FnOnce() -> T) -> T {
        let (v, s) = self.tracer.span(STAGES[i], self.id, self.parent, |_| f());
        self.secs[i] += s;
        v
    }
}

fn alloc_u32(machine: &mut Machine, data: &[u32]) -> u32 {
    let cell = machine.cell_mut(0);
    let p = cell.alloc((data.len() * 4) as u32, 64);
    cell.dram_mut().write_u32_slice(p, data);
    p
}

/// Float outputs match within 0.1% plus `abs`, as the kernels' own checks
/// allow for the simulated summation order.
fn close_f32(got: &[f32], want: &[f32], abs: f32, what: &str) -> Result<(), String> {
    for (i, (g, e)) in got.iter().zip(want).enumerate() {
        if (g - e).abs() > e.abs() * 1e-3 + abs || !g.is_finite() {
            return Err(format!("{what} mismatch at {i}: sim {g} vs golden {e}"));
        }
    }
    Ok(())
}

/// Generates `kernel`'s inputs from `seed`, assembles it, builds the
/// machine, loads DRAM and launches. Each stage is one span under
/// `parent`.
pub fn prepare(
    kernel: Kernel,
    cfg: &MachineConfig,
    seed: u64,
    tracer: &Tracer,
    id: u64,
    parent: SpanId,
) -> Prepared {
    let mut st = Stager {
        tracer,
        id,
        parent,
        secs: [0.0; 5],
    };
    let (machine, check) = match kernel {
        Kernel::Sgemm | Kernel::CampaignSgemm => {
            let blocked = kernel == Kernel::CampaignSgemm;
            let (m, k, n) = if blocked { (32, 16, 32) } else { (32, 32, 32) };
            // The campaign kernel keeps `hb-serve`'s fixed inputs so its
            // DRAM digest can be compared with the campaign's golden job.
            let (sa, sb) = if blocked {
                (0xA, 0xB)
            } else {
                (sub_seed(seed, 1), sub_seed(seed, 2))
            };
            let (a, b) = st.stage(0, || {
                (gen::dense_matrix(m, k, sa), gen::dense_matrix(k, n, sb))
            });
            let program = st.stage(1, || {
                Arc::new(if blocked {
                    Sgemm::program_blocked()
                } else {
                    Sgemm::program()
                })
            });
            let mut machine = st.stage(2, || Machine::new(cfg.clone()));
            let (a_dev, b_dev, c_dev) = st.stage(3, || {
                let cell = machine.cell_mut(0);
                let a_dev = cell.alloc((m * k * 4) as u32, 64);
                let b_dev = cell.alloc((k * n * 4) as u32, 64);
                let c_dev = cell.alloc((m * n * 4) as u32, 64);
                cell.dram_mut().write_f32_slice(a_dev, &a);
                cell.dram_mut().write_f32_slice(b_dev, &b);
                (a_dev, b_dev, c_dev)
            });
            let args = [
                pgas::local_dram(a_dev),
                pgas::local_dram(b_dev),
                pgas::local_dram(c_dev),
                m as u32,
                k as u32,
                n as u32,
            ];
            st.stage(4, || machine.launch(0, &program, &args));
            let check: Check = Box::new(move |mach: &Machine| {
                let want = golden::sgemm(m, k, n, &a, &b);
                let got = mach.cell(0).dram().read_f32_slice(c_dev, m * n);
                close_f32(&got, &want, 1e-4, "SGEMM")
            });
            (machine, check)
        }
        Kernel::PageRank => {
            let (scale, edges, iters) = (8, 2048, 2u32);
            let (g, tg, deg) = st.stage(0, || {
                let g = gen::rmat(scale, edges, sub_seed(seed, 3));
                let tg = g.transpose();
                let deg: Vec<u32> = (0..g.rows).map(|v| g.degree(v)).collect();
                (g, tg, deg)
            });
            let program = st.stage(1, || Arc::new(PageRank::program()));
            let mut machine = st.stage(2, || Machine::new(cfg.clone()));
            let n = g.rows;
            let nthreads = cfg.cell_dim.tiles() as u32;
            let (desc, result) = st.stage(3, || {
                let tg_rp = alloc_u32(&mut machine, &tg.row_ptr);
                let tg_ci = alloc_u32(&mut machine, &tg.col_idx);
                let deg_dev = alloc_u32(&mut machine, &deg);
                let cell = machine.cell_mut(0);
                let pr_a = cell.alloc(n * 4, 64);
                let pr_b = cell.alloc(n * 4, 64);
                let contrib = cell.alloc(n * 4, 64);
                let partials = cell.alloc(nthreads * 4, 64);
                let base_slot = cell.alloc(4, 64);
                cell.dram_mut()
                    .write_f32_slice(pr_a, &vec![1.0 / n as f32; n as usize]);
                let desc = alloc_u32(
                    &mut machine,
                    &[
                        pgas::local_dram(tg_rp),
                        pgas::local_dram(tg_ci),
                        pgas::local_dram(deg_dev),
                        pgas::local_dram(pr_a),
                        pgas::local_dram(pr_b),
                        pgas::local_dram(contrib),
                        pgas::local_dram(partials),
                        pgas::local_dram(base_slot),
                        n,
                        iters,
                    ],
                );
                // The ranks end in the buffer the last iteration wrote.
                (desc, if iters % 2 == 0 { pr_a } else { pr_b })
            });
            st.stage(4, || machine.launch(0, &program, &[pgas::local_dram(desc)]));
            let check: Check = Box::new(move |mach: &Machine| {
                let want = golden::pagerank(&g, iters);
                let got = mach.cell(0).dram().read_f32_slice(result, n as usize);
                close_f32(&got, &want, 1e-5, "PageRank")
            });
            (machine, check)
        }
        Kernel::Bfs => {
            let (scale, edges, source) = (8, 4096, 0u32);
            let (g, tg) = st.stage(0, || {
                let g = gen::rmat(scale, edges, sub_seed(seed, 4));
                let tg = g.transpose();
                (g, tg)
            });
            let program = st.stage(1, || Arc::new(Bfs::program(false)));
            let mut machine = st.stage(2, || Machine::new(cfg.clone()));
            let n = g.rows;
            let (desc, dist) = st.stage(3, || {
                let rp = alloc_u32(&mut machine, &g.row_ptr);
                let ci = alloc_u32(&mut machine, &g.col_idx);
                let mut dist_init = vec![u32::MAX; n as usize];
                dist_init[source as usize] = 0;
                let dist = alloc_u32(&mut machine, &dist_init);
                let cell = machine.cell_mut(0);
                let front_a = cell.alloc(n * 4, 64);
                let front_b = cell.alloc(n * 4, 64);
                cell.dram_mut().write_u32(front_a, source);
                let nwords = n.div_ceil(32);
                let bitmap = alloc_u32(&mut machine, &vec![0u32; nwords as usize]);
                let q0 = alloc_u32(&mut machine, &[0]);
                let q1 = alloc_u32(&mut machine, &[0]);
                let fsize = alloc_u32(&mut machine, &[1]);
                let next_count = alloc_u32(&mut machine, &[0]);
                let done = alloc_u32(&mut machine, &[0]);
                let tg_rp = alloc_u32(&mut machine, &tg.row_ptr);
                let tg_ci = alloc_u32(&mut machine, &tg.col_idx);
                let mode = alloc_u32(&mut machine, &[0]);
                let desc = alloc_u32(
                    &mut machine,
                    &[
                        pgas::local_dram(rp),
                        pgas::local_dram(ci),
                        pgas::local_dram(dist),
                        pgas::local_dram(front_a),
                        pgas::local_dram(front_b),
                        pgas::local_dram(bitmap),
                        pgas::local_dram(q0),
                        pgas::local_dram(q1),
                        pgas::local_dram(fsize),
                        pgas::local_dram(next_count),
                        pgas::local_dram(done),
                        n,
                        nwords,
                        pgas::local_dram(tg_rp),
                        pgas::local_dram(tg_ci),
                        pgas::local_dram(mode),
                    ],
                );
                (desc, dist)
            });
            st.stage(4, || machine.launch(0, &program, &[pgas::local_dram(desc)]));
            let check: Check = Box::new(move |mach: &Machine| {
                let want = golden::bfs(&g, source);
                let got = mach.cell(0).dram().read_u32_slice(dist, n as usize);
                if got == want {
                    Ok(())
                } else {
                    Err("BFS distance mismatch".to_owned())
                }
            });
            (machine, check)
        }
        Kernel::SmithWaterman => {
            let (pairs, len) = (64u32, 32u32);
            let total = (pairs * len) as usize;
            let (queries, refs) = st.stage(0, || {
                (
                    gen::dna_sequence(total, sub_seed(seed, 5)),
                    gen::dna_sequence(total, sub_seed(seed, 6)),
                )
            });
            let program = st.stage(1, || Arc::new(SmithWaterman::program()));
            let mut machine = st.stage(2, || Machine::new(cfg.clone()));
            let (q, r, out) = st.stage(3, || {
                let cell = machine.cell_mut(0);
                let q = cell.alloc(total as u32, 64);
                let r = cell.alloc(total as u32, 64);
                let out = cell.alloc(pairs * 4, 64);
                cell.dram_mut().write_bytes(q, &queries);
                cell.dram_mut().write_bytes(r, &refs);
                (q, r, out)
            });
            let args = [
                pgas::local_dram(q),
                pgas::local_dram(r),
                pgas::local_dram(out),
                pairs,
                len,
            ];
            st.stage(4, || machine.launch(0, &program, &args));
            let check: Check = Box::new(move |mach: &Machine| {
                let len = len as usize;
                let want: Vec<u32> = (0..pairs as usize)
                    .map(|p| {
                        let span = p * len..(p + 1) * len;
                        golden::smith_waterman(&queries[span.clone()], &refs[span]) as u32
                    })
                    .collect();
                let got = mach.cell(0).dram().read_u32_slice(out, pairs as usize);
                if got == want {
                    Ok(())
                } else {
                    Err("Smith-Waterman score mismatch".to_owned())
                }
            });
            (machine, check)
        }
        Kernel::Aes => {
            let blocks = 256u32;
            let (key, round_keys, plaintext) = st.stage(0, || {
                let key: [u8; 16] = gen::random_bytes(16, sub_seed(seed, 7))
                    .try_into()
                    .expect("16 key bytes");
                (
                    key,
                    golden::aes128_key_schedule(&key),
                    gen::random_bytes(blocks as usize * 16, sub_seed(seed, 8)),
                )
            });
            let program = st.stage(1, || Arc::new(Aes::program()));
            let mut machine = st.stage(2, || Machine::new(cfg.clone()));
            let (sbox, rk, input, output) = st.stage(3, || {
                let cell = machine.cell_mut(0);
                let sbox = cell.alloc(256, 64);
                let rk = cell.alloc(176, 64);
                let input = cell.alloc(blocks * 16, 64);
                let output = cell.alloc(blocks * 16, 64);
                cell.dram_mut().write_bytes(sbox, &golden::AES_SBOX);
                cell.dram_mut().write_bytes(rk, &round_keys);
                cell.dram_mut().write_bytes(input, &plaintext);
                (sbox, rk, input, output)
            });
            let args = [
                pgas::local_dram(sbox),
                pgas::local_dram(rk),
                pgas::local_dram(input),
                pgas::local_dram(output),
                blocks,
            ];
            st.stage(4, || machine.launch(0, &program, &args));
            let check: Check = Box::new(move |mach: &Machine| {
                let want = golden::aes128_ecb(&plaintext, &key);
                if mach.cell(0).dram().slice(output, want.len()) == want.as_slice() {
                    Ok(())
                } else {
                    Err("AES ciphertext mismatch".to_owned())
                }
            });
            (machine, check)
        }
    };
    Prepared {
        machine,
        stages: st.secs,
        validator: Validator(check),
    }
}
