//! The staged SpMMs pinned to digests of what their bodies returned
//! before they shared one §5.2.3 resolution and one neighbor-group
//! builder: HalfGNN's edge-parallel `spmm_window` (staged and atomic
//! writes, all four scaling placements, two tilings), the vertex-parallel
//! `spmm_vertex_parallel_window` (all four placements), the INT8
//! `spmm_i8_window` (two tilings, with and without row scales) and Huang's
//! `spmm_half2`, `spmm_half2_g64` and `spmm_float`, each with and without
//! edge weights.
//!
//! Each table line holds three digests over the line's runs, in order:
//! the output bits (every NaN as one pattern), the modeled stats (name,
//! grid, launches, the bits of `cycles`, `time_us` and both
//! utilizations, and every counter) and the overflow record's `Debug`
//! string. Two differences from the earlier bodies are expected and
//! masked before hashing: Huang's half kernels now report
//! `nonfinite_values` like every other half kernel, and `spmm_half2_g64`
//! records its conversions under its own site label.
//!
//! The graph has two hub rows that span many neighbor groups and CTAs,
//! rows a little wider than one group, short rows and empty rows. Values
//! are ordinary, or positive and large enough that the hub sums overflow,
//! with a few Inf and NaN operands. Each run goes under Sim with a
//! tracking window open and with none, and under `Fast` at 1, 2 and 4
//! threads, whose outputs and records must be Sim's and whose stats must
//! log Sim's names, grids and launch counts. CI runs the suite with and
//! without the recorder compiled in, at 1 and 4 worker threads; without
//! the recorder every record must be empty. A failing test prints its
//! lines as computed.

use halfgnn_graph::{Csr, VertexId};
use halfgnn_half::overflow;
use halfgnn_half::{splitmix64, Half};
use halfgnn_kernels::common::{
    row_scales_mean, EdgeWeights, ScalePlacement, Tiling, WriteStrategy,
};
use halfgnn_kernels::halfgnn_spmm::{spmm_vertex_parallel_window, spmm_window, SpmmConfig};
use halfgnn_kernels::huang;
use halfgnn_kernels::quant_spmm::{spmm_i8_window, I8Operands};
use halfgnn_sim::{DeviceConfig, ExecMode, KernelStats, WarpCounters};

/// `label values stats record`, generated with the earlier bodies and
/// the recorder compiled in.
const DIGESTS: &str = "\
ep/Staged/None/w0/t64x4 b8f7dfdda73d3607 cb12613266f31b52 d31170ea160237ee
ep/Staged/None/w0/t16x2 ee11492ab0786fb6 3e795b75124c9100 2f9c71feec6deca6
ep/Staged/None/w1/t64x4 ec3e8580af456bd3 0bb6cd630f233e58 5a04d124ad39fcd1
ep/Staged/None/w1/t16x2 9384f62ba4a92065 01c249b96372fe85 c2fb43efec246310
ep/Staged/PostReduction/w0/t64x4 0e5d1556908a898b 827ccc26b8467804 d3ff3608b8186ea4
ep/Staged/PostReduction/w0/t16x2 7505217f98e72271 15c1eca9382e708c bf1d2941ced883e7
ep/Staged/PostReduction/w1/t64x4 501cb4fdda495fa7 b94f8396f75b4496 83a1dba4edc9c71e
ep/Staged/PostReduction/w1/t16x2 f325bec2475b1a7e 007a2a9ab3059c5f cf03ecab25144a2d
ep/Staged/PreReduction/w0/t64x4 351a6fb4bf44ead2 198ffad98d423018 f4adba4accbfb0e5
ep/Staged/PreReduction/w0/t16x2 3fe0f4a891375507 9da1d63eaec781ec d2df22e47aea340b
ep/Staged/PreReduction/w1/t64x4 f0cbb13ba7bded9c 7a279f56f78c7051 226e444bbec13811
ep/Staged/PreReduction/w1/t16x2 b25dbec1076047c8 5da82a45a137c603 cc5b2293f6203099
ep/Staged/Discretized/w0/t64x4 e4d7b18923c5ba0d f5a17e22b7c68344 3b5a4759acb84f34
ep/Staged/Discretized/w0/t16x2 135db9d138f0ad0b e570938f226c6440 c2c6f55a9649f817
ep/Staged/Discretized/w1/t64x4 97b97e316725a625 b1af92212d416d32 8fd65c4c4c797233
ep/Staged/Discretized/w1/t16x2 28db6b455eac3a70 402e2ffa56b05a1b 0bf2a288a6d5510c
ep/Atomic/None/w0/t64x4 f7d79db83e96ecd7 3e4176acdca2b82e fa1eba2bc0eed2d8
ep/Atomic/None/w0/t16x2 45311781c95586d2 6c536707a7133cba a2da6b857e05d2f7
ep/Atomic/None/w1/t64x4 7f5cadcd26accab6 bcb77a1b2bccf17e 11aeb3e835b7df45
ep/Atomic/None/w1/t16x2 df096529ff4b3633 7b71be6f82f8cbcf ec33dfd2fa14597d
ep/Atomic/PostReduction/w0/t64x4 eb9686619e0373f1 8d1914cd3c221bba e67cbfffc0d0ec74
ep/Atomic/PostReduction/w0/t16x2 580ec9d7ee3e4fd4 aed3435bcad6a392 9233f4b8bdff070a
ep/Atomic/PostReduction/w1/t64x4 f9923a1f2a53ae85 5590b9bc2a17c33e 05ecbbba4695dbaf
ep/Atomic/PostReduction/w1/t16x2 0234af062fff0fc7 add74064341646e5 2c84349a52b03223
ep/Atomic/PreReduction/w0/t64x4 5cbaa01b0f3faff8 cf409487fbe5cde8 fbf869aa4100b48d
ep/Atomic/PreReduction/w0/t16x2 dc3b2c542fffd8a0 5eca97206ae3eb40 14da0a502a1a35db
ep/Atomic/PreReduction/w1/t64x4 608af6a1477666e4 1f2de748c68b3f17 51703b306dadd9fd
ep/Atomic/PreReduction/w1/t16x2 0808e3d994ebc3e1 19cf83807264a7a9 acafe1088f7ce5ef
ep/Atomic/Discretized/w0/t64x4 829dd41e53190b1d efe1e9ffc605402e 0b8d29e144bc31b4
ep/Atomic/Discretized/w0/t16x2 27337a2366b18f07 f3a0e40b0a2821aa 2c967488c41f7634
ep/Atomic/Discretized/w1/t64x4 727c92626ad7079e bdc98a6565ca6512 d3092a9b314e6a1f
ep/Atomic/Discretized/w1/t16x2 d6d5795cb25baa7b 0fda617ea96067f1 5b35879ae6362dc7
vp/None/w0 5716b1b424d0fd45 b547c8443135ee6e ceb331a5074fec17
vp/None/w1 1b130303335310a1 826006e9439d32d4 9537e3e1531b318f
vp/PostReduction/w0 c8124646e8a33473 b547c8443135ee6e 57a5c7b2093f393d
vp/PostReduction/w1 4b524db602ecea51 826006e9439d32d4 b66a12d7d12ff49a
vp/PreReduction/w0 47a09457269d73d5 9ddf374808605cb6 9d6994862d665157
vp/PreReduction/w1 2577af67e9efcedb a998ac26f51226ff ff93f9131cf76bd9
vp/Discretized/w0 1c36299defae1685 2a01bcec8c545390 71ae4fd87a08fb7f
vp/Discretized/w1 f923a7b5aa297af2 800c86c8cae2ff28 6edeccbb6077ad67
i8/w0/s0/t64x4 0cad85abce814cc3 d53415727eb964a8 aa09865fc28ab6b3
i8/w0/s0/t32x2 2bd60a6d07c5a6e4 1bd461c762b03190 db26591a856006f3
i8/w0/s1/t64x4 892e40357691416b 72970d4189589d85 bc6fa06169236c73
i8/w0/s1/t32x2 46b6203d77d5d3c0 2f80b29efbfaf881 8d13b9517395e1a5
i8/w1/s0/t64x4 40ae4e1e17b3e48b e8dda7bf0860bece b502d5b48d4da580
i8/w1/s0/t32x2 478997e7330057ab a917e61ccccaea95 98bfd8b7ceb02bd5
i8/w1/s1/t64x4 21c863f768a99c64 59827078a5733d5f 1e86d3149796a7b9
i8/w1/s1/t32x2 835637b8cb119d48 71af0138aca7b020 5bbfdb761877742e
huang/g32/w0 1c2908b3f111a306 9a14f98f89c7f567 77ae3a55ae27b54f
huang/g64/w0 dcf6294d5cf8ea22 421e29b9b40a0b0d cdf3061fdbf322ea
huang/f32/w0 2b020a86e6531312 f397064f6e469a99 4d7e9babc02279ed
huang/g32/w1 2c15bfa6e2e1016b 77f88c4d0f040167 d407c583b6f8f8fd
huang/g64/w1 f1c9bb45f027bdd8 1282a6e7dfc8a57f f2e76176fe46d515
huang/f32/w1 59b937607cae1981 9150e474c0fab0b1 4d7e9babc02279ed
";

/// A keyed stream of draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Signed values below `scale`, or in the hot regime positive values
    /// below `scale` with, in 60 of 10,000 draws, ±Inf, NaN or a value
    /// near the end of the half range.
    fn halves(&mut self, n: usize, scale: f32, hot: bool) -> Vec<Half> {
        (0..n)
            .map(|_| {
                if !hot {
                    return Half::from_f32(scale * (2.0 * self.unit() - 1.0));
                }
                if self.below(10_000) >= 60 {
                    return Half::from_f32(scale * self.unit());
                }
                match self.below(4) {
                    0 => Half::INFINITY,
                    1 => Half::NEG_INFINITY,
                    2 => Half::NAN,
                    _ => Half::from_f32(40_000.0 + 25_000.0 * self.unit()),
                }
            })
            .collect()
    }
}

const ROWS: usize = 120;

/// `ROWS × 1,000`: row 0 holds 900 edges and row 70 holds 400, one row
/// in six 65–140, a quarter of the rows are empty and the rest hold 1–20.
fn graph() -> Csr {
    let mut d = Draws(0x0057_A6ED);
    let cols = 1000u32;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for r in 0..ROWS as VertexId {
        let deg = match (r, d.below(12)) {
            (0, _) => 900,
            (70, _) => 400,
            (_, 0..=2) => 0,
            (_, 3 | 4) => 65 + d.below(76),
            _ => 1 + d.below(20),
        };
        let start = d.below(cols as u64) as u32;
        let step = [1, 3, 7][d.below(3) as usize]; // coprime with 1,000
        edges.extend((0..deg as u32).map(|i| (r, (start + i * step) % cols)));
    }
    Csr::from_edges(ROWS, cols as usize, &edges)
}

/// One run's features and edge weights.
struct Inputs {
    f: usize,
    x: Vec<Half>,
    w: Vec<Half>,
}

impl Inputs {
    fn weights(&self, weighted: bool) -> EdgeWeights<'_> {
        if weighted {
            EdgeWeights::Values(&self.w)
        } else {
            EdgeWeights::Ones
        }
    }
}

/// Widths 2 and 16, each with ordinary and hot values.
fn inputs(csr: &Csr) -> Vec<Inputs> {
    let mut out = Vec::new();
    for f in [2usize, 16] {
        for hot in [false, true] {
            let mut d = Draws((f as u64) << 8 | hot as u64);
            let x = d.halves(csr.num_cols() * f, if hot { 300.0 } else { 1.0 }, hot);
            let w = d.halves(csr.nnz(), if hot { 2.0 } else { 1.0 }, hot);
            out.push(Inputs { f, x, w });
        }
    }
    out
}

/// Row windows: the whole graph, a tail, an inner range and an empty one.
const WINDOWS: [(usize, usize); 4] = [(0, ROWS), (40, ROWS), (1, ROWS - 2), (60, 60)];

const PLACEMENTS: [ScalePlacement; 4] = [
    ScalePlacement::None,
    ScalePlacement::PostReduction,
    ScalePlacement::PreReduction,
    ScalePlacement::Discretized,
];

/// One run's output bits and stats.
type Run = (Vec<u32>, KernelStats);

fn half_bits(v: &[Half]) -> Vec<u32> {
    v.iter().map(|h| if h.is_nan() { 0x7E00 } else { h.to_bits() as u32 }).collect()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() }).collect()
}

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn words(&mut self, words: &[u32]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }
}

/// `f()` inside an open tracking window under the label `layer`: its
/// output and the window's record as a `Debug` string.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, String) {
    overflow::begin();
    let out = {
        let _site = overflow::site("layer");
        f()
    };
    (out, format!("{:?}", overflow::take()))
}

/// Whether `Half::from_f32` records into the tracking window (the
/// `provenance` feature of `halfgnn-half`).
fn recorder_on() -> bool {
    overflow::begin();
    let _ = Half::from_f32(1.0);
    overflow::take().conversions == 1
}

fn empty_record() -> String {
    format!("{:?}", overflow::Summary::default())
}

/// The stats as hashed: Huang's `nonfinite_values` zeroed.
fn stats_text(s: &KernelStats, label: &str) -> String {
    let mut totals = s.totals.clone();
    if label.starts_with("huang/") {
        totals.nonfinite_values = 0;
    }
    format!(
        "{} {} {} {} {:x} {:x} {:x} {:x} {totals:?}",
        s.name,
        s.num_ctas,
        s.warps_per_cta,
        s.launches,
        s.cycles.to_bits(),
        s.time_us.to_bits(),
        s.mem_bw_utilization.to_bits(),
        s.sm_utilization.to_bits(),
    )
}

/// The record as hashed: the 64-neighbor Huang kernel's site label
/// removed.
fn record_text(record: &str) -> String {
    record.replace("/huang_f16x2_g64_spmm", "")
}

/// Run `run(dev, 0..n)` under every mode, check the modes against Sim,
/// and return the label's three digests.
fn pin(label: &str, n: usize, run: impl Fn(&DeviceConfig, usize) -> Run) -> (String, [u64; 3]) {
    let recording = recorder_on();
    let sim = DeviceConfig::a100_like();
    let (mut values, mut stats, mut records) = (Fnv::new(), Fnv::new(), Fnv::new());
    for i in 0..n {
        let what = format!("{label} run {i}");
        let ((out, st), record) = recorded(|| run(&sim, i));
        values.words(&out);
        stats.text(&stats_text(&st, label));
        if recording {
            records.text(&record_text(&record));
        } else {
            assert_eq!(record, empty_record(), "{what}: recorded without the recorder");
        }

        let (closed, _) = run(&sim, i);
        assert_eq!(closed, out, "{what}: no window changed the values");
        assert_eq!(format!("{:?}", overflow::take()), empty_record(), "{what}: no window");

        for threads in [1, 2, 4] {
            let dev = sim.clone().with_exec(ExecMode::fast_with_threads(threads));
            let ((fast_out, fast), fast_record) = recorded(|| run(&dev, i));
            assert_eq!(fast_out, out, "{what}: Fast{{{threads}}} values");
            assert_eq!(fast_record, record, "{what}: Fast{{{threads}}} record");
            let shape = |s: &KernelStats| (s.name.clone(), s.num_ctas, s.warps_per_cta, s.launches);
            assert_eq!(shape(&fast), shape(&st), "{what}: Fast{{{threads}}} launches");
            assert_eq!(fast.cycles, 0.0, "{what}: Fast{{{threads}}} cycles");
            assert_eq!(fast.totals, WarpCounters::default(), "{what}: Fast{{{threads}}} counters");
        }
    }
    (label.to_string(), [values.0, stats.0, records.0])
}

/// Compare computed lines with the table's lines of the same labels:
/// all three digests with the recorder compiled in, the first two
/// without. Prints the computed lines on a mismatch.
fn check(computed: Vec<(String, [u64; 3])>) {
    let recording = recorder_on();
    let table: Vec<(&str, [u64; 3])> = DIGESTS
        .lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let label = parts.next().expect("a label");
            let mut digest = [0u64; 3];
            for d in &mut digest {
                *d = u64::from_str_radix(parts.next().expect("three digests"), 16).unwrap();
            }
            (label, digest)
        })
        .collect();
    let mut wrong = Vec::new();
    for (label, got) in &computed {
        match table.iter().find(|(l, _)| l == label) {
            Some((_, want)) if want[..2] == got[..2] && (!recording || want[2] == got[2]) => {}
            Some(_) => wrong.push(label.clone()),
            None => wrong.push(format!("{label} (not in the table)")),
        }
    }
    if !wrong.is_empty() {
        for (label, [v, s, r]) in &computed {
            eprintln!("{label} {v:016x} {s:016x} {r:016x}");
        }
        panic!("{} of {} lines differ: {wrong:?}", wrong.len(), computed.len());
    }
}

/// Every (input, window) pair, as run indices.
fn sweep(inputs: &[Inputs]) -> Vec<(&Inputs, (usize, usize))> {
    inputs.iter().flat_map(|inp| WINDOWS.map(|w| (inp, w))).collect()
}

#[test]
fn the_edge_parallel_spmm_is_pinned() {
    let csr = graph();
    let coo = csr.to_coo();
    let scale = row_scales_mean(&csr.degrees());
    let inputs = inputs(&csr);
    let runs = sweep(&inputs);
    let small = Tiling { edges_per_warp: 16, warps_per_cta: 2 };
    let mut lines = Vec::new();
    for writes in [WriteStrategy::Staged, WriteStrategy::Atomic] {
        for scaling in PLACEMENTS {
            for weighted in [false, true] {
                for tiling in [Tiling::default(), small] {
                    let label = format!(
                        "ep/{writes:?}/{scaling:?}/w{}/t{}x{}",
                        weighted as u8, tiling.edges_per_warp, tiling.warps_per_cta
                    );
                    let cfg = SpmmConfig { scaling, writes, tiling };
                    let row_scale = (scaling != ScalePlacement::None).then_some(&scale[..]);
                    lines.push(pin(&label, runs.len(), |dev, i| {
                        let (inp, win) = runs[i];
                        let w = inp.weights(weighted);
                        let (y, s) = spmm_window(dev, &coo, w, &inp.x, inp.f, row_scale, &cfg, win);
                        (half_bits(&y), s)
                    }));
                }
            }
        }
    }
    check(lines);
}

#[test]
fn the_vertex_parallel_spmm_is_pinned() {
    let csr = graph();
    let scale = row_scales_mean(&csr.degrees());
    let inputs = inputs(&csr);
    let runs = sweep(&inputs);
    let mut lines = Vec::new();
    for scaling in PLACEMENTS {
        for weighted in [false, true] {
            let label = format!("vp/{scaling:?}/w{}", weighted as u8);
            let row_scale = (scaling != ScalePlacement::None).then_some(&scale[..]);
            lines.push(pin(&label, runs.len(), |dev, i| {
                let (inp, win) = runs[i];
                let w = inp.weights(weighted);
                let (y, s) = spmm_vertex_parallel_window(
                    dev, &csr, w, &inp.x, inp.f, row_scale, scaling, win,
                );
                (half_bits(&y), s)
            }));
        }
    }
    check(lines);
}

#[test]
fn the_i8_spmm_is_pinned() {
    let csr = graph();
    let scale = row_scales_mean(&csr.degrees());
    let inputs = inputs(&csr);
    let runs = sweep(&inputs);
    let narrow = Tiling { edges_per_warp: 32, warps_per_cta: 2 };
    let mut lines = Vec::new();
    for weighted in [false, true] {
        let operands: Vec<I8Operands> = inputs
            .iter()
            .map(|inp| I8Operands::new(&csr, inp.weights(weighted), &inp.x, inp.f, 42))
            .collect();
        for scaled in [false, true] {
            for tiling in [Tiling::default(), narrow] {
                let label = format!(
                    "i8/w{}/s{}/t{}x{}",
                    weighted as u8, scaled as u8, tiling.edges_per_warp, tiling.warps_per_cta
                );
                let row_scale = scaled.then_some(&scale[..]);
                lines.push(pin(&label, runs.len(), |dev, i| {
                    let (inp, win) = runs[i];
                    let ops = &operands[i / WINDOWS.len()];
                    let (y, s) = spmm_i8_window(dev, &csr, ops, inp.f, row_scale, tiling, win);
                    (half_bits(&y), s)
                }));
            }
        }
    }
    check(lines);
}

#[test]
fn the_huang_spmms_are_pinned() {
    let csr = graph();
    let inputs = inputs(&csr);
    let widened: Vec<(Vec<f32>, Vec<f32>)> = inputs
        .iter()
        .map(|inp| {
            let wide = |v: &[Half]| v.iter().map(|h| h.to_f32()).collect::<Vec<f32>>();
            (wide(&inp.x), wide(&inp.w))
        })
        .collect();
    let mut lines = Vec::new();
    for weighted in [false, true] {
        let w = weighted as u8;
        lines.push(pin(&format!("huang/g32/w{w}"), inputs.len(), |dev, i| {
            let inp = &inputs[i];
            let (y, s) = huang::spmm_half2(dev, &csr, inp.weights(weighted), &inp.x, inp.f);
            (half_bits(&y), s)
        }));
        lines.push(pin(&format!("huang/g64/w{w}"), inputs.len(), |dev, i| {
            let inp = &inputs[i];
            let (y, s) = huang::spmm_half2_g64(dev, &csr, inp.weights(weighted), &inp.x, inp.f);
            (half_bits(&y), s)
        }));
        lines.push(pin(&format!("huang/f32/w{w}"), inputs.len(), |dev, i| {
            let (x, wv) = &widened[i];
            let weights = if weighted { EdgeWeights::Values(&wv[..]) } else { EdgeWeights::Ones };
            let (y, s) = huang::spmm_float(dev, &csr, weights, x, inputs[i].f);
            (f32_bits(&y), s)
        }));
    }
    check(lines);
}
