//! Epoch capture/replay execution graph — the repo's CUDA-graph analog.
//!
//! A GNN training epoch launches the same kernel sequence every time: the
//! graph is static, the model is static, so the DAG of kernel launches is
//! a *value*, not a side effect of model code. This crate makes it one.
//!
//! During **capture** (epoch 0), the dispatch layer records every kernel
//! launch — op name, resolved [`KernelPlan`], buffer identities, shard
//! window — into an [`ExecGraph`] via [`ExecCtx::record_node`] /
//! [`ExecCtx::record_plan`]. After [`ExecCtx::seal`], every later epoch is
//! a **replay**: dispatch pulls the pre-resolved plans back in capture
//! order through one reader, [`ExecCtx::next_plan`], with zero tuner-cache
//! lookups (the dispatch site checks each plan's kind, so a replay that
//! reads the wrong kind panics as diverged), and the executor strips the
//! per-launch overhead that capture already charged (the cycles saved
//! accumulate in [`ExecCtx::add_saved_cycles`]).
//!
//! On top of the captured graph, [`arena`] runs a buffer-lifetime analysis
//! (first-def/last-use intervals, linear-scan slab assignment) so
//! intermediates share memory; the resulting `peak_bytes` is the
//! first-class memory metric surfaced in `TrainReport` and the PR6 bench.
//!
//! Buffer identity is by address: safe Rust guarantees that two live
//! slices with the same `(ptr, len)` are the same allocation, and an
//! address that reappears as a *kernel output* means the previous `Vec`
//! there was dropped — so outputs always mint a fresh buffer id and
//! overwrite the address map. Inputs whose address was never produced by
//! a captured kernel (parameters, input features, pasted globals in
//! sharded mode) are **external**: they live for the whole epoch and are
//! excluded from the arena, but counted separately so reports stay honest.

pub mod arena;

use halfgnn_tune::plan::KernelPlan;
use std::cell::RefCell;
use std::collections::HashMap;

/// Identity of a captured buffer (index into [`ExecGraph::buffers`]).
pub type BufId = usize;

/// Why a capture request was refused up front instead of letting the
/// replay stream diverge into the node/plan-mismatch panic later.
///
/// Capture assumes the epoch's kernel sequence is a fixed value. A
/// configuration that breaks that assumption must be rejected *by name*
/// at config-validation time — never discovered as a divergence panic
/// mid-epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureRefused {
    /// Mini-batch training resamples a different subgraph every batch, so
    /// no single captured kernel sequence replays: `--replay` is
    /// incompatible with `--batch-size`.
    MiniBatchSchedule,
    /// Serving with a batch window above 1 coalesces a different request
    /// set (hence a different subgraph shape) into every launch, so no
    /// steady-state kernel sequence exists to capture: serve `--replay`
    /// requires `--batch-window 1`.
    DynamicBatchShape,
}

impl std::fmt::Display for CaptureRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureRefused::MiniBatchSchedule => write!(
                f,
                "capture refused: mini-batch sampling (--batch-size) changes the kernel \
                 sequence every batch, so an epoch cannot be captured for --replay"
            ),
            CaptureRefused::DynamicBatchShape => write!(
                f,
                "capture refused: a serve batch window above 1 coalesces a different \
                 request set (and subgraph shape) into every launch, so no steady-state \
                 sequence can be captured for --replay; use --batch-window 1"
            ),
        }
    }
}

impl std::error::Error for CaptureRefused {}

/// A buffer as seen at a kernel launch: raw address + byte length. Only
/// used transiently during capture — the address is never dereferenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufRef {
    pub addr: usize,
    pub bytes: usize,
}

/// Capture-time identity of a slice.
pub fn buf_ref<T>(s: &[T]) -> BufRef {
    BufRef { addr: s.as_ptr() as usize, bytes: std::mem::size_of_val(s) }
}

/// Lifetime record for one captured buffer.
#[derive(Clone, Copy, Debug)]
pub struct BufInfo {
    /// Allocation size in bytes.
    pub bytes: usize,
    /// True when the buffer was first seen as an *input* — it predates the
    /// captured epoch (parameters, features) and is excluded from the
    /// arena.
    pub external: bool,
    /// Node index that produced this buffer (`None` for external).
    pub def: Option<usize>,
    /// Last node index that read or wrote it.
    pub last_use: usize,
}

/// One captured kernel launch.
#[derive(Clone, Debug)]
pub struct Node {
    /// Kernel family name (matches the `KernelStats` name prefix).
    pub op: &'static str,
    /// Buffers read.
    pub inputs: Vec<BufId>,
    /// Buffers written (always freshly minted ids).
    pub outputs: Vec<BufId>,
    /// Shard window `[lo, hi)` when the launch was windowed: rows, or
    /// edges for an edge-windowed kernel (SDDMM).
    pub window: Option<(usize, usize)>,
}

/// The captured epoch: every launch, every buffer lifetime, and the
/// resolved kernel plans in resolution order.
#[derive(Clone, Debug, Default)]
pub struct ExecGraph {
    pub nodes: Vec<Node>,
    pub buffers: Vec<BufInfo>,
    /// Plans in the order dispatch resolved them during capture. Replay
    /// consumes this stream with its own cursor — plan resolution is not
    /// 1:1 with nodes (a fused-attention plan is resolved once, then
    /// several launches run under it).
    pub plans: Vec<KernelPlan>,
}

impl ExecGraph {
    /// Sum of non-external buffer bytes: what an eager framework that
    /// pins every intermediate for the backward pass would hold.
    pub fn eager_bytes(&self) -> usize {
        self.buffers.iter().filter(|b| !b.external).map(|b| b.bytes).sum()
    }

    /// Sum of external (epoch-lifetime) buffer bytes.
    pub fn external_bytes(&self) -> usize {
        self.buffers.iter().filter(|b| b.external).map(|b| b.bytes).sum()
    }
}

/// What one replayed epoch looked like — surfaced in `TrainReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplaySummary {
    /// Captured kernel launches per epoch.
    pub nodes: usize,
    /// Kernel plans resolved during capture (consumed verbatim on replay).
    pub plans: usize,
    /// Distinct buffers seen (external + intermediate).
    pub buffers: usize,
    /// Arena footprint: bytes of intermediate memory after lifetime-exact
    /// slab reuse.
    pub peak_bytes: usize,
    /// No-reuse baseline: every intermediate held simultaneously.
    pub eager_bytes: usize,
    /// Epoch-lifetime buffers (params, features) outside the arena.
    pub external_bytes: usize,
    /// Modeled cycles saved per replay epoch by not re-paying per-launch
    /// overhead.
    pub saved_cycles: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Capture,
    Replay,
}

struct State {
    phase: Phase,
    graph: ExecGraph,
    /// `(addr, bytes)` → current buffer id at that address.
    addr_map: HashMap<BufRef, BufId>,
    plan_cursor: usize,
    saved_cycles: f64,
}

/// Shared capture/replay state threaded through `Ops` and `Dispatch`.
pub struct ExecCtx {
    state: RefCell<State>,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::capturing()
    }
}

impl ExecCtx {
    /// A fresh context in capture phase.
    pub fn capturing() -> ExecCtx {
        ExecCtx {
            state: RefCell::new(State {
                phase: Phase::Capture,
                graph: ExecGraph::default(),
                addr_map: HashMap::new(),
                plan_cursor: 0,
                saved_cycles: 0.0,
            }),
        }
    }

    pub fn is_replaying(&self) -> bool {
        self.state.borrow().phase == Phase::Replay
    }

    /// Record one resolved kernel plan (capture phase only).
    pub fn record_plan(&self, plan: KernelPlan) {
        let mut s = self.state.borrow_mut();
        assert_eq!(s.phase, Phase::Capture, "record_plan on a sealed graph");
        s.graph.plans.push(plan);
    }

    /// Next captured plan, in capture order (replay phase). Panics when
    /// the epoch asks for more plans than capture recorded: replay
    /// diverged. The dispatch site that reads it checks the plan's kind.
    pub fn next_plan(&self) -> KernelPlan {
        let mut s = self.state.borrow_mut();
        assert_eq!(s.phase, Phase::Replay, "next_plan before seal()");
        let i = s.plan_cursor;
        let plan = *s.graph.plans.get(i).unwrap_or_else(|| {
            panic!("replay diverged from captured graph: wanted plan #{i}, none left")
        });
        s.plan_cursor = i + 1;
        plan
    }

    /// Record one kernel launch during capture (no-op during replay —
    /// the kernels still run, the graph already knows them).
    pub fn record_node(
        &self,
        op: &'static str,
        inputs: &[BufRef],
        outputs: &[BufRef],
        window: Option<(usize, usize)>,
    ) {
        let mut s = self.state.borrow_mut();
        if s.phase != Phase::Capture {
            return;
        }
        let node_idx = s.graph.nodes.len();
        let mut node = Node { op, inputs: Vec::new(), outputs: Vec::new(), window };
        for &r in inputs {
            if r.bytes == 0 {
                continue;
            }
            let id = match s.addr_map.get(&r) {
                Some(&id) => id,
                None => {
                    // Never produced by a captured kernel: external.
                    let id = s.graph.buffers.len();
                    s.graph.buffers.push(BufInfo {
                        bytes: r.bytes,
                        external: true,
                        def: None,
                        last_use: node_idx,
                    });
                    s.addr_map.insert(r, id);
                    id
                }
            };
            s.graph.buffers[id].last_use = node_idx;
            node.inputs.push(id);
        }
        for &r in outputs {
            if r.bytes == 0 {
                continue;
            }
            // An output address always means a fresh allocation (any prior
            // Vec there was dropped), so mint a new id and shadow the map.
            let id = s.graph.buffers.len();
            s.graph.buffers.push(BufInfo {
                bytes: r.bytes,
                external: false,
                def: Some(node_idx),
                last_use: node_idx,
            });
            s.addr_map.insert(r, id);
            node.outputs.push(id);
        }
        s.graph.nodes.push(node);
    }

    /// End the capture epoch: freeze the graph and switch to replay.
    pub fn seal(&self) {
        let mut s = self.state.borrow_mut();
        assert_eq!(s.phase, Phase::Capture, "seal() called twice");
        s.phase = Phase::Replay;
        s.addr_map = HashMap::new();
        s.plan_cursor = 0;
    }

    /// Reset the replay cursor at the top of an epoch.
    pub fn begin_epoch(&self) {
        let mut s = self.state.borrow_mut();
        if s.phase == Phase::Replay {
            s.plan_cursor = 0;
        }
    }

    /// Assert the epoch consumed exactly the captured plan stream.
    pub fn end_epoch(&self) {
        let s = self.state.borrow();
        if s.phase == Phase::Replay {
            assert_eq!(
                s.plan_cursor,
                s.graph.plans.len(),
                "replay diverged from captured graph: consumed {} of {} plans",
                s.plan_cursor,
                s.graph.plans.len()
            );
        }
    }

    /// Accumulate modeled cycles saved by stripped launch overhead.
    pub fn add_saved_cycles(&self, cycles: f64) {
        self.state.borrow_mut().saved_cycles += cycles;
    }

    /// Cycles saved so far across all replay epochs.
    pub fn saved_cycles(&self) -> f64 {
        self.state.borrow().saved_cycles
    }

    /// Clone of the captured graph (inspection and tests).
    pub fn graph(&self) -> ExecGraph {
        self.state.borrow().graph.clone()
    }

    /// Run the arena planner over the captured graph and summarize.
    pub fn summary(&self) -> ReplaySummary {
        let s = self.state.borrow();
        let plan = arena::plan(&s.graph);
        ReplaySummary {
            nodes: s.graph.nodes.len(),
            plans: s.graph.plans.len(),
            buffers: s.graph.buffers.len(),
            peak_bytes: plan.peak_bytes,
            eager_bytes: plan.eager_bytes,
            external_bytes: plan.external_bytes,
            saved_cycles: s.saved_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_tune::plan::{AttnPlan, SddmmPlan, SpmmPlan};

    fn r(addr: usize, bytes: usize) -> BufRef {
        BufRef { addr, bytes }
    }

    #[test]
    fn capture_interns_buffers_and_tracks_lifetimes() {
        let ctx = ExecCtx::capturing();
        // n0: external 0x100 -> fresh 0x200; n1: 0x200 -> fresh 0x300.
        ctx.record_node("gemm", &[r(0x100, 64)], &[r(0x200, 32)], None);
        ctx.record_node("relu", &[r(0x200, 32)], &[r(0x300, 32)], Some((0, 8)));
        let g = ctx.graph();
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.buffers.len(), 3);
        assert!(g.buffers[0].external);
        assert_eq!(g.buffers[1].def, Some(0));
        assert_eq!(g.buffers[1].last_use, 1, "consumed by node 1");
        assert_eq!(g.nodes[1].inputs, vec![1], "same (addr, bytes) interned to same id");
        assert_eq!(g.nodes[1].window, Some((0, 8)));
        assert_eq!(g.eager_bytes(), 64);
        assert_eq!(g.external_bytes(), 64);
    }

    #[test]
    fn output_at_reused_address_mints_fresh_id() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[], &[r(0x100, 16)], None);
        ctx.record_node("b", &[r(0x100, 16)], &[r(0x100, 16)], None);
        ctx.record_node("c", &[r(0x100, 16)], &[], None);
        let g = ctx.graph();
        assert_eq!(g.buffers.len(), 2, "address reuse shadows, never merges");
        assert_eq!(g.buffers[0].last_use, 1);
        assert_eq!(g.buffers[1].def, Some(1));
        assert_eq!(g.buffers[1].last_use, 2, "node c reads the shadowing buffer");
    }

    #[test]
    fn zero_byte_refs_are_skipped() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[r(0x100, 0)], &[r(0x200, 0)], None);
        let g = ctx.graph();
        assert_eq!(g.buffers.len(), 0);
        assert!(g.nodes[0].inputs.is_empty() && g.nodes[0].outputs.is_empty());
    }

    #[test]
    fn plan_stream_round_trips_in_order() {
        let ctx = ExecCtx::capturing();
        let sp = SpmmPlan::default();
        let sd = SddmmPlan::default_for(4);
        ctx.record_plan(KernelPlan::Spmm(sp));
        ctx.record_plan(KernelPlan::Sddmm(sd));
        ctx.record_plan(KernelPlan::Attn(AttnPlan { fused: true }));
        ctx.seal();
        for _ in 0..2 {
            ctx.begin_epoch();
            assert_eq!(ctx.next_plan(), KernelPlan::Spmm(sp));
            assert_eq!(ctx.next_plan(), KernelPlan::Sddmm(sd));
            assert_eq!(ctx.next_plan(), KernelPlan::Attn(AttnPlan { fused: true }));
            ctx.end_epoch();
        }
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn overconsumed_plan_stream_panics() {
        let ctx = ExecCtx::capturing();
        ctx.record_plan(KernelPlan::Spmm(SpmmPlan::default()));
        ctx.seal();
        ctx.begin_epoch();
        ctx.next_plan();
        ctx.next_plan();
    }

    #[test]
    #[should_panic(expected = "consumed 0 of 1 plans")]
    fn underconsumed_epoch_panics() {
        let ctx = ExecCtx::capturing();
        ctx.record_plan(KernelPlan::Spmm(SpmmPlan::default()));
        ctx.seal();
        ctx.begin_epoch();
        ctx.end_epoch();
    }

    #[test]
    fn record_node_is_noop_after_seal() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[], &[r(0x100, 16)], None);
        ctx.seal();
        ctx.record_node("b", &[], &[r(0x200, 16)], None);
        assert_eq!(ctx.graph().nodes.len(), 1);
    }

    #[test]
    fn saved_cycles_accumulate() {
        let ctx = ExecCtx::capturing();
        ctx.seal();
        ctx.add_saved_cycles(700.0);
        ctx.add_saved_cycles(700.0);
        assert_eq!(ctx.saved_cycles(), 1400.0);
        assert_eq!(ctx.summary().saved_cycles, 1400.0);
    }
}
