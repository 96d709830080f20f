//! Arena planner: buffer-lifetime analysis over a captured [`ExecGraph`].
//!
//! Every non-external buffer has a lifetime interval `[def, last_use]` in
//! node order. A linear scan over buffers in def order assigns each to a
//! reusable *slab*: when a buffer's def passes another's last use, the
//! dead buffer's slab returns to the free pool. Assignment is best-fit
//! (smallest free slab that holds the request); if nothing fits, the
//! largest free slab grows rather than opening a new one, which keeps the
//! slab count near the true maximum-liveness width. `peak_bytes` — the sum
//! of slab sizes — is the arena's epoch footprint, the number the PR6
//! bench compares against the eager no-reuse baseline.
//!
//! Expiry is strict (`last_use < def`): a buffer consumed by the very node
//! that defines another may be read after the output is written inside one
//! kernel, so same-node reuse would alias live data.

use crate::{BufId, ExecGraph};

/// Slab assignment for one captured epoch.
#[derive(Clone, Debug, Default)]
pub struct ArenaPlan {
    /// Per buffer id: its slab, or `None` for external buffers.
    pub slab_of: Vec<Option<usize>>,
    /// Final size of each slab in bytes.
    pub slab_bytes: Vec<usize>,
    /// Arena footprint: `slab_bytes` summed.
    pub peak_bytes: usize,
    /// No-reuse baseline: every intermediate allocated simultaneously.
    pub eager_bytes: usize,
    /// Epoch-lifetime (external) bytes, outside the arena.
    pub external_bytes: usize,
}

/// Linear-scan slab assignment over the captured buffer lifetimes.
pub fn plan(g: &ExecGraph) -> ArenaPlan {
    // Non-external buffers ordered by def node (ties keep id order, which
    // is mint order within the node).
    let mut order: Vec<BufId> = (0..g.buffers.len()).filter(|&b| !g.buffers[b].external).collect();
    order.sort_by_key(|&b| (g.buffers[b].def.unwrap(), b));

    let mut slab_of = vec![None; g.buffers.len()];
    let mut slab_bytes: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new(); // free slab indices
    let mut active: Vec<BufId> = Vec::new(); // assigned, possibly still live

    for &b in &order {
        let def = g.buffers[b].def.unwrap();
        // Expire everything whose last use is strictly before this def.
        active.retain(|&a| {
            let dead = g.buffers[a].last_use < def;
            if dead {
                free.push(slab_of[a].unwrap());
            }
            !dead
        });

        let need = g.buffers[b].bytes;
        // Best fit: smallest free slab that holds the request.
        let fit = free
            .iter()
            .enumerate()
            .filter(|&(_, &s)| slab_bytes[s] >= need)
            .min_by_key(|&(_, &s)| slab_bytes[s])
            .map(|(i, _)| i);
        let slab = match fit {
            Some(i) => free.swap_remove(i),
            None => {
                // Grow the largest free slab rather than widening the arena.
                match free.iter().enumerate().max_by_key(|&(_, &s)| slab_bytes[s]).map(|(i, _)| i) {
                    Some(i) => {
                        let s = free.swap_remove(i);
                        slab_bytes[s] = need;
                        s
                    }
                    None => {
                        slab_bytes.push(need);
                        slab_bytes.len() - 1
                    }
                }
            }
        };
        slab_of[b] = Some(slab);
        active.push(b);
    }

    ArenaPlan {
        slab_of,
        peak_bytes: slab_bytes.iter().sum(),
        slab_bytes,
        eager_bytes: g.eager_bytes(),
        external_bytes: g.external_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{buf_ref, BufRef, ExecCtx};
    use proptest::prelude::*;

    fn r(addr: usize, bytes: usize) -> BufRef {
        BufRef { addr, bytes }
    }

    /// A producer-consumer chain reuses one slab: a -> b -> c where each
    /// value dies as the next is consumed.
    #[test]
    fn chain_reuses_slabs() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[], &[r(0x100, 64)], None);
        ctx.record_node("b", &[r(0x100, 64)], &[r(0x200, 64)], None);
        ctx.record_node("c", &[r(0x200, 64)], &[r(0x300, 64)], None);
        let p = plan(&ctx.graph());
        // Adjacent links overlap (input live at def of output), so width 2.
        assert_eq!(p.slab_bytes.len(), 2);
        assert_eq!(p.peak_bytes, 128);
        assert_eq!(p.eager_bytes, 192);
    }

    #[test]
    fn growing_request_widens_a_slab_not_the_arena() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[], &[r(0x100, 16)], None);
        ctx.record_node("sink", &[r(0x100, 16)], &[], None);
        ctx.record_node("b", &[], &[r(0x200, 64)], None);
        let p = plan(&ctx.graph());
        assert_eq!(p.slab_bytes, vec![64], "one slab, grown from 16 to 64");
        assert_eq!(p.peak_bytes, 64);
    }

    #[test]
    fn same_node_input_output_never_share() {
        let ctx = ExecCtx::capturing();
        ctx.record_node("a", &[], &[r(0x100, 32)], None);
        ctx.record_node("b", &[r(0x100, 32)], &[r(0x200, 32)], None);
        let p = plan(&ctx.graph());
        assert_ne!(p.slab_of[0], p.slab_of[1], "strict expiry: last_use == def must not alias");
    }

    #[test]
    fn externals_stay_out_of_the_arena() {
        let ctx = ExecCtx::capturing();
        let weights = vec![0u8; 128];
        ctx.record_node("gemm", &[buf_ref(&weights)], &[r(0x900, 32)], None);
        let p = plan(&ctx.graph());
        assert_eq!(p.slab_of[0], None);
        assert_eq!(p.external_bytes, 128);
        assert_eq!(p.peak_bytes, 32);
    }

    /// One kernel's `(address slot, bytes)` inputs and outputs.
    type TraceNode = (Vec<(usize, usize)>, Vec<(usize, usize)>);

    /// Random kernel traces: addresses chosen from a small pool so reuse
    /// and shadowing both happen constantly.
    fn arb_trace() -> impl Strategy<Value = Vec<TraceNode>> {
        let buf = || (0usize..12, prop::sample::select(vec![8usize, 16, 24, 64, 256]));
        let bufs = |n| prop::collection::vec(buf(), 0..n);
        prop::collection::vec((bufs(4), bufs(3)), 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The headline safety property: two buffers assigned the same
        /// slab never have overlapping [def, last_use] intervals, and
        /// every slab holds its largest tenant.
        #[test]
        fn slabs_never_alias_overlapping_lifetimes(trace in arb_trace()) {
            let ctx = ExecCtx::capturing();
            for (ins, outs) in &trace {
                let ins: Vec<BufRef> =
                    ins.iter().map(|&(a, b)| r(0x1000 + a * 0x1000, b)).collect();
                let outs: Vec<BufRef> =
                    outs.iter().map(|&(a, b)| r(0x1000 + a * 0x1000, b)).collect();
                ctx.record_node("k", &ins, &outs, None);
            }
            let g = ctx.graph();
            let p = plan(&g);
            for i in 0..g.buffers.len() {
                let Some(si) = p.slab_of[i] else {
                    prop_assert!(g.buffers[i].external);
                    continue;
                };
                prop_assert!(p.slab_bytes[si] >= g.buffers[i].bytes);
                for j in i + 1..g.buffers.len() {
                    if p.slab_of[j] != Some(si) {
                        continue;
                    }
                    let (bi, bj) = (g.buffers[i], g.buffers[j]);
                    let disjoint = bi.last_use < bj.def.unwrap() || bj.last_use < bi.def.unwrap();
                    prop_assert!(
                        disjoint,
                        "slab {si} aliases buffers {i} [{:?},{}] and {j} [{:?},{}]",
                        bi.def, bi.last_use, bj.def, bj.last_use
                    );
                }
            }
            // The arena never beats max-liveness or loses to eager.
            prop_assert!(p.peak_bytes <= p.eager_bytes + p.slab_bytes.iter().max().copied().unwrap_or(0));
        }
    }
}
