//! Pinned digests of generated datasets: a generator rewrite (a faster
//! edge sampler, a new rank-to-pair walk) must reproduce every graph,
//! label and feature bit for bit, or every downstream golden moves.

use halfgnn_graph::datasets::{Dataset, LoadedDataset};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One digest over the adjacency (offsets and columns), the labels, the
/// feature bits and the split masks.
fn digest(d: &LoadedDataset) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for &o in d.adj.offsets() {
        h.word(&(o as u64).to_le_bytes());
    }
    for &c in d.adj.cols() {
        h.word(&c.to_le_bytes());
    }
    for &l in &d.labels {
        h.word(&l.to_le_bytes());
    }
    for &x in &d.features {
        h.word(&x.to_bits().to_le_bytes());
    }
    for mask in [&d.split.train, &d.split.val, &d.split.test] {
        for &m in mask.iter() {
            h.word(&[m as u8]);
        }
    }
    h.0
}

#[test]
fn sbm_datasets_match_their_pinned_digests() {
    // Computed with the quadratic rank-to-pair walk the SBM generator
    // used before its linear cursor.
    let pinned: [(&str, u64); 5] = [
        ("G1", 0x6474_abde_7620_07b6),
        ("G2", 0x68d7_2633_1d4e_8d3d),
        ("G3", 0x16cc_4bd5_8611_534d),
        ("G13", 0x8995_af45_e1b7_0142),
        ("G15", 0xce5d_8837_0c76_fa0e),
    ];
    for (id, want) in pinned {
        let have = digest(&Dataset::by_id(id).expect("registry id").load(42));
        assert_eq!(have, want, "{id} at seed 42: digest {have:#018x}, pinned {want:#018x}");
    }
}
