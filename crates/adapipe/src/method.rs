use adapipe_sim::schedule::Family;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A planning method: AdaPipe, its ablation, or one of the paper's
/// baselines (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Method {
    /// Full AdaPipe: adaptive recomputation + adaptive partitioning.
    AdaPipe,
    /// Adaptive recomputation with even (baseline) partitioning — the
    /// paper's *Even Partitioning* ablation.
    EvenPartitioning,
    /// DAPPLE (1F1B) with full recomputation.
    DappleFull,
    /// DAPPLE (1F1B) with no recomputation.
    DappleNone,
    /// Chimera bidirectional pipelines, full recomputation.
    ChimeraFull,
    /// Chimera bidirectional pipelines, no recomputation.
    ChimeraNone,
    /// Chimera with forward doubling, full recomputation.
    ChimeraDFull,
    /// Chimera with forward doubling, no recomputation.
    ChimeraDNone,
    /// GPipe (all-forward-then-all-backward), full recomputation.
    GpipeFull,
    /// GPipe, no recomputation.
    GpipeNone,
    /// DAPPLE (1F1B) with Megatron-style *selective* recomputation:
    /// only the attention core is recomputed (§2.2 notes FlashAttention
    /// supersedes it; included as an extension baseline).
    DappleSelective,
    /// Megatron-style interleaved 1F1B with two model chunks per device,
    /// full recomputation (extension; §2.1 discusses the mechanism).
    InterleavedFull,
    /// Interleaved 1F1B (two chunks per device), no recomputation.
    InterleavedNone,
}

impl Method {
    /// Every method, in the order the paper's figures list them (the
    /// interleaved extension last).
    #[must_use]
    pub fn all() -> [Method; 13] {
        [
            Method::DappleFull,
            Method::DappleNone,
            Method::DappleSelective,
            Method::ChimeraFull,
            Method::ChimeraNone,
            Method::ChimeraDFull,
            Method::ChimeraDNone,
            Method::GpipeFull,
            Method::GpipeNone,
            Method::InterleavedFull,
            Method::InterleavedNone,
            Method::EvenPartitioning,
            Method::AdaPipe,
        ]
    }

    /// Number of model chunks each device hosts (Megatron's `v`); 1 for
    /// everything except the interleaved methods.
    #[must_use]
    pub fn virtual_chunks(self) -> usize {
        match self {
            Method::InterleavedFull | Method::InterleavedNone => 2,
            _ => 1,
        }
    }

    /// The methods shown in Figures 5 and 6 (cluster A).
    #[must_use]
    pub fn figure5() -> [Method; 8] {
        [
            Method::DappleFull,
            Method::DappleNone,
            Method::ChimeraFull,
            Method::ChimeraNone,
            Method::ChimeraDFull,
            Method::ChimeraDNone,
            Method::EvenPartitioning,
            Method::AdaPipe,
        ]
    }

    /// The simulator schedule family the method's plans run on.
    #[must_use]
    pub(crate) fn schedule_family(self) -> Family {
        match self {
            Method::ChimeraFull
            | Method::ChimeraNone
            | Method::ChimeraDFull
            | Method::ChimeraDNone => Family::Chimera,
            Method::GpipeFull | Method::GpipeNone => Family::Gpipe,
            Method::InterleavedFull | Method::InterleavedNone => Family::Interleaved,
            _ => Family::OneFOneB,
        }
    }

    /// Whether the method searches recomputation adaptively (AdaPipe and
    /// Even Partitioning) rather than using full/no recomputation.
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        matches!(self, Method::AdaPipe | Method::EvenPartitioning)
    }

    /// Live micro-batch count of (virtual) stage `stage` under this
    /// method's schedule — the multiplier on per-micro-batch saved bytes
    /// in Eq. (2): `p − s` for 1F1B (§2.1), all `n` for GPipe,
    /// `vp − s` for the interleaved virtual-stage law, and the analytic
    /// worst case `p/2 + 1` for Chimera's bidirectional residency.
    ///
    /// Used by both the planner (to budget plans) and the verifier (to
    /// re-derive the budget a plan claims); keeping them on one code
    /// path is what makes the memory-accounting check exact.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for
    /// `pipeline · virtual_chunks()`.
    #[must_use]
    pub fn live_microbatches(self, pipeline: usize, stage: usize, n: usize) -> usize {
        let vp = pipeline * self.virtual_chunks();
        assert!(stage < vp, "stage {stage} out of range for vp={vp}");
        match self.schedule_family() {
            Family::Gpipe => n,
            // Virtual-stage residency: a vp-deep 1F1B law.
            Family::Interleaved => vp - stage,
            Family::Chimera => pipeline / 2 + 1,
            Family::OneFOneB => adapipe_memory::f1b_live_microbatches(pipeline, stage),
        }
    }

    /// Whether the method saves every intermediate (the `-Non` variants).
    #[must_use]
    pub fn saves_everything(self) -> bool {
        matches!(
            self,
            Method::DappleNone
                | Method::ChimeraNone
                | Method::ChimeraDNone
                | Method::GpipeNone
                | Method::InterleavedNone
        )
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so callers' width/alignment apply.
        f.pad(match self {
            Method::AdaPipe => "AdaPipe",
            Method::EvenPartitioning => "Even Partitioning",
            Method::DappleFull => "DAPPLE-Full",
            Method::DappleNone => "DAPPLE-Non",
            Method::ChimeraFull => "Chimera-Full",
            Method::ChimeraNone => "Chimera-Non",
            Method::ChimeraDFull => "ChimeraD-Full",
            Method::ChimeraDNone => "ChimeraD-Non",
            Method::GpipeFull => "GPipe-Full",
            Method::GpipeNone => "GPipe-Non",
            Method::DappleSelective => "DAPPLE-Selective",
            Method::InterleavedFull => "Interleaved-Full",
            Method::InterleavedNone => "Interleaved-Non",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifications_are_consistent() {
        for m in Method::all() {
            if m.is_adaptive() {
                assert!(!m.saves_everything());
                assert_ne!(m.schedule_family(), Family::Chimera);
            }
        }
        assert_eq!(Method::ChimeraDNone.schedule_family(), Family::Chimera);
        assert!(Method::ChimeraDNone.saves_everything());
    }

    #[test]
    fn live_microbatches_cover_gpipe_1f1b_and_chimera() {
        // GPipe holds all n micro-batches; 1F1B stage 0 holds p.
        let (p, n) = (8, 128);
        assert_eq!(Method::GpipeFull.live_microbatches(p, 0, n), n);
        assert_eq!(Method::AdaPipe.live_microbatches(p, 0, n), p);
        assert_eq!(Method::AdaPipe.live_microbatches(p, p - 1, n), 1);
        assert_eq!(Method::ChimeraNone.live_microbatches(p, 3, n), p / 2 + 1);
    }

    #[test]
    fn virtual_chunks_only_for_interleaved() {
        for m in Method::all() {
            let v = m.virtual_chunks();
            if matches!(m, Method::InterleavedFull | Method::InterleavedNone) {
                assert_eq!(v, 2, "{m}");
            } else {
                assert_eq!(v, 1, "{m}");
            }
        }
    }

    #[test]
    fn selective_is_a_plain_1f1b_baseline() {
        let m = Method::DappleSelective;
        assert_eq!(m.schedule_family(), Family::OneFOneB);
        assert!(!m.is_adaptive());
        assert!(!m.saves_everything());
        assert_eq!(m.to_string(), "DAPPLE-Selective");
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Method::DappleFull.to_string(), "DAPPLE-Full");
        assert_eq!(Method::ChimeraDNone.to_string(), "ChimeraD-Non");
        assert_eq!(Method::EvenPartitioning.to_string(), "Even Partitioning");
    }

    #[test]
    fn figure5_subset_of_all() {
        let all = Method::all();
        for m in Method::figure5() {
            assert!(all.contains(&m));
        }
    }
}
