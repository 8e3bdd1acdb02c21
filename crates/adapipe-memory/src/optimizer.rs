use serde::{Deserialize, Serialize};
use std::fmt;

/// Optimizer memory description: the `k` of §4.2.
///
/// With ZeRO stage 1 the optimizer states are sharded over the
/// data-parallel group, so a stage holding `N/t` parameters per device
/// spends `state_bytes_per_param · N / (t·d)` on them. Gradient precision
/// is tracked separately because some frameworks accumulate gradients in
/// fp32 (also noted in §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptimizerSpec {
    /// Bytes of optimizer state per parameter, ZeRO-sharded.
    /// FP32 Adam keeps two states: `2 × 4 = 8`.
    pub state_bytes_per_param: u64,
    /// Bytes of the master parameter copy per parameter, ZeRO-sharded.
    /// 4 when parameters are updated in fp32, 0 when updated in-place.
    pub master_bytes_per_param: u64,
    /// Bytes per gradient element, replicated (not ZeRO-sharded):
    /// 2 for fp16 gradients, 4 for fp32 accumulation.
    pub grad_bytes_per_param: u64,
}

impl OptimizerSpec {
    /// FP32 Adam with an fp32 master copy and fp16 gradients — the
    /// configuration of the paper's evaluation (`k = 2 × 4` states plus
    /// fp32 parameter updates).
    #[must_use]
    pub fn adam_fp32() -> Self {
        OptimizerSpec {
            state_bytes_per_param: 8,
            master_bytes_per_param: 4,
            grad_bytes_per_param: 2,
        }
    }

    /// FP32 Adam with fp32 gradient accumulation.
    #[must_use]
    pub fn adam_fp32_grad_accum() -> Self {
        OptimizerSpec {
            grad_bytes_per_param: 4,
            ..Self::adam_fp32()
        }
    }
}

impl Default for OptimizerSpec {
    fn default() -> Self {
        Self::adam_fp32()
    }
}

impl fmt::Display for OptimizerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "optimizer(state={}B/param, master={}B/param, grad={}B/param)",
            self.state_bytes_per_param, self.master_bytes_per_param, self.grad_bytes_per_param
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_matches_paper_k() {
        let o = OptimizerSpec::adam_fp32();
        // k = 2 × 4 for the two FP32 Adam states.
        assert_eq!(o.state_bytes_per_param, 8);
    }

    #[test]
    fn default_is_adam() {
        assert_eq!(OptimizerSpec::default(), OptimizerSpec::adam_fp32());
    }

    #[test]
    fn grad_accum_variant_doubles_grad_bytes() {
        assert_eq!(
            OptimizerSpec::adam_fp32_grad_accum().grad_bytes_per_param,
            2 * OptimizerSpec::adam_fp32().grad_bytes_per_param
        );
    }
}
