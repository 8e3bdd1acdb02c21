//! Model presets used throughout the paper's evaluation and our tests.

#![expect(
    clippy::expect_used,
    reason = "every preset is a fixed literal configuration whose builder invariants \
              this module's tests exercise; a failure here is a compile-time-style \
              defect, not a runtime condition"
)]

use crate::spec::{FfnKind, ModelSpec};

/// GPT-3 175B (Brown et al., 2020): 96 decoder blocks, hidden 12288,
/// 96 heads, 4·h feed-forward, 50257-token vocabulary. The larger of the
/// two evaluation models in the paper.
#[must_use]
pub fn gpt3_175b() -> ModelSpec {
    ModelSpec::builder("gpt3-175b")
        .hidden(12288)
        .heads(96)
        .ffn_hidden(4 * 12288)
        .vocab(50257)
        .decoder_layers(96)
        .build()
        .expect("preset is valid")
}

/// Llama 2 70B (Touvron et al., 2023): 80 decoder blocks, hidden 8192,
/// 64 query heads with 8 grouped KV heads, SwiGLU feed-forward of width
/// 28672, 32000-token vocabulary.
#[must_use]
pub fn llama2_70b() -> ModelSpec {
    ModelSpec::builder("llama2-70b")
        .hidden(8192)
        .heads(64)
        .kv_heads(8)
        .ffn_hidden(28672)
        .vocab(32000)
        .decoder_layers(80)
        .ffn(FfnKind::SwiGlu)
        .build()
        .expect("preset is valid")
}

/// GPT-3 13B: the mid-size configuration of the GPT-3 family (40
/// blocks, hidden 5140-ish rounded to the published 5120).
#[must_use]
pub fn gpt3_13b() -> ModelSpec {
    ModelSpec::builder("gpt3-13b")
        .hidden(5120)
        .heads(40)
        .ffn_hidden(4 * 5120)
        .vocab(50257)
        .decoder_layers(40)
        .build()
        .expect("preset is valid")
}

/// Llama 2 13B: 40 blocks, hidden 5120, classic MHA, SwiGLU of width
/// 13824.
#[must_use]
pub fn llama2_13b() -> ModelSpec {
    ModelSpec::builder("llama2-13b")
        .hidden(5120)
        .heads(40)
        .ffn_hidden(13824)
        .vocab(32000)
        .decoder_layers(40)
        .ffn(FfnKind::SwiGlu)
        .build()
        .expect("preset is valid")
}

/// BERT-Large-like encoder-as-decoder stand-in (§4.1 notes the unit
/// division also applies to BERT): 24 blocks, hidden 1024.
#[must_use]
pub fn bert_large() -> ModelSpec {
    ModelSpec::builder("bert-large")
        .hidden(1024)
        .heads(16)
        .ffn_hidden(4096)
        .vocab(30522)
        .decoder_layers(24)
        .build()
        .expect("preset is valid")
}

/// A small GPT-2-like model for fast integration tests and examples.
#[must_use]
pub fn gpt2_small() -> ModelSpec {
    ModelSpec::builder("gpt2-small")
        .hidden(768)
        .heads(12)
        .ffn_hidden(3072)
        .vocab(50257)
        .decoder_layers(12)
        .build()
        .expect("preset is valid")
}

/// A tiny model for unit tests and the miniature training engine.
#[must_use]
pub fn tiny_gpt() -> ModelSpec {
    ModelSpec::builder("tiny-gpt")
        .hidden(64)
        .heads(4)
        .ffn_hidden(256)
        .vocab(128)
        .decoder_layers(4)
        .build()
        .expect("preset is valid")
}

/// A tiny Llama-style model (grouped-query attention + SwiGLU) for tests.
#[must_use]
pub fn tiny_llama() -> ModelSpec {
    ModelSpec::builder("tiny-llama")
        .hidden(64)
        .heads(4)
        .kv_heads(2)
        .ffn_hidden(192)
        .vocab(128)
        .decoder_layers(4)
        .ffn(FfnKind::SwiGlu)
        .build()
        .expect("preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        for spec in [
            gpt3_175b(),
            gpt3_13b(),
            llama2_70b(),
            llama2_13b(),
            bert_large(),
            gpt2_small(),
            tiny_gpt(),
            tiny_llama(),
        ] {
            assert!(spec.hidden() > 0);
            assert!(spec.total_params() > 0);
        }
    }

    #[test]
    fn mid_size_presets_have_plausible_param_counts() {
        let g = gpt3_13b().total_params() as f64;
        assert!((1.2e10..1.4e10).contains(&g), "gpt3-13b = {g:.3e}");
        let l = llama2_13b().total_params() as f64;
        assert!((1.2e10..1.4e10).contains(&l), "llama2-13b = {l:.3e}");
    }

    #[test]
    fn llama_uses_gqa_and_swiglu() {
        let spec = llama2_70b();
        assert_eq!(spec.kv_heads(), 8);
        assert_eq!(spec.ffn(), FfnKind::SwiGlu);
        assert_eq!(spec.head_dim(), 128);
    }
}
