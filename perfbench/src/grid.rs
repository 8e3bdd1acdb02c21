//! The paper-scale request grid and the seeded streams drawn from it.
//!
//! Every workload plans the same four configurations on cluster A
//! (8 DGX-A100 nodes): GPT-3 175B at (t, p, d) = (8, 8, 1) with
//! sequence 4096, 8192 and 16384, and Llama 2 70B at (4, 8, 1) with
//! sequence 4096. Three GPT-3 configs to one Llama config keep the
//! median among the GPT-3 plans and the upper tail among the slower
//! Llama plans.

use adapipe_serve::PlanRequest;

/// One grid configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Stable name used in manifests and counter lines.
    pub name: &'static str,
    /// Model name of the request wire format.
    pub model: &'static str,
    /// Tensor-parallel degree.
    pub tensor: usize,
    /// Sequence length.
    pub seq: usize,
}

/// Pipeline depth of every grid config.
pub const PIPELINE: usize = 8;

/// Global batch of the grid's base requests (n = 32 micro-batches).
pub const GLOBAL_BATCH: usize = 32;

/// The grid, GPT-3 configs first.
pub const GRID: [Config; 4] = [
    Config {
        name: "gpt3-s4096",
        model: "gpt3",
        tensor: 8,
        seq: 4096,
    },
    Config {
        name: "gpt3-s8192",
        model: "gpt3",
        tensor: 8,
        seq: 8192,
    },
    Config {
        name: "gpt3-s16384",
        model: "gpt3",
        tensor: 8,
        seq: 16384,
    },
    Config {
        name: "llama2-s4096",
        model: "llama2",
        tensor: 4,
        seq: 4096,
    },
];

/// Index of the Llama config, the class the cold tails fall in.
pub const LLAMA: usize = 3;

impl Config {
    /// The plan request for this config at `global_batch` and `headroom`.
    pub fn request(&self, global_batch: usize, headroom: f64) -> PlanRequest {
        PlanRequest {
            model: self.model.to_string(),
            headroom,
            ..PlanRequest::new(self.tensor, PIPELINE, self.seq, global_batch)
        }
    }

    /// The base request: global batch 32, default headroom.
    pub fn base(&self) -> PlanRequest {
        self.request(GLOBAL_BATCH, adapipe_serve::DEFAULT_HEADROOM)
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed
/// alone and on nothing the program under test could change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The cold workloads' block of grid indices: three GPT-3 plans to one
/// Llama plan, with seq 16384 weighted so the median falls inside one
/// config's latency band (GPT-3 4k < 16k < 8k < Llama on the reference
/// VM) rather than in the gap between two, and the p80 tail inside the
/// Llama band.
pub const COLD_MIX: [usize; 8] = [0, 0, 1, 2, 2, 2, LLAMA, LLAMA];

/// A seeded rotation over a block of indices: each block of draws is a
/// fresh permutation of it, so every prefix holds each index in the
/// block's proportion up to one incomplete block.
#[derive(Debug, Clone)]
pub struct Rotation {
    rng: Rng,
    mix: Vec<usize>,
    block: Vec<usize>,
}

impl Rotation {
    pub fn new(rng: Rng, mix: &[usize]) -> Self {
        Rotation {
            rng,
            mix: mix.to_vec(),
            block: Vec::new(),
        }
    }

    pub fn next(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = self.mix.clone();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().unwrap_or(0)
    }
}

/// Distinct headrooms from the narrow band `[0.85, 0.87)` below the
/// 0.875 default: a seeded permutation of 2000 steps of 1e-5 (about
/// 0.8 MB of device memory each), so no two requests of a run share a
/// memory budget, and hence no knapsack leaf.
#[derive(Debug, Clone)]
pub struct HeadroomBand {
    order: Vec<usize>,
    next: usize,
}

impl HeadroomBand {
    pub const STEPS: usize = 2000;

    pub fn new(mut rng: Rng) -> Self {
        let mut order: Vec<usize> = (0..Self::STEPS).collect();
        rng.shuffle(&mut order);
        HeadroomBand { order, next: 0 }
    }

    /// The next unused headroom, or `None` once the band is exhausted.
    pub fn next(&mut self) -> Option<f64> {
        let step = *self.order.get(self.next)?;
        self.next += 1;
        Some(0.85 + 1e-5 * step as f64)
    }
}

/// The `serve-mixed` misses: a seeded permutation of every pair of a
/// grid config and a global batch in `FIRST..FIRST + STEPS`, read in
/// order and cycled. Every miss's n stays in this one band however many
/// requests a run completes. The 1600 pairs outnumber the daemon's
/// default 1024-plan cache: before a pair comes round again, each of
/// the cache's 8 LRU shards has taken ~200 newer misses into its 128
/// slots, so the pair has been evicted and misses again.
#[derive(Debug, Clone)]
pub struct MissBand {
    pairs: Vec<(usize, usize)>,
}

impl MissBand {
    pub const FIRST: usize = 200;
    pub const STEPS: usize = 400;

    pub fn new(mut rng: Rng) -> Self {
        let mut pairs: Vec<(usize, usize)> = (0..GRID.len())
            .flat_map(|cfg| (0..Self::STEPS).map(move |step| (cfg, Self::FIRST + step)))
            .collect();
        rng.shuffle(&mut pairs);
        MissBand { pairs }
    }

    /// The `k`-th miss: a grid index and a global batch.
    pub fn get(&self, k: usize) -> (usize, usize) {
        self.pairs[k % self.pairs.len()]
    }
}
