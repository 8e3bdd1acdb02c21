//! The daemon's cache of filled §5.3 class tables.
//!
//! A [`KnapsackCostProvider`](crate::KnapsackCostProvider) answers every
//! knapsack leaf of one planning instance from its isomorphism-class
//! table, whose classes group the windows of a stage by layer contents.
//! What a leaf reads — the unit profiles of its window, the static
//! bytes of its layers and the per-stage activation budget — and the
//! classes themselves are fixed by the profile table, the layer
//! sequence, the memory model and the search capacity; the micro-batch
//! count `n` never enters. So plans of one instance that differ only in
//! global batch can share one filled table, and a later plan then runs
//! no knapsack leaf at all.
//!
//! A [`ClassTables`] value holds those tables, keyed by
//! [`instance_digest`], one SHA-256 over everything a leaf reads. The
//! serve daemon owns one and hands it to every request's planner
//! (`Planner::with_class_tables` in the `adapipe` crate); one-shot
//! planners keep a private table per plan.
//!
//! Determinism law: a slot holds what a fresh solve of any window of its
//! class returns, whichever request filled it, so a shared table answers
//! exactly as a private one would and plans stay byte-identical.
//!
//! A [`ClassTables`] holds at most [`CAPACITY`] tables in one exact LRU
//! (a GPT-3 table at p = 8 is a few hundred kilobytes once filled), with
//! entries, evictions and the bytes of the class maps and slot arrays
//! published as `subcache.*` gauges by [`ClassTables::publish_gauges`].

use crate::provider::ClassTable;
use adapipe_exec::cache::Digest;
use adapipe_exec::{sha256, LruCache};
use adapipe_memory::MemoryModel;
use adapipe_model::{LayerKind, LayerSeq, UnitKind};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::ProfileTable;
use adapipe_units::{convert, Bytes};
use std::sync::Arc;

/// Tables held at once. The daemon's paper-scale traffic plans four
/// instances over and over (`perfbench` `serve-mixed`), and every
/// table held costs resident memory on a stream of one-off instances
/// (`serve-paper-miss`).
pub const CAPACITY: usize = 8;

/// Filled class tables of up to [`CAPACITY`] planning instances,
/// shared by the providers that are handed this value.
#[derive(Debug)]
pub struct ClassTables {
    tables: LruCache<Digest, ClassTable>,
}

impl Default for ClassTables {
    fn default() -> Self {
        ClassTables {
            tables: LruCache::new(CAPACITY),
        }
    }
}

impl ClassTables {
    /// The table of the instance. Its first request builds it whole,
    /// every slot empty, and inserts it.
    pub(crate) fn table_for(
        &self,
        seq: &LayerSeq,
        table: &ProfileTable,
        mem: &MemoryModel,
        capacity: Bytes,
    ) -> Arc<ClassTable> {
        let key = instance_digest(seq, table, mem, capacity);
        if let Some(classes) = self.tables.get(&key) {
            return classes;
        }
        let classes = Arc::new(ClassTable::new(seq, table, mem.parallel().pipeline()));
        self.tables
            .insert(key, Arc::clone(&classes), classes.bytes());
        classes
    }

    /// Publishes the cache's state as the `subcache.entries`,
    /// `subcache.evictions` and `subcache.bytes` gauges.
    pub fn publish_gauges(&self, rec: &Recorder) {
        let tables = &self.tables;
        rec.gauge(keys::SUBCACHE_ENTRIES, convert::count_f64(tables.len()));
        rec.gauge(
            keys::SUBCACHE_EVICTIONS,
            convert::u64_f64(tables.evictions()),
        );
        rec.gauge(keys::SUBCACHE_BYTES, convert::u64_f64(tables.bytes()));
    }
}

/// The digest of everything a knapsack leaf of this instance reads: the
/// search capacity, boundary bytes, dtype and optimizer bytes, `t`, `d`
/// and `p`, and per layer its kind, parameter count and the bit-exact
/// unit profiles (unit kinds, forward/backward times and saved sizes —
/// not the layer index a unit records). The micro-batch count is not
/// an input, so plans that differ only in global batch share a digest.
#[must_use]
pub fn instance_digest(
    seq: &LayerSeq,
    table: &ProfileTable,
    mem: &MemoryModel,
    capacity: Bytes,
) -> Digest {
    let (model, parallel, optimizer) = (mem.model(), mem.parallel(), mem.optimizer());
    let mut bytes = Vec::with_capacity(128 + table.num_layers() * 160);
    bytes.extend_from_slice(b"adapipe-classes-v1");
    for word in [
        capacity.get(),
        table.boundary_bytes().get(),
        convert::usize_u64(model.dtype_bytes()),
        optimizer.state_bytes_per_param,
        optimizer.master_bytes_per_param,
        optimizer.grad_bytes_per_param,
        convert::usize_u64(parallel.tensor()),
        convert::usize_u64(parallel.data()),
        convert::usize_u64(parallel.pipeline()),
        convert::usize_u64(seq.len()),
        convert::usize_u64(table.num_layers()),
    ] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for (l, layer) in seq.iter().enumerate() {
        bytes.push(layer_tag(layer.kind));
        bytes.extend_from_slice(&model.layer_params(layer.kind).to_le_bytes());
        let units = table.layer_units(l);
        bytes.extend_from_slice(&convert::usize_u64(units.len()).to_le_bytes());
        for u in units {
            bytes.push(unit_tag(u.unit.kind));
            bytes.extend_from_slice(&u.time_f.as_micros().to_bits().to_le_bytes());
            bytes.extend_from_slice(&u.time_b.as_micros().to_bits().to_le_bytes());
            bytes.extend_from_slice(&u.mem_saved.get().to_le_bytes());
        }
    }
    sha256(&bytes)
}

/// A stable one-byte tag per [`LayerKind`] for the canonical encoding
/// (enum discriminants are not a stable wire format).
fn layer_tag(kind: LayerKind) -> u8 {
    match kind {
        LayerKind::Embedding => 0,
        LayerKind::Attention => 1,
        LayerKind::FeedForward => 2,
        LayerKind::DecodingHead => 3,
    }
}

/// A stable one-byte tag per [`UnitKind`].
fn unit_tag(kind: UnitKind) -> u8 {
    match kind {
        UnitKind::Embedding => 0,
        UnitKind::AttnNorm => 1,
        UnitKind::QProj => 2,
        UnitKind::KProj => 3,
        UnitKind::VProj => 4,
        UnitKind::CoreAttention => 5,
        UnitKind::OutProj => 6,
        UnitKind::FfnNorm => 7,
        UnitKind::FfnFc1 => 8,
        UnitKind::FfnAct => 9,
        UnitKind::FfnFc2 => 10,
        UnitKind::FfnGate => 11,
        UnitKind::FfnUp => 12,
        UnitKind::FfnActGated => 13,
        UnitKind::FfnDown => 14,
        UnitKind::DecodingHead => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_memory::OptimizerSpec;
    use adapipe_model::{presets, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;
    use adapipe_units::MicroSecs;

    struct Instance {
        seq: LayerSeq,
        table: ProfileTable,
        mem: MemoryModel,
    }

    fn gpt2(t: usize, p: usize, d: usize, global_batch: usize) -> Instance {
        let (model, parallel) = (presets::gpt2_small(), ParallelConfig::new(t, p, d).unwrap());
        let train = TrainConfig::new(1, 1024, global_batch).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        Instance { seq, table, mem }
    }

    fn digest(i: &Instance, capacity: Bytes) -> Digest {
        instance_digest(&i.seq, &i.table, &i.mem, capacity)
    }

    #[test]
    fn key_depends_on_budget_config_and_content() {
        let base = gpt2(2, 4, 1, 32);
        let cap = Bytes::from_gib(70);
        let key = digest(&base, cap);
        // Global batch (so n) is not an input.
        assert_eq!(key, digest(&gpt2(2, 4, 1, 64), cap));
        // Every single input is: capacity, p, t, d, the optimizer, ...
        assert_ne!(key, digest(&base, Bytes::new(cap.get() + 1)));
        assert_ne!(key, digest(&base, Bytes::new(cap.get() - 1)));
        for other in [gpt2(2, 2, 1, 32), gpt2(4, 4, 1, 32), gpt2(2, 4, 2, 64)] {
            assert_ne!(key, digest(&other, cap));
        }
        let parallel = *base.mem.parallel();
        let accum = OptimizerSpec::adam_fp32_grad_accum();
        let accum = MemoryModel::new(base.mem.model().clone(), parallel, accum);
        assert_ne!(key, instance_digest(&base.seq, &base.table, &accum, cap));
        // ... one bit of one unit's `time_b`, and the boundary bytes.
        let remeasured = |flip: u64, boundary: u64| {
            let per_layer = (0..base.table.num_layers())
                .map(|l| {
                    let mut units = base.table.layer_units(l).to_vec();
                    if l == 9 {
                        let b = units[0].time_b.as_micros().to_bits();
                        units[0].time_b = MicroSecs::new(f64::from_bits(b ^ flip));
                    }
                    units
                })
                .collect();
            let boundary = base
                .table
                .boundary_bytes()
                .saturating_add(Bytes::new(boundary));
            let table = ProfileTable::from_measurements(per_layer, boundary).unwrap();
            instance_digest(&base.seq, &table, &base.mem, cap)
        };
        assert_eq!(key, remeasured(0, 0));
        assert_ne!(key, remeasured(1, 0));
        assert_ne!(key, remeasured(0, 1));
    }

    #[test]
    fn store_and_lookup_round_trip_with_accounting() {
        let i = gpt2(2, 4, 1, 32);
        let cap = Bytes::from_gib(80);
        let tables = ClassTables::default();
        let first = tables.table_for(&i.seq, &i.table, &i.mem, cap);
        let again = tables.table_for(&i.seq, &i.table, &i.mem, cap);
        assert!(Arc::ptr_eq(&first, &again), "one table per instance");
        let stats = tables.tables.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(tables.tables.bytes(), first.bytes());
        assert!(first.bytes() > 0);
        let rec = Recorder::new();
        tables.publish_gauges(&rec);
        let gauges = rec.snapshot().gauges;
        assert_eq!(gauges.get(keys::SUBCACHE_ENTRIES), Some(&1.0));
        assert_eq!(gauges.get(keys::SUBCACHE_EVICTIONS), Some(&0.0));
    }

    #[test]
    fn two_caches_never_share_a_table() {
        let i = gpt2(2, 4, 1, 32);
        let cap = Bytes::from_gib(80);
        let (a, b) = (ClassTables::default(), ClassTables::default());
        let from_a = a.table_for(&i.seq, &i.table, &i.mem, cap);
        let from_b = b.table_for(&i.seq, &i.table, &i.mem, cap);
        assert!(!Arc::ptr_eq(&from_a, &from_b));
        assert!(Arc::ptr_eq(
            &from_a,
            &a.table_for(&i.seq, &i.table, &i.mem, cap)
        ));
    }
}
