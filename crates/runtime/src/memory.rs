//! GPU memory management for the virtual-time executor.
//!
//! Real runs at the paper's sizes (a 172 800² f64 POTRF is ~239 GB) far
//! exceed a 40 GB HBM, so StarPU continuously evicts and re-fetches tile
//! replicas. This module models that: every GPU has a capacity-limited
//! resident set; making room evicts least-recently-used, unpinned replicas,
//! with a device-to-host writeback when the GPU holds the sole valid copy.
//! Operands of queued-but-not-yet-executed tasks are pinned and never
//! evicted.

use crate::data::{DataId, DataRegistry, MemNode};
use ugpc_hwsim::Bytes;

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: Bytes,
    last_use: u64,
    pins: u32,
    /// Position of this id in [`GpuMemory::ids`].
    pos: usize,
}

/// The resident set of one GPU's device memory.
#[derive(Debug, Clone)]
pub struct GpuMemory {
    device: usize,
    capacity: Bytes,
    used: Bytes,
    /// Resident replicas, indexed by the dense [`DataId`] (grown on
    /// demand).
    resident: Vec<Option<Entry>>,
    /// The resident ids, unordered, so a victim search visits only what
    /// is resident rather than every handle ever seen.
    ids: Vec<DataId>,
    clock: u64,
    /// Replicas dropped to make room.
    pub evictions: usize,
    /// Evictions that required writing the sole copy back to host.
    pub writebacks: usize,
    /// Set when a task's own operands exceed capacity even after evicting
    /// everything else — the model then over-subscribes rather than
    /// deadlocking (and reports it).
    pub over_subscribed: bool,
}

impl GpuMemory {
    pub fn new(device: usize, capacity: Bytes) -> Self {
        assert!(capacity > Bytes::ZERO);
        GpuMemory {
            device,
            capacity,
            used: Bytes::ZERO,
            resident: Vec::new(),
            ids: Vec::new(),
            clock: 0,
            evictions: 0,
            writebacks: 0,
            over_subscribed: false,
        }
    }

    pub fn device(&self) -> usize {
        self.device
    }

    pub fn used(&self) -> Bytes {
        self.used
    }

    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    pub fn is_resident(&self, id: DataId) -> bool {
        self.entry(id).is_some()
    }

    fn entry(&self, id: DataId) -> Option<&Entry> {
        self.resident.get(id)?.as_ref()
    }

    fn entry_mut(&mut self, id: DataId) -> Option<&mut Entry> {
        self.resident.get_mut(id)?.as_mut()
    }

    /// Drop `id` from the resident set, returning its entry.
    fn remove(&mut self, id: DataId) -> Option<Entry> {
        let e = self.resident.get_mut(id)?.take()?;
        self.ids.swap_remove(e.pos);
        if let Some(&moved) = self.ids.get(e.pos) {
            if let Some(m) = self.entry_mut(moved) {
                m.pos = e.pos;
            }
        }
        self.used -= e.bytes;
        Some(e)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Mark a replica resident (after a transfer or an allocation for a
    /// write) and update its recency. Idempotent on already-resident ids.
    pub fn note_resident(&mut self, id: DataId, bytes: Bytes) {
        let t = self.tick();
        if let Some(e) = self.entry_mut(id) {
            e.last_use = t;
        } else {
            if self.resident.len() <= id {
                self.resident.resize(id + 1, None);
            }
            self.resident[id] = Some(Entry {
                bytes,
                last_use: t,
                pins: 0,
                pos: self.ids.len(),
            });
            self.ids.push(id);
            self.used += bytes;
        }
        self.assert_accounting();
    }

    /// Pin a resident replica (operand of a queued task).
    pub fn pin(&mut self, id: DataId) {
        self.entry_mut(id)
            .expect("pinning a non-resident replica")
            .pins += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, id: DataId) {
        if let Some(e) = self.entry_mut(id) {
            debug_assert!(e.pins > 0, "unpin without pin");
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Drop a replica if present (invalidated by a remote write). Must not
    /// be pinned — dependency order guarantees readers completed.
    pub fn drop_if_present(&mut self, id: DataId) {
        if let Some(e) = self.remove(id) {
            debug_assert_eq!(e.pins, 0, "dropping a pinned replica");
        }
        self.assert_accounting();
    }

    /// Evict least-recently-used unpinned replicas until `incoming` new
    /// bytes fit. Returns the evicted ids with a flag for those needing a
    /// writeback (sole valid copy). The caller performs the registry
    /// invalidation and schedules the writeback transfers.
    pub fn make_room(&mut self, incoming: Bytes, reg: &DataRegistry) -> Vec<(DataId, bool)> {
        let mut out = Vec::new();
        while self.used + incoming > self.capacity {
            // `last_use` ticks are unique today (one per touch), but the
            // id tie-break keeps victim selection independent of the
            // order of `ids` (which removals permute) even if that ever
            // changes — eviction order feeds the simulated transfer
            // schedule, which must be bit-stable across runs.
            let victim = self
                .ids
                .iter()
                .filter_map(|&id| Some((id, self.entry(id)?)))
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|&(id, e)| (e.last_use, id))
                .map(|(id, _)| id);
            let Some(id) = victim else {
                self.over_subscribed = true;
                break;
            };
            self.remove(id).expect("victim is resident");
            let writeback = reg.is_sole_owner(id, MemNode::Gpu(self.device));
            self.evictions += 1;
            if writeback {
                self.writebacks += 1;
            }
            out.push((id, writeback));
        }
        self.assert_accounting();
        out
    }

    /// Sanitizer: `used` must equal the sum of resident entries and never
    /// exceed capacity unless the over-subscription escape hatch fired.
    /// Compiles to nothing without the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    fn assert_accounting(&self) {
        let sum: Bytes = self.resident.iter().flatten().map(|e| e.bytes).sum();
        assert_eq!(
            self.ids.len(),
            self.resident.iter().flatten().count(),
            "sanitize: gpu {} resident list out of step with the resident set",
            self.device
        );
        let drift = (sum - self.used).abs();
        assert!(
            drift <= Bytes(1e-6) + sum * 1e-12,
            "sanitize: gpu {} accounting drift: used {:?} vs resident sum {:?}",
            self.device,
            self.used,
            sum
        );
        assert!(
            self.used <= self.capacity || self.over_subscribed,
            "sanitize: gpu {} resident set {:?} exceeds capacity {:?} without \
             over-subscription being reported",
            self.device,
            self.used,
            self.capacity
        );
    }

    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn assert_accounting(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(n: usize) -> DataRegistry {
        let mut reg = DataRegistry::new();
        for _ in 0..n {
            reg.register(Bytes(100.0));
        }
        reg
    }

    #[test]
    fn resident_accounting() {
        let mut m = GpuMemory::new(0, Bytes(250.0));
        m.note_resident(0, Bytes(100.0));
        m.note_resident(1, Bytes(100.0));
        assert_eq!(m.used(), Bytes(200.0));
        assert!(m.is_resident(0));
        // Re-noting does not double count.
        m.note_resident(0, Bytes(100.0));
        assert_eq!(m.used(), Bytes(200.0));
    }

    #[test]
    fn lru_eviction_order() {
        let reg = reg_with(3);
        let mut m = GpuMemory::new(0, Bytes(250.0));
        m.note_resident(0, Bytes(100.0));
        m.note_resident(1, Bytes(100.0));
        // Touch 0 so 1 becomes LRU.
        m.note_resident(0, Bytes(100.0));
        let evicted = m.make_room(Bytes(100.0), &reg);
        assert_eq!(evicted, vec![(1, false)]); // host still valid: no writeback
        assert!(!m.is_resident(1));
        assert_eq!(m.used(), Bytes(100.0));
        assert_eq!(m.evictions, 1);
        assert_eq!(m.writebacks, 0);
    }

    #[test]
    fn sole_owner_needs_writeback() {
        let mut reg = reg_with(1);
        reg.write_at(0, MemNode::Gpu(0)); // GPU 0 sole owner
        let mut m = GpuMemory::new(0, Bytes(100.0));
        m.note_resident(0, Bytes(100.0));
        let evicted = m.make_room(Bytes(100.0), &reg);
        assert_eq!(evicted, vec![(0, true)]);
        assert_eq!(m.writebacks, 1);
    }

    #[test]
    fn pinned_replicas_survive() {
        let reg = reg_with(2);
        let mut m = GpuMemory::new(0, Bytes(200.0));
        m.note_resident(0, Bytes(100.0));
        m.note_resident(1, Bytes(100.0));
        m.pin(0);
        let evicted = m.make_room(Bytes(100.0), &reg);
        // Only the unpinned one goes.
        assert_eq!(evicted, vec![(1, false)]);
        // Pinning everything and asking for more over-subscribes.
        m.pin(0); // second pin
        let evicted = m.make_room(Bytes(150.0), &reg);
        assert!(evicted.is_empty());
        assert!(m.over_subscribed);
        // Unpinning twice releases the entry for future eviction.
        m.unpin(0);
        m.unpin(0);
        m.over_subscribed = false;
        let evicted = m.make_room(Bytes(150.0), &reg);
        assert_eq!(evicted.len(), 1);
    }

    #[test]
    fn remote_write_drops_replica() {
        let mut m = GpuMemory::new(0, Bytes(200.0));
        m.note_resident(0, Bytes(100.0));
        m.drop_if_present(0);
        assert!(!m.is_resident(0));
        assert_eq!(m.used(), Bytes(0.0));
        // Dropping an absent id is a no-op.
        m.drop_if_present(42);
    }
}
