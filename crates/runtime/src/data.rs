//! Data handles and replica tracking.
//!
//! Each tile of a matrix is registered as a data handle. During execution
//! the runtime tracks which memory nodes (host RAM, each GPU's HBM) hold a
//! valid replica — an MSI-like protocol: reads create shared replicas,
//! writes invalidate all other copies. The scheduler's transfer estimates
//! and the simulator's DMA engine both consult this state.
//!
//! A handle keeps its replica set twice: as a `u64` mask of node bits
//! ([`MemNode::index`]), which every membership query and the
//! schedulers' costing read, and as the list of nodes in the order they
//! gained their replica, which only [`DataRegistry::transfer_source`]
//! needs (the GPU that has held a replica longest). Every mutator keeps
//! the two in step, and debug builds check that on each call.

use crate::inline::InlineVec;
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Bytes, HwError, HwResult};

pub type DataId = usize;

/// A memory node of the heterogeneous platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemNode {
    Host,
    Gpu(usize),
}

impl MemNode {
    pub fn is_gpu(self) -> bool {
        matches!(self, MemNode::Gpu(_))
    }

    /// The node's index among memory nodes, and its bit in a replica
    /// mask: the host is 0, GPU `g` is `g + 1`.
    pub fn index(self) -> usize {
        match self {
            MemNode::Host => 0,
            MemNode::Gpu(g) => g + 1,
        }
    }

    /// The node's replica-mask bit, or 0 for a node past bit 63, which
    /// no handle can be held at.
    fn bit(self) -> u64 {
        match self.index() {
            i @ 0..=63 => 1 << i,
            _ => 0,
        }
    }

    /// The node's replica-mask bit, for a mutator.
    ///
    /// # Panics
    ///
    /// If the node is past bit 63 (GPU 63 or later).
    fn held_bit(self) -> u64 {
        let bit = self.bit();
        assert!(
            bit != 0,
            "memory node {self:?} is past the 64-node replica mask"
        );
        bit
    }
}

/// Registry of all data handles of an application run.
#[derive(Debug, Clone, Default)]
pub struct DataRegistry {
    handles: Vec<DataState>,
}

/// Replica state of one handle.
#[derive(Debug, Clone)]
pub struct DataState {
    bytes: Bytes,
    /// The nodes of `valid` as a mask: bit [`MemNode::index`] of each.
    held: u64,
    /// Memory nodes currently holding a valid replica, in the order they
    /// gained it. Never empty. Held in place up to three nodes (the host
    /// and both GPUs of a two-GPU node), so registering a tile or cloning
    /// a registry allocates nothing per handle.
    valid: InlineVec<MemNode, 3>,
}

impl DataState {
    /// The mask `valid` spells, which `held` must equal.
    fn mask_of_list(&self) -> u64 {
        self.valid.iter().fold(0, |m, &n| m | n.bit())
    }

    /// Debug builds: the mask and the list name the same nodes.
    fn debug_check(&self, id: DataId) {
        debug_assert_eq!(
            self.held,
            self.mask_of_list(),
            "handle {id}: replica mask disagrees with its list {:?}",
            self.valid
        );
    }
}

impl DataRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `additional` more registrations.
    pub fn reserve(&mut self, additional: usize) {
        self.handles.reserve(additional);
    }

    /// Register a handle whose initial valid copy lives in host memory
    /// (`starpu_matrix_data_register` on a host buffer).
    pub fn register(&mut self, bytes: Bytes) -> DataId {
        let id = self.handles.len();
        let mut valid = InlineVec::new();
        valid.push(MemNode::Host);
        let st = DataState {
            bytes,
            held: MemNode::Host.bit(),
            valid,
        };
        st.debug_check(id);
        self.handles.push(st);
        id
    }

    pub fn len(&self) -> usize {
        self.handles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    fn state(&self, id: DataId) -> HwResult<&DataState> {
        self.handles.get(id).ok_or(HwError::UnknownHandle {
            id,
            count: self.handles.len(),
        })
    }

    /// Size of the handle, or [`HwError::UnknownHandle`] if `id` was never
    /// registered. The linter uses this to audit graphs against foreign
    /// registries without panicking.
    pub fn try_bytes(&self, id: DataId) -> HwResult<Bytes> {
        self.state(id).map(|st| st.bytes)
    }

    /// Checked variant of [`Self::is_valid_at`].
    pub fn try_is_valid_at(&self, id: DataId, node: MemNode) -> HwResult<bool> {
        self.state(id).map(|st| st.held & node.bit() != 0)
    }

    /// Checked variant of [`Self::valid_nodes`].
    pub fn try_valid_nodes(&self, id: DataId) -> HwResult<&[MemNode]> {
        self.state(id).map(|st| &st.valid[..])
    }

    pub fn bytes(&self, id: DataId) -> Bytes {
        match self.try_bytes(id) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Is a valid replica present at `node`?
    pub fn is_valid_at(&self, id: DataId, node: MemNode) -> bool {
        match self.try_is_valid_at(id, node) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// All nodes holding a valid replica.
    pub fn valid_nodes(&self, id: DataId) -> &[MemNode] {
        match self.try_valid_nodes(id) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// The handle's size and its replica mask (bit [`MemNode::index`] of
    /// each node holding a valid replica), from one lookup.
    pub(crate) fn held(&self, id: DataId) -> (Bytes, u64) {
        match self.state(id) {
            Ok(st) => (st.bytes, st.held),
            Err(e) => panic!("{e}"),
        }
    }

    /// Pick the transfer source for a replica needed at `dst`: prefer host
    /// (cheapest single hop from any GPU's perspective and always reachable),
    /// otherwise the GPU that has held its replica longest — whose
    /// copy-out engine the transfer then occupies.
    ///
    /// Returns `None` when `dst` already holds a valid copy.
    pub fn transfer_source(&self, id: DataId, dst: MemNode) -> Option<MemNode> {
        let st = &self.handles[id];
        if st.held & dst.bit() != 0 {
            return None;
        }
        debug_assert!(!st.valid.is_empty(), "handle {id} has no valid replica");
        if st.held & MemNode::Host.bit() != 0 {
            Some(MemNode::Host)
        } else {
            st.valid.first().copied()
        }
    }

    /// Record that a replica has been copied to `node` (read sharing).
    pub fn add_replica(&mut self, id: DataId, node: MemNode) {
        let bit = node.held_bit();
        let st = &mut self.handles[id];
        if st.held & bit == 0 {
            st.valid.push(node);
            st.held |= bit;
        }
        st.debug_check(id);
    }

    /// Record a write at `node`: all other replicas become invalid.
    pub fn write_at(&mut self, id: DataId, node: MemNode) {
        let bit = node.held_bit();
        let st = &mut self.handles[id];
        st.valid.clear();
        st.valid.push(node);
        st.held = bit;
        st.debug_check(id);
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(
            self.handles[id].valid[..],
            [node],
            "write must leave exactly the writing node valid"
        );
    }

    /// Drop the replica at `node` (eviction). The handle must remain valid
    /// somewhere else — evicting a sole owner requires a writeback first.
    pub fn invalidate_at(&mut self, id: DataId, node: MemNode) {
        let bit = node.held_bit();
        let st = &mut self.handles[id];
        st.valid.retain(|&n| n != node);
        st.held &= !bit;
        st.debug_check(id);
        assert!(
            !st.valid.is_empty(),
            "evicted the sole replica of handle {id}; write it back first"
        );
    }

    /// Is `node` the only holder of a valid replica (eviction needs a
    /// writeback)?
    pub fn is_sole_owner(&self, id: DataId, node: MemNode) -> bool {
        self.handles[id].held == node.bit()
    }

    /// Bytes of the task's operands already resident at `node` — the
    /// locality score dmdas uses to break ties.
    pub fn resident_bytes(&self, ids: impl Iterator<Item = DataId>, node: MemNode) -> Bytes {
        let bit = node.bit();
        let mut total = Bytes::ZERO;
        for id in ids {
            let (bytes, held) = self.held(id);
            if held & bit != 0 {
                total += bytes;
            }
        }
        total
    }

    /// Assert the MSI-like coherence invariants over every handle: the
    /// valid set is never empty, holds no duplicate nodes, and its mask
    /// names the same nodes as its list. Only
    /// compiled under the `sanitize` feature; the simulator calls it at
    /// checkpoints.
    #[cfg(feature = "sanitize")]
    pub fn assert_coherent(&self) {
        for (id, st) in self.handles.iter().enumerate() {
            assert!(
                !st.valid.is_empty(),
                "sanitize: handle {id} has no valid replica"
            );
            for (i, a) in st.valid.iter().enumerate() {
                assert!(
                    !st.valid[i + 1..].contains(a),
                    "sanitize: handle {id} lists replica {a:?} twice"
                );
            }
            assert_eq!(
                st.held,
                st.mask_of_list(),
                "sanitize: handle {id}'s replica mask disagrees with its list {:?}",
                st.valid
            );
            assert!(
                st.bytes.is_valid(),
                "sanitize: handle {id} has invalid byte size {:?}",
                st.bytes
            );
        }
    }

    /// Reset all handles to host-only validity (between measured runs).
    pub fn reset_to_host(&mut self) {
        for (id, st) in self.handles.iter_mut().enumerate() {
            st.valid.clear();
            st.valid.push(MemNode::Host);
            st.held = MemNode::Host.bit();
            st.debug_check(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The host, GPUs 0 to 4, and a GPU past the mask.
    const NODES: [MemNode; 7] = [
        MemNode::Host,
        MemNode::Gpu(0),
        MemNode::Gpu(1),
        MemNode::Gpu(2),
        MemNode::Gpu(3),
        MemNode::Gpu(4),
        MemNode::Gpu(100),
    ];

    /// Every query of `reg` against a plain list per handle.
    fn assert_matches_model(reg: &DataRegistry, model: &[(Bytes, Vec<MemNode>)]) {
        assert_eq!(reg.len(), model.len());
        for (id, (bytes, valid)) in model.iter().enumerate() {
            assert_eq!(reg.valid_nodes(id), &valid[..], "handle {id}");
            assert_eq!(reg.bytes(id), *bytes);
            for node in NODES {
                let source = if valid.contains(&node) {
                    None
                } else if valid.contains(&MemNode::Host) {
                    Some(MemNode::Host)
                } else {
                    valid.first().copied()
                };
                let at = format!("handle {id} at {node:?}, list {valid:?}");
                assert_eq!(reg.transfer_source(id, node), source, "{at}");
                assert_eq!(reg.is_valid_at(id, node), valid.contains(&node), "{at}");
                assert_eq!(reg.is_sole_owner(id, node), valid[..] == [node], "{at}");
            }
        }
        for node in NODES {
            let want = model
                .iter()
                .filter(|(_, valid)| valid.contains(&node))
                .fold(Bytes::ZERO, |total, &(b, _)| total + b);
            assert_eq!(reg.resident_bytes(0..reg.len(), node), want, "{node:?}");
        }
    }

    proptest! {
        /// Random sequences of the five mutators over up to four GPUs, so
        /// a replica list spills past its three inline slots.
        #[test]
        fn replica_masks_track_the_ordered_lists(
            ops in proptest::collection::vec((0u8..5, 0usize..4, 0usize..5), 1..80),
        ) {
            let mut reg = DataRegistry::new();
            let mut model: Vec<(Bytes, Vec<MemNode>)> = Vec::new();
            for (op, pick, node) in ops {
                let node = NODES[node];
                let id = pick % (model.len() + 1);
                match op {
                    _ if id == model.len() || op == 0 => {
                        let bytes = Bytes(8.0 * (model.len() + 1) as f64);
                        prop_assert_eq!(reg.register(bytes), model.len());
                        model.push((bytes, vec![MemNode::Host]));
                    }
                    1 => {
                        reg.add_replica(id, node);
                        if !model[id].1.contains(&node) {
                            model[id].1.push(node);
                        }
                    }
                    2 => {
                        reg.write_at(id, node);
                        model[id].1 = vec![node];
                    }
                    // The sole replica cannot be evicted.
                    3 if model[id].1[..] != [node] => {
                        reg.invalidate_at(id, node);
                        model[id].1.retain(|&n| n != node);
                    }
                    3 => {}
                    _ => {
                        reg.reset_to_host();
                        for (_, valid) in &mut model {
                            *valid = vec![MemNode::Host];
                        }
                    }
                }
                assert_matches_model(&reg, &model);
            }
        }
    }

    #[test]
    fn gpu_62_is_the_last_node_the_mask_holds() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.write_at(id, MemNode::Gpu(62));
        assert!(reg.is_sole_owner(id, MemNode::Gpu(62)));
        assert!(!reg.is_valid_at(id, MemNode::Gpu(63)));
        assert_eq!(
            reg.transfer_source(id, MemNode::Gpu(63)),
            Some(MemNode::Gpu(62))
        );
    }

    #[test]
    #[should_panic(expected = "past the 64-node replica mask")]
    fn gpu_63_panics() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.add_replica(id, MemNode::Gpu(63));
    }

    #[test]
    fn register_starts_host_valid() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(1024.0));
        assert!(reg.is_valid_at(id, MemNode::Host));
        assert!(!reg.is_valid_at(id, MemNode::Gpu(0)));
        assert_eq!(reg.bytes(id), Bytes(1024.0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn read_sharing_keeps_all_replicas() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.add_replica(id, MemNode::Gpu(0));
        reg.add_replica(id, MemNode::Gpu(1));
        assert!(reg.is_valid_at(id, MemNode::Host));
        assert!(reg.is_valid_at(id, MemNode::Gpu(0)));
        assert!(reg.is_valid_at(id, MemNode::Gpu(1)));
        // Idempotent.
        reg.add_replica(id, MemNode::Gpu(0));
        assert_eq!(reg.valid_nodes(id).len(), 3);
    }

    #[test]
    fn write_invalidates_other_replicas() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.add_replica(id, MemNode::Gpu(0));
        reg.write_at(id, MemNode::Gpu(0));
        assert!(reg.is_valid_at(id, MemNode::Gpu(0)));
        assert!(!reg.is_valid_at(id, MemNode::Host));
        assert_eq!(reg.valid_nodes(id), &[MemNode::Gpu(0)]);
    }

    #[test]
    fn transfer_source_prefers_host() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.add_replica(id, MemNode::Gpu(0));
        // Valid at host and GPU 0; GPU 1 should fetch from host.
        assert_eq!(
            reg.transfer_source(id, MemNode::Gpu(1)),
            Some(MemNode::Host)
        );
        // Already valid at GPU 0: no transfer.
        assert_eq!(reg.transfer_source(id, MemNode::Gpu(0)), None);
        // After a GPU-exclusive write, the GPU is the only source.
        reg.write_at(id, MemNode::Gpu(0));
        assert_eq!(
            reg.transfer_source(id, MemNode::Host),
            Some(MemNode::Gpu(0))
        );
        assert_eq!(
            reg.transfer_source(id, MemNode::Gpu(1)),
            Some(MemNode::Gpu(0))
        );
    }

    #[test]
    fn transfer_source_prefers_the_earliest_gpu_holder() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.write_at(id, MemNode::Gpu(2));
        reg.add_replica(id, MemNode::Gpu(0));
        assert_eq!(
            reg.transfer_source(id, MemNode::Gpu(3)),
            Some(MemNode::Gpu(2))
        );
    }

    #[test]
    fn replica_sets_past_three_nodes_keep_their_order() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        for g in [3, 1, 0, 2] {
            reg.add_replica(id, MemNode::Gpu(g));
        }
        reg.invalidate_at(id, MemNode::Host);
        reg.invalidate_at(id, MemNode::Gpu(1));
        assert_eq!(
            reg.valid_nodes(id),
            &[MemNode::Gpu(3), MemNode::Gpu(0), MemNode::Gpu(2)]
        );
        assert_eq!(
            reg.transfer_source(id, MemNode::Host),
            Some(MemNode::Gpu(3))
        );
        reg.write_at(id, MemNode::Gpu(0));
        assert_eq!(reg.valid_nodes(id), &[MemNode::Gpu(0)]);
    }

    #[test]
    fn resident_bytes_scores_locality() {
        let mut reg = DataRegistry::new();
        let a = reg.register(Bytes(100.0));
        let b = reg.register(Bytes(10.0));
        let c = reg.register(Bytes(1.0));
        reg.add_replica(a, MemNode::Gpu(0));
        reg.add_replica(c, MemNode::Gpu(0));
        let score = reg.resident_bytes([a, b, c].into_iter(), MemNode::Gpu(0));
        assert_eq!(score, Bytes(101.0));
        let score_host = reg.resident_bytes([a, b, c].into_iter(), MemNode::Host);
        assert_eq!(score_host, Bytes(111.0));
    }

    #[test]
    fn invalidate_drops_one_replica() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.add_replica(id, MemNode::Gpu(0));
        assert!(!reg.is_sole_owner(id, MemNode::Gpu(0)));
        reg.invalidate_at(id, MemNode::Gpu(0));
        assert!(!reg.is_valid_at(id, MemNode::Gpu(0)));
        assert!(reg.is_valid_at(id, MemNode::Host));
        assert!(reg.is_sole_owner(id, MemNode::Host));
    }

    #[test]
    #[should_panic(expected = "sole replica")]
    fn evicting_sole_owner_panics() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.write_at(id, MemNode::Gpu(1));
        reg.invalidate_at(id, MemNode::Gpu(1));
    }

    #[test]
    fn reset_to_host_restores_initial_state() {
        let mut reg = DataRegistry::new();
        let id = reg.register(Bytes(8.0));
        reg.write_at(id, MemNode::Gpu(1));
        reg.reset_to_host();
        assert_eq!(reg.valid_nodes(id), &[MemNode::Host]);
    }
}
