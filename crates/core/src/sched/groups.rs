//! Mask groups: how clusters wider than one [`RackMask`] are addressed.
//!
//! A group is a contiguous partition (rack) range of at most
//! [`RackMask::MAX_RACKS`] racks; mask bit `i` inside group `g` refers to
//! partition `start(g) + i`. The layout is computed from the cluster size
//! alone: `ceil(n / MAX_RACKS)` evenly sized groups.
//!
//! On clusters that fit a single mask (≤ 128 racks — every corpus scenario)
//! there is one group spanning every rack and local coordinates equal
//! global coordinates. On larger clusters each job is *homed* to one group
//! (see [`MaskGroups::home_group`]) and its placement options are
//! enumerated against that group's local mask space only, so a gang is
//! planned inside one group. A gang wider than every group can therefore
//! never run; the compile stage cancels it in the first cycle that considers
//! it instead of leaving it pending forever.

use crate::sched::feasibility::mask_capacity;
use crate::sched::options::RackMask;
use threesigma_cluster::{ClusterSpec, JobSpec, PartitionId};

/// Deterministic partition-to-group layout for one cluster size.
///
/// Groups are contiguous, cover every partition exactly once, and are sized
/// as evenly as possible (larger groups first), so the layout is a pure
/// function of `num_partitions`.
#[derive(Debug, Clone)]
pub struct MaskGroups {
    num_partitions: usize,
    /// `(start, len)` per group, in ascending partition order.
    groups: Vec<(usize, usize)>,
}

impl MaskGroups {
    /// Builds the layout for `num_partitions` racks: exactly
    /// `ceil(num_partitions / MAX_RACKS)` groups, so every group fits a
    /// `RackMask` and a cluster that fits one mask gets one group.
    pub fn new(num_partitions: usize) -> Self {
        let n = num_partitions.max(1);
        let num_groups = n.div_ceil(RackMask::MAX_RACKS);
        let base = n / num_groups;
        let rem = n % num_groups;
        let mut groups = Vec::with_capacity(num_groups);
        let mut start = 0;
        for g in 0..num_groups {
            let len = base + usize::from(g < rem);
            groups.push((start, len));
            start += len;
        }
        debug_assert_eq!(start, n, "groups must tile the cluster");
        Self {
            num_partitions: n,
            groups,
        }
    }

    /// Number of mask groups (1 on every ≤128-rack cluster).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// `(start, len)` of group `g` in global partition coordinates.
    pub fn group_range(&self, g: usize) -> (usize, usize) {
        self.groups[g]
    }

    /// The group containing global partition `p`.
    pub fn group_of(&self, p: PartitionId) -> usize {
        debug_assert!(p.index() < self.num_partitions, "partition out of range");
        // Group 0 starts at partition 0, so at least one start is ≤ p.
        self.groups
            .partition_point(|&(start, _)| start <= p.index())
            - 1
    }

    /// Nodes in group `g` of `cluster` (static capacity, faults ignored).
    pub fn group_capacity(&self, g: usize, cluster: &ClusterSpec) -> u32 {
        let (start, len) = self.group_range(g);
        mask_capacity(cluster, start, len, RackMask::all(len))
    }

    /// The group a job's options are enumerated in. The first choice is the
    /// group of its first preferred rack, else a deterministic spread by job
    /// id; from there groups are probed forward cyclically for the first
    /// whose capacity holds the whole gang, so a job that fits its first
    /// choice keeps it. A gang wider than every group gets its first choice,
    /// where every option is over capacity and the compile stage cancels it.
    pub fn home_group(&self, spec: &JobSpec, cluster: &ClusterSpec) -> usize {
        let n = self.groups.len();
        if n == 1 {
            return 0;
        }
        let first = spec
            .preferred
            .as_ref()
            .and_then(|ps| ps.first())
            .filter(|p| p.index() < self.num_partitions)
            .map_or((spec.id.0 % n as u64) as usize, |p| self.group_of(*p));
        (0..n)
            .map(|k| (first + k) % n)
            .find(|&g| self.group_capacity(g, cluster) >= spec.tasks)
            .unwrap_or(first)
    }

    /// Global partition → group-local mask bit (caller guarantees membership).
    pub fn to_local(&self, g: usize, p: PartitionId) -> usize {
        let (start, len) = self.group_range(g);
        debug_assert!(
            p.index() >= start && p.index() < start + len,
            "partition {p:?} outside group {g}"
        );
        p.index() - start
    }

    /// Group-local mask bit → global partition.
    pub fn to_global(&self, g: usize, local: usize) -> PartitionId {
        let (start, len) = self.group_range(g);
        debug_assert!(local < len, "local index {local} outside group {g}");
        PartitionId(start + local)
    }

    /// Full mask of group `g` (all racks in the group).
    pub fn group_mask(&self, g: usize) -> RackMask {
        RackMask::all(self.group_range(g).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_cluster::JobKind;

    fn be(id: u64, tasks: u32) -> JobSpec {
        JobSpec::new(id, 0.0, tasks, 10.0, JobKind::BestEffort)
    }

    #[test]
    fn layout_is_ceil_n_over_128_even_contiguous_groups_that_round_trip() {
        for n in 1..=2000usize {
            let groups = MaskGroups::new(n);
            assert_eq!(
                groups.num_groups(),
                n.div_ceil(RackMask::MAX_RACKS),
                "n={n}"
            );
            let mut covered = 0;
            for g in 0..groups.num_groups() {
                let (start, len) = groups.group_range(g);
                assert_eq!(start, covered, "n={n}: groups must be contiguous");
                assert!((1..=RackMask::MAX_RACKS).contains(&len), "n={n} len={len}");
                for (p, local) in [(start, 0), (start + len - 1, len - 1)] {
                    assert_eq!(groups.group_of(PartitionId(p)), g, "n={n} p={p}");
                    assert_eq!(groups.to_local(g, PartitionId(p)), local);
                    assert_eq!(groups.to_global(g, local), PartitionId(p));
                }
                covered += len;
            }
            assert_eq!(covered, n, "groups must tile 0..{n}");
        }
    }

    #[test]
    fn one_mask_is_one_group_with_global_coordinates() {
        for n in [4, 127, 128] {
            let groups = MaskGroups::new(n);
            assert_eq!(groups.group_range(0), (0, n));
            assert_eq!(groups.home_group(&be(7, 1), &ClusterSpec::uniform(n, 1)), 0);
            assert_eq!(groups.to_local(0, PartitionId(3)), 3);
            assert_eq!(groups.to_global(0, 3), PartitionId(3));
        }
        let groups = MaskGroups::new(129);
        assert_eq!(groups.group_range(0), (0, 65));
        assert_eq!(groups.group_range(1), (65, 64));
    }

    #[test]
    fn home_group_follows_preference_then_id() {
        let cluster = ClusterSpec::uniform(256, 2);
        let groups = MaskGroups::new(256);
        let j = be(1, 1).with_preference(vec![PartitionId(200)], 1.5);
        assert_eq!(groups.home_group(&j, &cluster), 1);
        // No preference: deterministic spread by id.
        assert_eq!(groups.home_group(&be(4, 1), &cluster), 0);
        assert_eq!(groups.home_group(&be(5, 1), &cluster), 1);
    }

    #[test]
    fn home_group_probes_forward_to_a_group_that_holds_the_gang() {
        // 129 racks × 2 nodes: group 0 has 130 nodes, group 1 has 128.
        let cluster = ClusterSpec::uniform(129, 2);
        let groups = MaskGroups::new(129);
        assert_eq!(groups.group_capacity(0, &cluster), 130);
        assert_eq!(groups.group_capacity(1, &cluster), 128);
        // A gang that fits its first choice keeps it.
        assert_eq!(groups.home_group(&be(1, 128), &cluster), 1);
        // One that does not moves on, whether chosen by id or preference.
        assert_eq!(groups.home_group(&be(1, 130), &cluster), 0);
        let j = be(2, 130).with_preference(vec![PartitionId(100)], 1.5);
        assert_eq!(groups.home_group(&j, &cluster), 0);
        // Wider than every group: stays on its first choice (and is
        // cancelled by the compile stage).
        assert_eq!(groups.home_group(&be(1, 131), &cluster), 1);
    }
}
