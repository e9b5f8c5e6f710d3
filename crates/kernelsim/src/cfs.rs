//! Per-core CFS run queue.
//!
//! A faithful functional model of the Linux Completely Fair Scheduler's
//! per-CPU queue: tasks are ordered by virtual runtime (the kernel uses
//! a red-black tree; a sorted `Vec` gives the same ordered-set
//! semantics, and at per-core runnable counts the O(n) insert is a
//! single cache-resident memmove — measurably faster than a node-based
//! tree on the slice-dispatch hot path), `pick_next` returns the
//! smallest-vruntime task, each task's timeslice within a scheduling
//! period is proportional to its load weight, and newly enqueued tasks
//! inherit the queue's `min_vruntime` so sleepers can't hoard unbounded
//! credit.

use serde::{Deserialize, Serialize};

use crate::task::{TaskId, NICE_0_WEIGHT};

/// Minimum slice any runnable task receives per period (the kernel's
/// `sched_min_granularity`), nanoseconds.
pub const MIN_GRANULARITY_NS: u64 = 750_000;

/// Per-core CFS run queue.
///
/// # Examples
///
/// ```
/// use kernelsim::cfs::CfsRunQueue;
/// use kernelsim::task::TaskId;
///
/// let mut rq = CfsRunQueue::new();
/// rq.enqueue(TaskId(1), 0, 1024);
/// rq.enqueue(TaskId(2), 10, 1024);
/// assert_eq!(rq.pick_next(), Some(TaskId(1))); // smallest vruntime first
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CfsRunQueue {
    /// Sorted ascending by (vruntime, id) for deterministic tie-breaks.
    queue: Vec<(u64, TaskId)>,
    total_weight: u64,
    min_vruntime: u64,
}

impl CfsRunQueue {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Sum of weights of all enqueued tasks.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The queue's monotonically non-decreasing minimum vruntime;
    /// newly woken/migrated tasks are normalized against it.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Enqueues `task`. Returns the (possibly normalized) vruntime the
    /// task was inserted with: `max(vruntime, min_vruntime)`, which
    /// prevents a long sleeper from starving everyone else afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the task is already enqueued (caller bug) or
    /// `weight == 0`.
    pub fn enqueue(&mut self, task: TaskId, vruntime_ns: u64, weight: u64) -> u64 {
        assert!(weight > 0, "task weight must be positive");
        let v = vruntime_ns.max(self.min_vruntime);
        match self.queue.binary_search(&(v, task)) {
            #[expect(
                clippy::panic,
                reason = "documented contract: double-enqueue is a scheduler bug, not an input condition — continuing would corrupt total_weight"
            )]
            Ok(_) => panic!("task {task} already on the run queue"),
            Err(pos) => self.queue.insert(pos, (v, task)),
        }
        self.total_weight += weight;
        v
    }

    /// Removes `task` (with the vruntime it is keyed under). Returns
    /// `true` if it was present.
    pub fn dequeue(&mut self, task: TaskId, vruntime_ns: u64, weight: u64) -> bool {
        match self.queue.binary_search(&(vruntime_ns, task)) {
            Ok(pos) => {
                self.queue.remove(pos);
                self.total_weight = self.total_weight.saturating_sub(weight);
                true
            }
            Err(_) => false,
        }
    }

    /// The next task to run: smallest vruntime (ties broken by id).
    /// Does not remove it.
    pub fn pick_next(&self) -> Option<TaskId> {
        self.queue.first().map(|&(_, t)| t)
    }

    /// Removes and returns the leftmost `(vruntime, task)` entry —
    /// `pick_next` fused with its `dequeue`, saving the binary search
    /// when the caller is about to dispatch whatever it picked. The
    /// caller supplies the picked task's `weight` (the queue does not
    /// store weights).
    pub fn dequeue_front(&mut self, weight: u64) -> Option<(u64, TaskId)> {
        if self.queue.is_empty() {
            return None;
        }
        let entry = self.queue.remove(0);
        self.total_weight = self.total_weight.saturating_sub(weight);
        Some(entry)
    }

    /// Updates the queue's `min_vruntime` floor after `leftmost_v` has
    /// executed; the floor never decreases.
    pub fn advance_min_vruntime(&mut self, leftmost_v: u64) {
        self.min_vruntime = self.min_vruntime.max(leftmost_v);
    }

    /// The CFS timeslice of a task with `weight` in a scheduling period
    /// of `period_ns`: proportional to its share of the queue's total
    /// weight, floored at `MIN_GRANULARITY_NS`.
    pub fn timeslice_ns(&self, weight: u64, period_ns: u64) -> u64 {
        if self.total_weight == 0 {
            return period_ns;
        }
        let share = (period_ns as u128 * weight as u128 / self.total_weight as u128) as u64;
        share.max(MIN_GRANULARITY_NS).min(period_ns)
    }

    /// Weighted vruntime delta for `delta_ns` of real execution:
    /// `delta * NICE_0_WEIGHT / weight` (heavier tasks age slower).
    pub fn vruntime_delta(delta_ns: u64, weight: u64) -> u64 {
        (delta_ns as u128 * NICE_0_WEIGHT as u128 / weight.max(1) as u128) as u64
    }

    /// Iterator over `(vruntime, TaskId)` in queue order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TaskId)> + '_ {
        self.queue.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_smallest_vruntime() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 100, 1024);
        rq.enqueue(TaskId(2), 50, 1024);
        rq.enqueue(TaskId(3), 200, 1024);
        assert_eq!(rq.pick_next(), Some(TaskId(2)));
        assert!(rq.dequeue(TaskId(2), 50, 1024));
        assert_eq!(rq.pick_next(), Some(TaskId(1)));
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(9), 5, 1024);
        rq.enqueue(TaskId(3), 5, 1024);
        assert_eq!(rq.pick_next(), Some(TaskId(3)));
    }

    #[test]
    fn min_vruntime_normalizes_wakers() {
        let mut rq = CfsRunQueue::new();
        rq.advance_min_vruntime(1_000);
        let v = rq.enqueue(TaskId(1), 0, 1024);
        assert_eq!(v, 1_000, "long sleeper is pulled up to min_vruntime");
        // And the floor never decreases.
        rq.advance_min_vruntime(500);
        assert_eq!(rq.min_vruntime(), 1_000);
    }

    #[test]
    fn weight_accounting() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 0, 1024);
        rq.enqueue(TaskId(2), 0, 512);
        assert_eq!(rq.total_weight(), 1536);
        assert!(rq.dequeue(TaskId(1), 0, 1024));
        assert_eq!(rq.total_weight(), 512);
        assert!(!rq.dequeue(TaskId(1), 0, 1024), "double dequeue is a no-op");
        assert_eq!(rq.total_weight(), 512);
    }

    #[test]
    fn timeslice_proportional_to_weight() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 0, 2048);
        rq.enqueue(TaskId(2), 0, 1024);
        let period = 6_000_000;
        let heavy = rq.timeslice_ns(2048, period);
        let light = rq.timeslice_ns(1024, period);
        assert_eq!(heavy, 4_000_000);
        assert_eq!(light, 2_000_000);
    }

    #[test]
    fn timeslice_floors_at_min_granularity() {
        let mut rq = CfsRunQueue::new();
        for i in 0..100 {
            rq.enqueue(TaskId(i), 0, 1024);
        }
        let slice = rq.timeslice_ns(1024, 6_000_000);
        assert_eq!(slice, MIN_GRANULARITY_NS);
    }

    #[test]
    fn empty_queue_gives_full_period() {
        let rq = CfsRunQueue::new();
        assert_eq!(rq.timeslice_ns(1024, 6_000_000), 6_000_000);
        assert_eq!(rq.pick_next(), None);
        assert!(rq.is_empty());
    }

    #[test]
    fn vruntime_delta_inversely_weighted() {
        assert_eq!(CfsRunQueue::vruntime_delta(1_000, NICE_0_WEIGHT), 1_000);
        assert_eq!(CfsRunQueue::vruntime_delta(1_000, 2 * NICE_0_WEIGHT), 500);
        assert_eq!(CfsRunQueue::vruntime_delta(1_000, NICE_0_WEIGHT / 2), 2_000);
        // Zero weight is defended against.
        assert_eq!(CfsRunQueue::vruntime_delta(1_000, 0), 1_000 * NICE_0_WEIGHT);
    }

    #[test]
    fn enqueue_dequeue_roundtrip_preserves_weight_zero() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 0, 1024);
        rq.enqueue(TaskId(2), 0, 512);
        assert!(rq.dequeue(TaskId(1), 0, 1024));
        assert!(rq.dequeue(TaskId(2), 0, 512));
        assert_eq!(rq.total_weight(), 0);
        assert!(rq.is_empty());
        assert_eq!(rq.pick_next(), None);
    }

    #[test]
    fn dequeue_front_matches_pick_then_dequeue() {
        let mut front = CfsRunQueue::new();
        let mut classic = CfsRunQueue::new();
        for rq in [&mut front, &mut classic] {
            rq.enqueue(TaskId(1), 30, 1024);
            rq.enqueue(TaskId(2), 10, 512);
            rq.enqueue(TaskId(3), 20, 2048);
        }
        let picked = classic.pick_next().unwrap();
        assert!(classic.dequeue(picked, 10, 512));
        assert_eq!(front.dequeue_front(512), Some((10, TaskId(2))));
        assert_eq!(front, classic);
        assert_eq!(front.total_weight(), classic.total_weight());
        assert_eq!(CfsRunQueue::new().dequeue_front(1024), None);
    }

    #[test]
    fn iter_yields_vruntime_order() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 30, 1024);
        rq.enqueue(TaskId(2), 10, 1024);
        rq.enqueue(TaskId(3), 20, 1024);
        let order: Vec<usize> = rq.iter().map(|(_, t)| t.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        CfsRunQueue::new().enqueue(TaskId(1), 0, 0);
    }

    #[test]
    #[should_panic(expected = "already on the run queue")]
    fn double_enqueue_panics() {
        let mut rq = CfsRunQueue::new();
        rq.enqueue(TaskId(1), 0, 1024);
        rq.enqueue(TaskId(1), 0, 1024);
    }
}
