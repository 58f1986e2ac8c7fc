//! Per-worker template caches: each [`Device`](crate::Device) worker keeps
//! the prepared tasks it ran, keyed by [`TaskShape`], and binds the next
//! same-shape task's content into one instead of preparing afresh. A hit
//! skips the pipeline build, control codegen, decode and verify+certify;
//! it pays only [`Accelerator::bind`], the execution and output parsing.

use std::any::Any;
use std::collections::HashMap;

use gendp_core::{AccelConfig, Accelerator, PreparedTask, TaskOutput};
use gendp_dpax::{RunStats, SimError};

use crate::task::{Lowered, Lowering, Task, TaskShape, TaskValue};

/// Control instructions a [`Device`](crate::Device) may keep resident in
/// its templates, split evenly across its workers. Fixed, not an option:
/// a kept instruction costs 28 bytes of host memory (16 assembly, 12
/// decoded), so the bound holds a device's templates near 7 MiB.
pub const TEMPLATE_BUDGET: usize = 1 << 18;

/// Templates a [`Device`](crate::Device) may keep, split evenly across its
/// workers. The instruction budget alone would let tiny shapes pile up by
/// the thousand, each holding its array's register files and scratchpads
/// (about 5 KiB per PE).
pub const TEMPLATE_SLOTS: usize = 256;

/// Template-cache counters of a device, summed over its workers. Tasks
/// whose programs follow their content (POA, Bellman-Ford) are neither
/// hits nor misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Tasks served by a kept template.
    pub hits: u64,
    /// Tasks whose shape had no kept template, so they were prepared.
    pub misses: u64,
    /// Templates dropped to stay within [`TEMPLATE_BUDGET`] and
    /// [`TEMPLATE_SLOTS`], counting those too large to keep at all.
    pub evictions: u64,
    /// Control instructions resident in the kept templates now.
    pub resident_insts: u64,
}

impl TemplateStats {
    /// Adds `other`'s counters into `self`.
    pub(crate) fn absorb(&mut self, other: &TemplateStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_insts += other.resident_insts;
    }
}

/// A configured driver and the task it prepared, kept for their shape.
struct Kept<A> {
    accel: A,
    prep: PreparedTask,
}

struct Entry {
    kept: Box<dyn Any + Send>,
    insts: usize,
    /// Recency stamp for least-recently-used eviction.
    used: u64,
}

/// One worker's templates, bounded by resident control instructions and
/// by count, evicted least recently used first.
pub(crate) struct TemplateCache {
    entries: HashMap<TaskShape, Entry>,
    budget: usize,
    slots: usize,
    clock: u64,
    stats: TemplateStats,
}

impl TemplateCache {
    /// An empty cache holding at most `budget` control instructions in at
    /// most `slots` templates.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub(crate) fn new(budget: usize, slots: usize) -> Self {
        assert!(slots > 0, "a template cache needs a slot");
        TemplateCache {
            entries: HashMap::new(),
            budget,
            slots,
            clock: 0,
            stats: TemplateStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> TemplateStats {
        self.stats
    }

    /// Runs one attempt of `task` under `cfg`: on a kept template of its
    /// shape when there is one, otherwise prepared afresh and kept. A
    /// template leaves the cache for the attempt and returns only when
    /// its verification passed and the attempt did not panic.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    pub(crate) fn run(
        &mut self,
        task: &Task,
        n_pes: usize,
        cfg: AccelConfig,
    ) -> Result<(TaskValue, RunStats), SimError> {
        task.lower(n_pes, Attempt { cache: self, cfg })
    }

    /// Removes the template kept for `shape`, counting a hit or a miss.
    fn take<A: 'static>(&mut self, shape: &TaskShape) -> Option<Box<Kept<A>>> {
        let kept = self.entries.remove(shape).and_then(|entry| {
            self.stats.resident_insts -= entry.insts as u64;
            entry.kept.downcast::<Kept<A>>().ok()
        });
        if kept.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        kept
    }

    /// Keeps `kept` for `shape`, evicting least recently used templates
    /// until it fits the budget and a slot is free; one larger than the
    /// whole budget is dropped instead.
    fn keep<A: Send + 'static>(&mut self, shape: TaskShape, kept: Box<Kept<A>>) {
        let insts = kept.prep.control_len();
        if insts > self.budget {
            self.stats.evictions += 1;
            return;
        }
        while self.entries.len() >= self.slots
            || self.stats.resident_insts as usize + insts > self.budget
        {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(shape, _)| shape.clone())
                .expect("a full cache keeps a template");
            let evicted = self.entries.remove(&oldest).expect("oldest is kept");
            self.stats.resident_insts -= evicted.insts as u64;
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.stats.resident_insts += insts as u64;
        self.entries.insert(
            shape,
            Entry {
                kept,
                insts,
                used: self.clock,
            },
        );
    }
}

/// The visit behind [`TemplateCache::run`].
struct Attempt<'c> {
    cache: &'c mut TemplateCache,
    cfg: AccelConfig,
}

impl Lowering for Attempt<'_> {
    type Out = Result<(TaskValue, RunStats), SimError>;

    fn visit<A: Accelerator + Send + 'static>(self, l: Lowered<'_, A>) -> Self::Out {
        let read = |out: A::Output| ((l.value)(&out), out.stats().clone());
        let Some(shape) = l.shape else {
            // Programs that follow the content are prepared per task.
            return (l.build)().configure(self.cfg).run_task(&l.task).map(read);
        };
        let mut kept = match self.cache.take::<A>(&shape) {
            Some(mut kept) => {
                kept.accel.bind(&mut kept.prep, &l.task);
                kept.prep.set_budget_scale(self.cfg.budget_scale);
                kept
            }
            None => {
                let accel = (l.build)().configure(self.cfg);
                let prep = accel.prepare(&l.task);
                Box::new(Kept { accel, prep })
            }
        };
        let result = kept
            .prep
            .execute()
            .map(|stats| read(kept.accel.parse(&l.task, &kept.prep, stats)));
        // A template that failed verification has no certificate; a
        // panic above unwinds past this line and drops the template.
        if kept.prep.certificate().is_some() {
            self.cache.keep(shape, kept);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_core::Wavefront2d;
    use gendp_kernels::Scoring;
    use gendp_seq::DnaSeq;
    use rand::{rngs::SmallRng, SeedableRng};

    fn kept_budget(cache: &TemplateCache, shape: &TaskShape) -> u64 {
        let kept = cache.entries[shape]
            .kept
            .downcast_ref::<Kept<Wavefront2d>>();
        kept.expect("a BSW template").prep.budget()
    }

    #[test]
    fn a_hit_runs_under_its_attempts_budget_scale() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut task = || {
            let (q, t) = (DnaSeq::random(8, &mut rng), DnaSeq::random(9, &mut rng));
            Task::bsw_local(q, t, Scoring::bwa_mem())
        };
        let mut cache = TemplateCache::new(TEMPLATE_BUDGET, TEMPLATE_SLOTS);
        let first = task();
        let shape = first.shape(4).expect("BSW has a shape");
        assert_eq!(cache.run(&first, 4, AccelConfig::new()), first.execute(4));
        let base = kept_budget(&cache, &shape);

        // A retry after a timeout escalates the budget of the kept template.
        let retry = task();
        let escalated = AccelConfig::new().budget_scale(4);
        assert_eq!(cache.run(&retry, 4, escalated), retry.execute(4));
        assert_eq!(kept_budget(&cache, &shape), 4 * base);

        // The next first attempt runs under the base budget again.
        let next = task();
        assert_eq!(cache.run(&next, 4, AccelConfig::new()), next.execute(4));
        assert_eq!(kept_budget(&cache, &shape), base);
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));
    }

    #[test]
    fn tiny_shapes_stay_within_the_slot_bound() {
        let mut cache = TemplateCache::new(TEMPLATE_BUDGET, 4);
        for rows in 1..=10 {
            let task = Task::dtw(vec![1; rows], vec![2; 3]);
            assert_eq!(cache.run(&task, 4, AccelConfig::new()), task.execute(4));
            assert!(cache.entries.len() <= 4);
        }
        assert_eq!(cache.stats().misses, 10);
        assert_eq!(
            cache.stats().evictions,
            6,
            "each shape past the fourth evicts one"
        );
    }
}
