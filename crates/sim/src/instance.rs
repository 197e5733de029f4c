//! Problem instances: a set of jobs with release times.

use flowtree_dag::{classify, JobGraph, JobId, Time};

/// One job of an instance: a DAG plus its release (arrival) time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The precedence DAG of unit-time subjobs.
    pub graph: JobGraph,
    /// Release time `r_i`: the scheduler becomes aware of the job at `r_i`
    /// and no subjob may complete before `r_i + 1`.
    pub release: Time,
}

/// An instance: jobs sorted by `(release, insertion order)`. [`JobId`]s index
/// into this sorted order, so `JobId` order *is* FIFO arrival order (ties
/// broken by insertion, matching "arrived no later" in the paper's FIFO
/// definition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    jobs: Vec<JobSpec>,
}

serde::impl_serde_struct!(JobSpec { graph, release });

impl serde::Serialize for Instance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("jobs".to_string(), serde::Serialize::to_value(&self.jobs))])
    }
}

impl serde::Deserialize for Instance {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let jobs = Vec::<JobSpec>::from_value(
            v.get("jobs").ok_or_else(|| serde::Error::missing_field("jobs"))?,
        )?;
        if jobs.is_empty() {
            return Err(serde::Error::custom("instance must contain at least one job"));
        }
        Ok(Instance::new(jobs))
    }
}

impl Instance {
    /// Build an instance; jobs are stably sorted by release time.
    pub fn new(mut jobs: Vec<JobSpec>) -> Self {
        assert!(!jobs.is_empty(), "instance must contain at least one job");
        jobs.sort_by_key(|j| j.release);
        Instance { jobs }
    }

    /// Single job released at time 0.
    pub fn single(graph: JobGraph) -> Self {
        Instance::new(vec![JobSpec { graph, release: 0 }])
    }

    /// An instance with no jobs yet, for incremental construction via
    /// [`push_job`](Self::push_job) (streaming sessions admit arrivals one at
    /// a time instead of sorting a full batch up front).
    pub fn empty() -> Self {
        Instance { jobs: Vec::new() }
    }

    /// Append a job arriving no earlier than every job already present, so
    /// the sorted-by-release invariant is preserved without a sort. Returns
    /// the new job's id. Panics if `spec.release` would go backwards.
    pub fn push_job(&mut self, spec: JobSpec) -> JobId {
        if let Some(last) = self.jobs.last() {
            assert!(
                spec.release >= last.release,
                "streamed arrivals must have nondecreasing release times \
                 ({} after {})",
                spec.release,
                last.release
            );
        }
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(spec);
        id
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// All jobs in arrival order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The job with the given id.
    pub fn job(&self, id: JobId) -> &JobSpec {
        &self.jobs[id.index()]
    }

    /// The DAG of the given job.
    pub fn graph(&self, id: JobId) -> &JobGraph {
        &self.jobs[id.index()].graph
    }

    /// Release time of the given job.
    pub fn release(&self, id: JobId) -> Time {
        self.jobs[id.index()].release
    }

    /// Iterator over `(JobId, &JobSpec)` in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobSpec)> + '_ {
        self.jobs.iter().enumerate().map(|(i, j)| (JobId(i as u32), j))
    }

    /// Total work over all jobs.
    pub fn total_work(&self) -> u64 {
        self.jobs.iter().map(|j| j.graph.work()).sum()
    }

    /// Maximum span over all jobs — a lower bound on the optimal max flow.
    pub fn max_span(&self) -> u64 {
        self.jobs.iter().map(|j| j.graph.span()).max().unwrap_or(0)
    }

    /// Latest release time.
    pub fn last_release(&self) -> Time {
        self.jobs.last().map(|j| j.release).unwrap_or(0)
    }

    /// Is every job an out-forest? (Scope of the paper's Section 5 results.)
    pub fn is_out_forest_instance(&self) -> bool {
        self.jobs.iter().all(|j| classify::is_out_forest(&j.graph))
    }

    /// Are all release times integer multiples of `q`? (`q = OPT` gives the
    /// paper's *batched* instances of Section 6; `q = OPT/2` the
    /// *semi-batched* ones of Section 5.3.)
    pub fn is_batched(&self, q: Time) -> bool {
        q > 0 && self.jobs.iter().all(|j| j.release % q == 0)
    }

    /// A simple certified lower bound on the optimal maximum flow on `m`
    /// processors: the max over jobs of the single-job bound
    /// `max_d (d + ceil(W_i(d)/m))` (paper Lemma 5.1), which subsumes both
    /// the span and the per-job work bound. See `flowtree-opt` for stronger
    /// multi-job (interval load) bounds.
    pub fn per_job_lower_bound(&self, m: u64) -> u64 {
        self.jobs.iter().map(|j| j.graph.opt_single_job(m)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, star};

    fn inst() -> Instance {
        Instance::new(vec![
            JobSpec { graph: star(3), release: 5 },
            JobSpec { graph: chain(4), release: 0 },
            JobSpec { graph: chain(2), release: 5 },
        ])
    }

    #[test]
    fn jobs_sorted_by_release_stably() {
        let i = inst();
        assert_eq!(i.release(JobId(0)), 0);
        assert_eq!(i.release(JobId(1)), 5);
        assert_eq!(i.release(JobId(2)), 5);
        // Stability: the star (inserted before the chain(2)) keeps priority.
        assert_eq!(i.graph(JobId(1)).work(), 4); // star(3)
        assert_eq!(i.graph(JobId(2)).work(), 2);
    }

    #[test]
    fn aggregate_metrics() {
        let i = inst();
        assert_eq!(i.total_work(), 4 + 4 + 2);
        assert_eq!(i.max_span(), 4);
        assert_eq!(i.last_release(), 5);
        assert_eq!(i.num_jobs(), 3);
        assert!(i.is_out_forest_instance());
    }

    #[test]
    fn batched_predicate() {
        let i = inst();
        assert!(i.is_batched(5));
        assert!(i.is_batched(1));
        assert!(!i.is_batched(4));
        assert!(!i.is_batched(0));
    }

    #[test]
    fn per_job_lower_bound_dominates_span_and_work() {
        let i = inst();
        for m in 1..=4 {
            let lb = i.per_job_lower_bound(m);
            assert!(lb >= i.max_span());
            for (_, j) in i.iter() {
                assert!(lb >= j.graph.work().div_ceil(m));
            }
        }
        // chain(4) forces lb = 4 for all m.
        assert_eq!(i.per_job_lower_bound(8), 4);
    }

    #[test]
    fn single_constructor() {
        let i = Instance::single(chain(3));
        assert_eq!(i.num_jobs(), 1);
        assert_eq!(i.release(JobId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_instance_panics() {
        Instance::new(vec![]);
    }

    #[test]
    fn push_job_appends_in_release_order() {
        let mut i = Instance::empty();
        assert_eq!(i.num_jobs(), 0);
        assert_eq!(i.last_release(), 0);
        assert_eq!(i.push_job(JobSpec { graph: chain(2), release: 1 }), JobId(0));
        assert_eq!(i.push_job(JobSpec { graph: star(2), release: 1 }), JobId(1));
        assert_eq!(i.push_job(JobSpec { graph: chain(3), release: 4 }), JobId(2));
        assert_eq!(i.num_jobs(), 3);
        assert_eq!(i.last_release(), 4);
        assert_eq!(i.total_work(), 2 + 3 + 3);
        // The incrementally built instance equals the batch-sorted one.
        assert_eq!(
            i,
            Instance::new(vec![
                JobSpec { graph: chain(2), release: 1 },
                JobSpec { graph: star(2), release: 1 },
                JobSpec { graph: chain(3), release: 4 },
            ])
        );
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn push_job_rejects_backwards_release() {
        let mut i = Instance::empty();
        i.push_job(JobSpec { graph: chain(1), release: 5 });
        i.push_job(JobSpec { graph: chain(1), release: 4 });
    }

    #[test]
    fn serde_roundtrip() {
        let i = inst();
        let json = serde_json::to_string(&i).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i);
    }
}
