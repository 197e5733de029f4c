//! Recorded schedules and the independent feasibility checker.
//!
//! A [`Schedule`] stores, for every time step `t >= 1`, the subjobs run
//! during that step (the paper's `S(t)`). [`Schedule::verify`] re-checks the
//! four feasibility conditions of Section 3 from scratch, independently of
//! the engine's online validation — every test that produces a schedule also
//! verifies it, so engine and checker would both have to be wrong in the same
//! way for an infeasible schedule to slip through.
//!
//! Internally the steps are stored in CSR (compressed sparse row) form: one
//! flat pick array plus per-step offsets. Recording a step is a single
//! `extend` + one offset push (no per-step `Vec`), an empty step costs one
//! 4-byte offset, and iteration walks a contiguous buffer. The serde wire
//! format is unchanged from the nested-`Vec` era: `{ m, steps }` with
//! `steps` a list of `[job, node]` pair lists.

use crate::instance::Instance;
use flowtree_dag::{JobId, NodeId, Time};

/// A complete recorded schedule on `m` processors.
///
/// Serializes as `{ m, steps }`; deserialization performs only structural
/// checks (per-step capacity) — run [`verify`](Self::verify) against the
/// instance to validate a loaded schedule fully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    m: usize,
    /// All picks, flat; step `t`'s picks are
    /// `picks[offsets[t-1] .. offsets[t]]`.
    picks: Vec<(JobId, NodeId)>,
    /// CSR offsets: `offsets[0] == 0`, `offsets.len() == horizon + 1`,
    /// monotone non-decreasing.
    offsets: Vec<u32>,
}

impl serde::Serialize for Schedule {
    fn to_value(&self) -> serde::Value {
        let steps: Vec<serde::Value> =
            self.iter().map(|(_, picks)| serde::Serialize::to_value(&picks)).collect();
        serde::Value::Object(vec![
            ("m".to_string(), serde::Value::UInt(self.m as u64)),
            ("steps".to_string(), serde::Value::Array(steps)),
        ])
    }
}

impl serde::Deserialize for Schedule {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = <usize as serde::Deserialize>::from_value(
            v.get("m").ok_or_else(|| serde::Error::missing_field("m"))?,
        )?;
        if m == 0 {
            return Err(serde::Error::custom("schedule has m = 0 processors"));
        }
        let steps: Vec<Vec<(JobId, NodeId)>> = serde::Deserialize::from_value(
            v.get("steps").ok_or_else(|| serde::Error::missing_field("steps"))?,
        )?;
        let mut s = Schedule::new(m);
        for (i, picks) in steps.iter().enumerate() {
            if picks.len() > m {
                return Err(serde::Error::custom(format!(
                    "step {}: {} subjobs on {m} processors",
                    i + 1,
                    picks.len()
                )));
            }
            s.extend_step(picks);
        }
        Ok(s)
    }
}

/// Violations reported by [`Schedule::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeasibilityError {
    /// More than `m` subjobs in one step.
    CapacityExceeded {
        /// The offending time step.
        t: Time,
        /// Number of subjobs scheduled there.
        count: usize,
        /// Machine capacity.
        m: usize,
    },
    /// A subjob scheduled more than once.
    DuplicateRun(JobId, NodeId),
    /// A subjob never scheduled.
    MissingRun(JobId, NodeId),
    /// A subjob ran although a predecessor had not completed strictly before.
    PrecedenceViolation {
        /// The job containing the violated edge.
        job: JobId,
        /// Predecessor node.
        pred: NodeId,
        /// Successor node.
        succ: NodeId,
    },
    /// A subjob completed at `t <= r_i`, i.e. started before its release.
    ReleaseViolation(JobId, NodeId),
    /// A referenced job id or node id does not exist in the instance.
    UnknownSubjob(JobId, NodeId),
}

impl std::fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeasibilityError::CapacityExceeded { t, count, m } => {
                write!(f, "step {t}: {count} subjobs on {m} processors")
            }
            FeasibilityError::DuplicateRun(j, v) => write!(f, "{j}/{v} scheduled twice"),
            FeasibilityError::MissingRun(j, v) => write!(f, "{j}/{v} never scheduled"),
            FeasibilityError::PrecedenceViolation { job, pred, succ } => {
                write!(f, "{job}: edge {pred} -> {succ} violated")
            }
            FeasibilityError::ReleaseViolation(j, v) => {
                write!(f, "{j}/{v} ran before the job's release")
            }
            FeasibilityError::UnknownSubjob(j, v) => write!(f, "unknown subjob {j}/{v}"),
        }
    }
}

impl std::error::Error for FeasibilityError {}

impl Schedule {
    /// An empty schedule on `m` processors.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one processor");
        Schedule { m, picks: Vec::new(), offsets: vec![0] }
    }

    /// Machine capacity.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Record that `picks` run during step `t = horizon + 1` (appended).
    pub fn push_step(&mut self, picks: Vec<(JobId, NodeId)>) {
        self.extend_step(&picks);
    }

    /// Record that `picks` run during step `t = horizon + 1` (appended),
    /// copying out of the caller's buffer — the allocation-free form of
    /// [`push_step`](Self::push_step) the engine's hot loop uses.
    pub fn extend_step(&mut self, picks: &[(JobId, NodeId)]) {
        debug_assert!(picks.len() <= self.m);
        self.picks.extend_from_slice(picks);
        let end = u32::try_from(self.picks.len()).expect("schedule exceeds u32::MAX subjob slots");
        self.offsets.push(end);
    }

    /// Append `n` empty (idle) steps in one go — O(n) offset pushes, no pick
    /// storage. Used by the engine's idle-gap fast-forward.
    pub fn push_empty_steps(&mut self, n: Time) {
        let end = *self.offsets.last().expect("offsets never empty");
        self.offsets.resize(self.offsets.len() + n as usize, end);
    }

    /// Replace the contents of step `t` (1-based; must be within the
    /// current horizon). Used by schedule *constructors* (e.g. the
    /// Section 4 witness schedule) that fill non-contiguous windows; costs
    /// O(picks beyond `t`) when the step's size changes, so fill steps
    /// near the tail (as the witness builders do).
    pub fn replace_step(&mut self, t: Time, picks: Vec<(JobId, NodeId)>) {
        assert!(t >= 1 && t <= self.horizon(), "step {t} out of range");
        debug_assert!(picks.len() <= self.m);
        let lo = self.offsets[(t - 1) as usize] as usize;
        let hi = self.offsets[t as usize] as usize;
        let delta = picks.len() as i64 - (hi - lo) as i64;
        self.picks.splice(lo..hi, picks);
        if delta != 0 {
            for o in &mut self.offsets[t as usize..] {
                *o = (*o as i64 + delta) as u32;
            }
        }
    }

    /// Largest time step with any activity (0 if empty). Trailing empty
    /// steps are retained (they represent idle time before later arrivals).
    pub fn horizon(&self) -> Time {
        (self.offsets.len() - 1) as Time
    }

    /// Subjobs run during step `t` (1-based, per the paper's convention).
    /// Empty for `t` beyond the horizon.
    pub fn at(&self, t: Time) -> &[(JobId, NodeId)] {
        if t == 0 || t > self.horizon() {
            &[]
        } else {
            &self.picks[self.offsets[(t - 1) as usize] as usize..self.offsets[t as usize] as usize]
        }
    }

    /// Number of subjobs run during step `t`.
    pub fn load(&self, t: Time) -> usize {
        self.at(t).len()
    }

    /// Iterate `(t, &picks)` over all steps.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &[(JobId, NodeId)])> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .map(|(i, w)| ((i + 1) as Time, &self.picks[w[0] as usize..w[1] as usize]))
    }

    /// Completion time `C_i` of each job: the max step in which one of its
    /// subjobs ran. Returns `None` for a job with no scheduled subjob.
    pub fn completion_times(&self, instance: &Instance) -> Vec<Option<Time>> {
        let mut c = vec![None; instance.num_jobs()];
        for (t, picks) in self.iter() {
            for &(j, _) in picks {
                let slot = &mut c[j.index()];
                *slot = Some(slot.map_or(t, |old: Time| old.max(t)));
            }
        }
        c
    }

    /// Check the four feasibility conditions of Section 3 against `instance`.
    pub fn verify(&self, instance: &Instance) -> Result<(), FeasibilityError> {
        // Completion time per (job, node); detects duplicates.
        let mut completion: Vec<Vec<Time>> =
            instance.jobs().iter().map(|j| vec![0; j.graph.n()]).collect();

        for (t, picks) in self.iter() {
            if picks.len() > self.m {
                return Err(FeasibilityError::CapacityExceeded {
                    t,
                    count: picks.len(),
                    m: self.m,
                });
            }
            for &(j, v) in picks {
                if j.index() >= instance.num_jobs() || v.index() >= instance.graph(j).n() {
                    return Err(FeasibilityError::UnknownSubjob(j, v));
                }
                let slot = &mut completion[j.index()][v.index()];
                if *slot != 0 {
                    return Err(FeasibilityError::DuplicateRun(j, v));
                }
                *slot = t;
                // Subjob runs during (t-1, t]; needs t - 1 >= r_i, i.e. the
                // paper's "if j in S(t) then t > r_i".
                if t <= instance.release(j) {
                    return Err(FeasibilityError::ReleaseViolation(j, v));
                }
            }
        }

        for (id, spec) in instance.iter() {
            let comp = &completion[id.index()];
            for v in spec.graph.nodes() {
                if comp[v.index()] == 0 {
                    return Err(FeasibilityError::MissingRun(id, v));
                }
            }
            for (u, v) in spec.graph.edges() {
                if comp[u as usize] >= comp[v as usize] {
                    return Err(FeasibilityError::PrecedenceViolation {
                        job: id,
                        pred: NodeId(u),
                        succ: NodeId(v),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, JobSpec};
    use flowtree_dag::builder::{chain, star};

    fn inst() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: star(2), release: 1 },
        ])
    }

    fn ok_schedule() -> Schedule {
        let mut s = Schedule::new(2);
        // t=1: chain head. t=2: chain tail + star root. t=3: both leaves.
        s.push_step(vec![(JobId(0), NodeId(0))]);
        s.push_step(vec![(JobId(0), NodeId(1)), (JobId(1), NodeId(0))]);
        s.push_step(vec![(JobId(1), NodeId(1)), (JobId(1), NodeId(2))]);
        s
    }

    #[test]
    fn valid_schedule_passes() {
        assert_eq!(ok_schedule().verify(&inst()), Ok(()));
    }

    #[test]
    fn completion_times_and_horizon() {
        let s = ok_schedule();
        assert_eq!(s.horizon(), 3);
        assert_eq!(s.completion_times(&inst()), vec![Some(2), Some(3)]);
        assert_eq!(s.load(2), 2);
        assert_eq!(s.at(0), &[]);
        assert_eq!(s.at(99), &[]);
    }

    #[test]
    fn capacity_violation_detected() {
        // Construct the CSR fields directly: one over-full step on m = 1.
        let s = Schedule {
            m: 1,
            picks: vec![(JobId(0), NodeId(0)), (JobId(1), NodeId(0))],
            offsets: vec![0, 2],
        };
        assert!(matches!(
            s.verify(&inst()),
            Err(FeasibilityError::CapacityExceeded { t: 1, count: 2, m: 1 })
        ));
    }

    #[test]
    fn duplicate_detected() {
        let mut s = ok_schedule();
        s.push_step(vec![(JobId(0), NodeId(0))]);
        assert_eq!(s.verify(&inst()), Err(FeasibilityError::DuplicateRun(JobId(0), NodeId(0))));
    }

    #[test]
    fn missing_detected() {
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0))]);
        let err = s.verify(&inst()).unwrap_err();
        assert!(matches!(err, FeasibilityError::MissingRun(_, _)));
    }

    #[test]
    fn precedence_violation_detected() {
        let mut s = Schedule::new(2);
        // Run chain tail before head.
        s.push_step(vec![(JobId(0), NodeId(1))]);
        s.push_step(vec![(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        s.push_step(vec![(JobId(1), NodeId(1)), (JobId(1), NodeId(2))]);
        assert_eq!(
            s.verify(&inst()),
            Err(FeasibilityError::PrecedenceViolation {
                job: JobId(0),
                pred: NodeId(0),
                succ: NodeId(1),
            })
        );
    }

    #[test]
    fn simultaneous_pred_succ_is_violation() {
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0)), (JobId(0), NodeId(1))]);
        s.push_step(vec![(JobId(1), NodeId(0))]);
        s.push_step(vec![(JobId(1), NodeId(1)), (JobId(1), NodeId(2))]);
        assert!(matches!(s.verify(&inst()), Err(FeasibilityError::PrecedenceViolation { .. })));
    }

    #[test]
    fn release_violation_detected() {
        let mut s = Schedule::new(2);
        // Star (released at 1) cannot complete a subjob at t=1.
        s.push_step(vec![(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        let err = s.verify(&inst()).unwrap_err();
        assert_eq!(err, FeasibilityError::ReleaseViolation(JobId(1), NodeId(0)));
    }

    #[test]
    fn unknown_subjob_detected() {
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(7))]);
        assert_eq!(s.verify(&inst()), Err(FeasibilityError::UnknownSubjob(JobId(0), NodeId(7))));
    }

    #[test]
    fn serde_roundtrip() {
        let s = ok_schedule();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        back.verify(&inst()).unwrap();
    }

    #[test]
    fn serde_wire_format_is_nested_steps() {
        // The CSR layout is an internal detail: on the wire a schedule is
        // still `{ m, steps }` with nested pick lists, byte-for-byte what
        // the pre-CSR representation produced.
        let s = ok_schedule();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"m":2,"steps":[[[0,0]],[[0,1],[1,0]],[[1,1],[1,2]]]}"#
        );
        // And a hand-written legacy document still loads.
        let legacy = r#"{"m":2,"steps":[[[0,0]],[],[[0,1]]]}"#;
        let back: Schedule = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.horizon(), 3);
        assert_eq!(back.at(1), &[(JobId(0), NodeId(0))]);
        assert_eq!(back.load(2), 0);
        assert_eq!(back.at(3), &[(JobId(0), NodeId(1))]);
    }

    #[test]
    fn serde_rejects_overfull_step() {
        let overfull = r#"{"m":1,"steps":[[[0,0],[1,0]]]}"#;
        assert!(serde_json::from_str::<Schedule>(overfull).is_err());
        let no_procs = r#"{"m":0,"steps":[]}"#;
        assert!(serde_json::from_str::<Schedule>(no_procs).is_err());
    }

    #[test]
    fn extend_and_empty_steps_maintain_csr() {
        let mut s = Schedule::new(3);
        s.extend_step(&[(JobId(0), NodeId(0))]);
        s.push_empty_steps(4);
        s.extend_step(&[(JobId(0), NodeId(1)), (JobId(0), NodeId(2))]);
        assert_eq!(s.horizon(), 6);
        assert_eq!(s.at(1), &[(JobId(0), NodeId(0))]);
        for t in 2..=5 {
            assert_eq!(s.load(t), 0);
        }
        assert_eq!(s.at(6).len(), 2);
        let collected: Vec<usize> = s.iter().map(|(_, p)| p.len()).collect();
        assert_eq!(collected, vec![1, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn replace_step_shifts_following_offsets() {
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0))]);
        s.push_step(vec![]);
        s.push_step(vec![(JobId(1), NodeId(1))]);
        // Grow the middle step; the tail step must stay intact.
        s.replace_step(2, vec![(JobId(0), NodeId(1)), (JobId(1), NodeId(0))]);
        assert_eq!(s.at(1), &[(JobId(0), NodeId(0))]);
        assert_eq!(s.at(2), &[(JobId(0), NodeId(1)), (JobId(1), NodeId(0))]);
        assert_eq!(s.at(3), &[(JobId(1), NodeId(1))]);
        // Shrink it again.
        s.replace_step(2, vec![]);
        assert_eq!(s.load(2), 0);
        assert_eq!(s.at(3), &[(JobId(1), NodeId(1))]);
        assert_eq!(s.horizon(), 3);
    }
}
