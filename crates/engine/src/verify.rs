//! Reference execution and the exactly-once oracle: the join every
//! strategy must reproduce, and the one rule a drained run is held to.
//!
//! [`reference_run`] runs the plan sequentially against the store's
//! reference lookup path — no simulation, no optimizer — and produces the
//! same order-independent output fingerprint the cluster computes. Any
//! divergence in a run means a tuple was joined to the wrong value, lost,
//! duplicated, or its params were corrupted in flight.
//!
//! [`Expected`] states what a correct drained run reports. Every suite,
//! figure check and fuzzer that judges a [`RunReport`] calls
//! [`Expected::check`] instead of restating the rule:
//!
//! * **accounting** — `completed + shed` equals the offered tuples, and
//!   `gave_up ≤ completed` (a gave-up tuple completes empty);
//! * **outcome log** — every logged seq is an offered tuple, logged once,
//!   as `Shed` or `GaveUp` (never `Done`), and the log's shed and gave-up
//!   counts equal the report's counters;
//! * **fingerprint** — the run's XOR fingerprint equals the reference
//!   XOR the contributions of the logged tuples. A lost output breaks the
//!   equality, and so does a duplicated one: XOR cancels pairs, so a
//!   tuple emitted twice drops out of the fingerprint instead of hiding.
//!
//! Limits, by construction rather than by guess:
//!
//! * **Multi-stage plans.** A tuple shed or given up after stage 1 has
//!   already contributed stage 1's output, and the log does not say at
//!   which stage it stopped. So for a multi-stage plan with a non-empty
//!   outcome log, `check` checks everything but the fingerprint.
//! * **Mid-run store updates** are out of scope: the reference joins the
//!   initial store.
//! * **Runs cut at a horizon** before draining are out of scope: their
//!   unfinished tuples are neither completed nor shed.

use std::sync::Arc;

use jl_store::{StoreCluster, UdfRegistry};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::compute_node::TupleFate;
use crate::plan::{encode_params, output_fingerprint, survives, JobPlan, JobTuple};
use crate::runner::RunReport;

/// Result of a reference execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// XOR fingerprint over all stage outputs.
    pub fingerprint: u64,
    /// Tuples fully processed.
    pub completed: u64,
    /// Total stage outputs produced.
    pub outputs: u64,
}

/// The one reference join loop: run each tuple through `plan` against
/// the store, handing `each(seq, contribution)` the XOR of its stage
/// outputs, and return the whole join's [`Reference`].
fn join_each(
    store: &StoreCluster,
    udfs: &UdfRegistry,
    plan: &JobPlan,
    tuples: &[JobTuple],
    mut each: impl FnMut(u64, u64),
) -> Reference {
    let (mut fingerprint, mut outputs) = (0u64, 0u64);
    for t in tuples {
        let mut contribution = 0u64;
        for (stage_idx, stage) in plan.stages.iter().enumerate() {
            let stage_u16 = stage_idx as u16;
            let row = &t.keys[stage_idx];
            let Some(value) = store.reference_get(stage.table, row) else {
                break; // tuple joins to nothing: dies here
            };
            let params = encode_params(t.seq, stage_u16, t.params_size);
            let udf = udfs.get(stage.udf).expect("udf registered");
            let out = udf.apply(row, &params, value);
            contribution ^= output_fingerprint(t.seq, stage_u16, &out);
            outputs += 1;
            if !survives(t.seq, stage_u16, stage.selectivity) {
                break;
            }
        }
        fingerprint ^= contribution;
        each(t.seq, contribution);
    }
    Reference {
        fingerprint,
        completed: tuples.len() as u64,
        outputs,
    }
}

/// Execute `plan` over `tuples` directly against the store.
pub fn reference_run(
    store: &StoreCluster,
    udfs: &UdfRegistry,
    plan: &Arc<JobPlan>,
    tuples: &[JobTuple],
) -> Reference {
    join_each(store, udfs, plan, tuples, |_, _| {})
}

/// What a correct drained run of one job reports: the reference join plus
/// each offered tuple's own contribution to it. See the module docs for
/// the rule [`check`](Self::check) applies and its limits.
#[derive(Debug, Clone)]
pub struct Expected {
    reference: Reference,
    /// Each offered tuple's XOR contribution to the reference, by seq.
    contributions: FxHashMap<u64, u64>,
    multi_stage: bool,
}

impl Expected {
    /// Join `tuples` through `plan` against the store, once. The tuples'
    /// seqs must be unique.
    pub fn new(
        store: &StoreCluster,
        udfs: &UdfRegistry,
        plan: &Arc<JobPlan>,
        tuples: &[JobTuple],
    ) -> Self {
        let mut contributions = FxHashMap::default();
        let reference = join_each(store, udfs, plan, tuples, |seq, fp| {
            contributions.insert(seq, fp);
        });
        let unique = contributions.len() == tuples.len();
        assert!(unique, "tuple seqs must be unique");
        Expected {
            reference,
            contributions,
            multi_stage: plan.stages.len() > 1,
        }
    }

    /// The reference join itself.
    pub fn reference(&self) -> Reference {
        self.reference
    }

    /// Reconcile `r` against the reference: `Err` names the first
    /// violated rule.
    pub fn check(&self, r: &RunReport) -> Result<(), String> {
        let offered = self.reference.completed;
        if r.completed + r.shed != offered {
            return Err(format!(
                "accounting: completed {} + shed {} != offered {offered} (a tuple was lost or counted twice)",
                r.completed, r.shed
            ));
        }
        if r.gave_up > r.completed {
            return Err(format!(
                "accounting: gave_up {} exceeds completed {}",
                r.gave_up, r.completed
            ));
        }
        let mut seen = FxHashSet::default();
        let (mut shed, mut gave_up) = (0u64, 0u64);
        let mut expected = self.reference.fingerprint;
        for &(seq, fate) in &r.outcomes {
            let Some(fp) = self.contributions.get(&seq) else {
                return Err(format!("outcome log names unknown tuple seq {seq}"));
            };
            if !seen.insert(seq) {
                return Err(format!("outcome log names tuple seq {seq} twice"));
            }
            match fate {
                TupleFate::Shed => shed += 1,
                TupleFate::GaveUp => gave_up += 1,
                TupleFate::Done => {
                    return Err(format!("outcome log names completed tuple seq {seq}"))
                }
            }
            // Shed tuples never produced output; gave-up tuples completed
            // empty. Either way their contribution is absent.
            expected ^= fp;
        }
        if (shed, gave_up) != (r.shed, r.gave_up) {
            return Err(format!(
                "outcome log records {shed} shed and {gave_up} gave-up tuples, report counts {} and {}",
                r.shed, r.gave_up
            ));
        }
        if self.multi_stage && !r.outcomes.is_empty() {
            return Ok(()); // stage-1 outputs of stopped tuples are unknown
        }
        if r.fingerprint != expected {
            return Err(format!(
                "fingerprint {:#x} != reference-minus-outcomes {expected:#x} (lost or duplicated output)",
                r.fingerprint
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_job;
    use crate::runner::tests::setup;
    use jl_core::Strategy;
    use TupleFate::{Done, GaveUp, Shed};

    /// The runner tests' healthy job, `stages` deep (each stage joins the
    /// tuple's key against the one table), its oracle and its report.
    fn run(stages: usize) -> (Expected, RunReport) {
        let (mut job, store, udfs, mut tuples) = setup(Strategy::Full, 1.0);
        let stage = job.plan.stages[0].clone();
        job.plan = Arc::new(JobPlan {
            stages: vec![stage; stages],
        });
        for t in &mut tuples {
            t.keys = vec![t.keys[0].clone(); stages];
        }
        let expected = Expected::new(&store, &udfs, &job.plan, &tuples);
        let r = run_job(&job, store, udfs, tuples, vec![]);
        assert_eq!(expected.check(&r), Ok(()));
        (expected, r)
    }

    /// Each violation kind as a row: what it is, completions taken away,
    /// `shed`, `gave_up`, the outcome log, the seqs whose contribution the
    /// fingerprint loses, and the error it must name ("" = must pass).
    #[rustfmt::skip]
    type Row = (&'static str, u64, u64, u64, &'static [(u64, TupleFate)], &'static [u64], &'static str);

    #[test]
    fn check_names_each_violation() {
        let (expected, healthy) = run(1);
        #[rustfmt::skip]
        let rows: [Row; 10] = [
            ("lost output", 0, 0, 0, &[], &[3], "lost or duplicated output"),
            // A second copy of an output XORs the first one out.
            ("duplicated output", 0, 0, 0, &[], &[5], "lost or duplicated output"),
            ("vanished tuple", 1, 0, 0, &[], &[], "completed 1999 + shed 0 != offered 2000"),
            ("gave up > completed", 0, 0, 2001, &[], &[], "gave_up 2001 exceeds completed"),
            ("unknown seq", 1, 1, 0, &[(9999, Shed)], &[], "unknown tuple seq 9999"),
            ("seq logged twice", 2, 2, 0, &[(3, Shed), (3, Shed)], &[], "seq 3 twice"),
            ("Done entry", 0, 0, 0, &[(3, Done)], &[], "names completed tuple seq 3"),
            ("shed count", 1, 1, 0, &[(4, GaveUp)], &[], "0 shed and 1 gave-up tuples, report counts 1 and 0"),
            ("gave-up count", 0, 0, 0, &[(4, GaveUp)], &[], "0 shed and 1 gave-up tuples, report counts 0 and 0"),
            ("consistent log", 1, 1, 1, &[(3, Shed), (4, GaveUp)], &[3, 4], ""),
        ];
        for (what, lost, shed, gave_up, log, missing, err) in rows {
            let mut r = healthy.clone();
            r.completed -= lost;
            (r.shed, r.gave_up, r.outcomes) = (shed, gave_up, log.to_vec());
            for seq in missing {
                r.fingerprint ^= expected.contributions[seq];
            }
            match expected.check(&r) {
                Ok(()) => assert!(err.is_empty(), "{what} passed"),
                Err(e) => assert!(!err.is_empty() && e.contains(err), "{what}: {e}"),
            }
        }
    }

    /// The multi-stage limit: with tuples logged the fingerprint is not
    /// judged (stage 1 may have contributed); the counters still are.
    #[test]
    fn multi_stage_log_skips_only_the_fingerprint() {
        let (expected, mut r) = run(2);
        r.fingerprint ^= 1;
        let err = expected.check(&r).unwrap_err();
        assert!(err.contains("lost or duplicated"), "{err}");
        (r.completed, r.shed, r.outcomes) = (r.completed - 1, 1, vec![(3, Shed)]);
        assert_eq!(expected.check(&r), Ok(()));
        r.shed = 0;
        assert!(expected.check(&r).is_err(), "counters are still checked");
    }
}
