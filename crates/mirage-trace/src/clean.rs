//! Trace cleaning pipeline (§3.2 of the paper).
//!
//! Two manual filters are applied to the raw accounting records before any
//! model sees them:
//!
//! 1. **Over-sized requests** — jobs requesting more nodes than the
//!    production partition has (left over from the early-production phase
//!    when all nodes were in one partition) are dropped.
//! 2. **Sub-job merging** — jobs recorded separately but belonging to one
//!    logical Slurm job (identical name prefix followed by a sub-job index)
//!    are merged: the merged job's submit is the first sub-job's submit, its
//!    span covers first start to last end, and its runtime is the summed
//!    runtime of its parts.
//!
//! Dependencies between jobs are *not* reconstructed — like the paper, we
//! treat dependent jobs as independent submissions at different times.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::job::JobRecord;

/// What the cleaning pass did, for Table 1 style reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanReport {
    /// Jobs in the raw trace.
    pub original: usize,
    /// Jobs dropped for requesting more nodes than the partition has.
    pub oversized_removed: usize,
    /// Chained groups that were collapsed into single jobs.
    pub groups_merged: usize,
    /// Sub-jobs absorbed by merging (records removed beyond the survivor).
    pub subjobs_absorbed: usize,
    /// Jobs remaining after cleaning.
    pub filtered: usize,
}

/// Runs the full §3.2 pipeline: over-sized filter, then sub-job merge.
/// Returns the cleaned jobs (sorted by submit time, ids reassigned) and a
/// report of what was removed.
pub fn clean_trace(jobs: &[JobRecord], partition_nodes: u32) -> (Vec<JobRecord>, CleanReport) {
    let original = jobs.len();
    let sized: Vec<JobRecord> = jobs
        .iter()
        .filter(|j| j.nodes <= partition_nodes)
        .cloned()
        .collect();
    let oversized_removed = original - sized.len();

    let (mut merged, groups_merged, subjobs_absorbed) = merge_subjobs(sized);

    merged.sort_by_key(|j| (j.submit, j.id));
    for (i, j) in merged.iter_mut().enumerate() {
        j.id = i as u64 + 1;
    }
    let filtered = merged.len();
    (
        merged,
        CleanReport {
            original,
            oversized_removed,
            groups_merged,
            subjobs_absorbed,
            filtered,
        },
    )
}

/// Merges sub-jobs sharing a `<prefix>_<index>` name (same user) into one
/// record. Returns (jobs, merged group count, absorbed record count).
fn merge_subjobs(jobs: Vec<JobRecord>) -> (Vec<JobRecord>, usize, usize) {
    // Group indices by (user, name prefix). An ordered map visits groups
    // in key order, and it builds and frees its keys and index lists in
    // the same order in every process: a `HashMap` freed them in its
    // per-process random order, which moved later heap layout, and with
    // it the peak RSS of a program that cleans a trace, between
    // identical runs.
    let mut groups: BTreeMap<(u32, String), Vec<usize>> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        if let Some((prefix, _)) = j.subjob_key() {
            groups
                .entry((j.user, prefix.to_string()))
                .or_default()
                .push(i);
        }
    }

    let mut absorbed = vec![false; jobs.len()];
    let mut replacements: Vec<JobRecord> = Vec::new();
    let mut groups_merged = 0usize;
    let mut subjobs_absorbed = 0usize;

    for (key, members) in &groups {
        if members.len() < 2 {
            continue; // a lone "_3" suffix is just a name, not a chain
        }
        let mut parts: Vec<&JobRecord> = members.iter().map(|&i| &jobs[i]).collect();
        parts.sort_by_key(|j| (j.subjob_key().map(|(_, k)| k).unwrap_or(u64::MAX), j.submit));

        let first = parts[0];
        let mut merged = first.clone();
        merged.name = key.1.clone();
        merged.runtime = parts.iter().map(|p| p.runtime).sum();
        merged.timelimit = parts
            .iter()
            .map(|p| p.timelimit)
            .max()
            .unwrap_or(first.timelimit);
        merged.nodes = parts.iter().map(|p| p.nodes).max().unwrap_or(first.nodes);
        // Start of the first sub-job, end of the last (paper wording).
        merged.start = parts.iter().filter_map(|p| p.start).min();
        merged.end = parts.iter().filter_map(|p| p.end).max();

        for &i in members {
            absorbed[i] = true;
        }
        groups_merged += 1;
        subjobs_absorbed += members.len() - 1;
        replacements.push(merged);
    }

    let mut out: Vec<JobRecord> = jobs
        .into_iter()
        .zip(absorbed)
        .filter_map(|(j, a)| (!a).then_some(j))
        .collect();
    out.extend(replacements);
    (out, groups_merged, subjobs_absorbed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;

    fn j(id: u64, name: &str, user: u32, submit: i64, nodes: u32, runtime: i64) -> JobRecord {
        JobRecord::new(
            id,
            name,
            user,
            submit,
            nodes,
            2 * runtime.max(HOUR),
            runtime,
        )
    }

    #[test]
    fn oversized_jobs_are_dropped() {
        let jobs = vec![
            j(1, "a", 1, 0, 4, HOUR),
            j(2, "b", 1, 10, 100, HOUR),
            j(3, "c", 2, 20, 8, HOUR),
        ];
        let (clean, report) = clean_trace(&jobs, 8);
        assert_eq!(clean.len(), 2);
        assert_eq!(report.oversized_removed, 1);
        assert_eq!(report.original, 3);
        assert_eq!(report.filtered, 2);
    }

    #[test]
    fn subjob_chains_merge_into_one_record() {
        let jobs = vec![
            j(1, "train_0", 5, 0, 2, HOUR),
            j(2, "train_1", 5, HOUR, 2, HOUR),
            j(3, "train_2", 5, 2 * HOUR, 2, 2 * HOUR),
            j(4, "other", 6, 50, 1, HOUR),
        ];
        let (clean, report) = clean_trace(&jobs, 16);
        assert_eq!(report.groups_merged, 1);
        assert_eq!(report.subjobs_absorbed, 2);
        assert_eq!(clean.len(), 2);
        let merged = clean.iter().find(|x| x.name == "train").unwrap();
        assert_eq!(merged.submit, 0);
        assert_eq!(merged.runtime, 4 * HOUR);
        assert_eq!(merged.nodes, 2);
    }

    #[test]
    fn merged_span_covers_first_start_to_last_end() {
        let mut a = j(1, "svc_0", 5, 0, 1, HOUR);
        a.complete_at(10);
        let mut b = j(2, "svc_1", 5, HOUR, 1, HOUR);
        b.complete_at(2 * HOUR);
        let (clean, _) = clean_trace(&[a, b], 4);
        let m = &clean[0];
        assert_eq!(m.start, Some(10));
        assert_eq!(m.end, Some(3 * HOUR));
    }

    #[test]
    fn same_prefix_different_users_not_merged() {
        let jobs = vec![j(1, "run_0", 1, 0, 1, HOUR), j(2, "run_1", 2, 10, 1, HOUR)];
        let (clean, report) = clean_trace(&jobs, 4);
        assert_eq!(clean.len(), 2);
        assert_eq!(report.groups_merged, 0);
    }

    #[test]
    fn single_suffix_job_is_left_alone() {
        let jobs = vec![j(1, "exp_3", 1, 0, 1, HOUR)];
        let (clean, report) = clean_trace(&jobs, 4);
        assert_eq!(clean.len(), 1);
        assert_eq!(clean[0].name, "exp_3");
        assert_eq!(report.groups_merged, 0);
    }

    #[test]
    fn ids_are_reassigned_sequentially() {
        let jobs = vec![j(9, "b", 1, 100, 1, HOUR), j(7, "a", 1, 0, 1, HOUR)];
        let (clean, _) = clean_trace(&jobs, 4);
        assert_eq!(clean[0].name, "a");
        assert_eq!(clean[0].id, 1);
        assert_eq!(clean[1].id, 2);
    }

    #[test]
    fn empty_trace_is_fine() {
        let (clean, report) = clean_trace(&[], 4);
        assert!(clean.is_empty());
        assert_eq!(report.original, 0);
        assert_eq!(report.filtered, 0);
    }
}
