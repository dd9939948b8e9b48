//! The accuracy gate: sampled answers checked against the exact oracle
//! (`qc_workloads::exact`) over the values the generator sent.
//!
//! The generator logs every value it sends to a *tracked* key (per
//! window on the windowed workload); after the run each sampled answer is
//! judged against the sorted log. On the unwindowed workloads a key keeps
//! growing while it is queried, so an answer is judged against everything
//! the key was sent by the end of the run — sound because a key's values
//! are independent draws from one distribution (see `gen::Values`), and
//! only answers over at least 8192 values are sampled, which puts the
//! prefix an answer saw within ~0.006 rank error of the whole. On the
//! windowed workload queries cover only settled windows, and on
//! `ingest_mix` every tracked key is read once more after the daemon has
//! settled: there the oracle is exact.

use std::collections::{BTreeMap, HashMap};

use qc_common::bits::OrderedBits;
use qc_common::error::sequential_epsilon;
use qc_workloads::exact::ExactOracle;

/// Sketch level size of the server's default store.
pub const K: usize = 256;

/// Largest accepted normalized rank error: 5 × ε(k = 256) ≈ 0.05 — the
/// slack the repository's own bound tests (`tests/pac_bounds.rs`) apply
/// to the one-sided ε(k) fit, which is a typical error, not a maximum.
pub fn gate() -> f64 {
    5.0 * sequential_epsilon(K)
}

/// Every value sent to the tracked keys, by `(key index, window id)`
/// (window 0 on the unwindowed workloads).
#[derive(Default)]
pub struct Sent {
    slots: BTreeMap<(u32, u64), Vec<f64>>,
}

impl Sent {
    /// Log `values` as sent to `key` in `window`.
    pub fn record(&mut self, key: usize, window: u64, values: &[f64]) {
        self.slots.entry((key as u32, window)).or_default().extend_from_slice(values);
    }

    /// Fold another thread's log into this one.
    pub fn absorb(&mut self, other: Sent) {
        for (slot, mut values) in other.slots {
            self.slots.entry(slot).or_default().append(&mut values);
        }
    }

    /// Values logged for `key` (all windows).
    pub fn count(&self, key: usize) -> u64 {
        let key = key as u32;
        self.slots.range((key, 0)..=(key, u64::MAX)).map(|(_, v)| v.len() as u64).sum()
    }

    fn oracle(&self, scope: &Scope) -> ExactOracle {
        // Inclusive window bounds; an empty half-open range selects nothing.
        let (first, last) = match scope.windows {
            None => (0, u64::MAX),
            Some((w0, w1)) if w1 > w0 => (w0, w1 - 1),
            Some(_) => return ExactOracle::from_bits(Vec::new()),
        };
        let mut bits = Vec::new();
        for &key in &scope.keys {
            for (_, values) in self.slots.range((key, first)..=(key, last)) {
                bits.extend(values.iter().map(|v| v.to_ordered_bits()));
            }
        }
        ExactOracle::from_bits(bits)
    }
}

/// What an answer was computed over.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Scope {
    /// Tracked key indices unioned.
    pub keys: Vec<u32>,
    /// Half-open window-id range, `None` for the whole stream.
    pub windows: Option<(u64, u64)>,
}

impl Scope {
    /// One key's whole stream.
    pub fn key(key: usize) -> Scope {
        Scope { keys: vec![key as u32], windows: None }
    }
}

/// What was asked.
#[derive(Clone, Copy, Debug)]
pub enum Ask {
    /// The φ-quantile.
    Quantile(f64),
    /// The normalized rank of a value.
    Rank(f64),
}

/// One sampled answer awaiting judgement.
#[derive(Clone, Debug)]
pub struct Question {
    /// The data it was asked of.
    pub scope: Scope,
    /// The question.
    pub ask: Ask,
    /// The server's answer.
    pub answer: Option<f64>,
}

/// The outcome of judging a batch of questions.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers judged.
    pub checked: usize,
    /// Largest normalized rank error seen.
    pub worst: f64,
    /// One line per answer beyond the gate (or missing).
    pub failures: Vec<String>,
}

/// Judge every question against the oracle over its scope.
pub fn judge(sent: &Sent, questions: &[Question]) -> Verdict {
    let mut oracles: HashMap<&Scope, ExactOracle> = HashMap::new();
    let mut verdict = Verdict::default();
    for q in questions {
        let oracle = oracles.entry(&q.scope).or_insert_with(|| sent.oracle(&q.scope));
        let error = match (q.ask, q.answer) {
            _ if oracle.n() == 0 => None,
            (Ask::Quantile(phi), Some(x)) => Some(oracle.rank_error(phi, x.to_ordered_bits())),
            (Ask::Rank(value), Some(rank)) => {
                let (lo, hi) = oracle.rank_interval_bits(value.to_ordered_bits());
                let n = oracle.n() as f64;
                Some((lo as f64 / n - rank).max(rank - hi as f64 / n).max(0.0))
            }
            (_, None) => None,
        };
        verdict.checked += 1;
        match error {
            Some(e) if e <= gate() => verdict.worst = verdict.worst.max(e),
            Some(e) => {
                verdict.worst = verdict.worst.max(e);
                verdict.failures.push(format!(
                    "{:?} {:?} -> {:?}: rank error {e:.4}",
                    q.scope, q.ask, q.answer
                ));
            }
            None => verdict.failures.push(format!(
                "{:?} {:?} -> {:?} over {} sent values",
                q.scope,
                q.ask,
                q.answer,
                oracle.n()
            )),
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent_ramp() -> Sent {
        let mut sent = Sent::default();
        for w in 0..4u64 {
            let values: Vec<f64> = (0..250).map(|i| (w * 250 + i) as f64).collect();
            sent.record(3, w, &values);
        }
        sent
    }

    #[test]
    fn exact_answers_pass_and_wrong_ones_fail() {
        let sent = sent_ramp();
        let ask = |scope: Scope, ask, answer| Question { scope, ask, answer };
        let all = Scope::key(3);
        let last_two = Scope { keys: vec![3], windows: Some((2, 4)) };
        let verdict = judge(
            &sent,
            &[
                ask(all.clone(), Ask::Quantile(0.5), Some(500.0)),
                ask(last_two.clone(), Ask::Quantile(0.5), Some(750.0)),
                ask(all.clone(), Ask::Rank(250.0), Some(0.25)),
            ],
        );
        assert_eq!((verdict.checked, verdict.failures.len()), (3, 0), "{:?}", verdict.failures);
        assert!(verdict.worst < 0.002);
        // The whole-stream median is not the last two windows' median.
        let verdict = judge(&sent, &[ask(last_two, Ask::Quantile(0.5), Some(500.0))]);
        assert_eq!(verdict.failures.len(), 1);
        assert!((verdict.worst - 0.5).abs() < 0.01);
        // A missing answer over sent data is a failure too.
        assert_eq!(judge(&sent, &[ask(all, Ask::Quantile(0.5), None)]).failures.len(), 1);
    }

    #[test]
    fn an_answer_is_only_right_about_the_log_it_was_computed_over() {
        // A first drive sends a cold key 100 values and reads its exact
        // median back: judged then, the answer is right.
        let mut sent = Sent::default();
        sent.record(9, 0, &(0..100).map(f64::from).collect::<Vec<_>>());
        let asked =
            [Question { scope: Scope::key(9), ask: Ask::Quantile(0.5), answer: Some(49.0) }];
        assert!(judge(&sent, &asked).failures.is_empty());
        // A second drive on the same server grows the key by half. Judged
        // only now, the same answer is off by 0.17 in rank: every drive
        // must be judged before the next one sends (`Workload::run` does).
        sent.record(9, 0, &(100..150).map(f64::from).collect::<Vec<_>>());
        let late = judge(&sent, &asked);
        assert_eq!(late.failures.len(), 1);
        assert!(late.worst > gate());
    }

    #[test]
    fn logs_from_two_threads_fold_together() {
        let mut a = sent_ramp();
        let mut b = Sent::default();
        b.record(3, 1, &[1e9]);
        b.record(4, 0, &[1.0, 2.0]);
        a.absorb(b);
        assert_eq!(a.count(3), 1001);
        assert_eq!(a.count(4), 2);
        assert_eq!(a.count(5), 0);
    }
}
