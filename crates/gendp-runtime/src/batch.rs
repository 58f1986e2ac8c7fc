//! End-to-end batch alignment: reference genome + read set in, scores +
//! device utilization out.

use gendp_kernels::Scoring;
use gendp_seq::{Genome, Read};

use crate::device::{Device, DeviceConfig, RuntimeError};
use crate::report::DeviceReport;
use crate::task::{Task, TaskValue};

/// Extra reference bases beyond the read length on each read's window,
/// so indel-carrying reads still fit their true locus.
const WINDOW_SLACK: usize = 8;

/// Drives a whole read set through a [`Device`]: each read becomes one
/// local-alignment BSW task against its reference window, the device
/// executes the batch across its arrays, and the caller gets the scores
/// in read order plus the utilization report.
#[derive(Debug)]
pub struct BatchAligner {
    reference: Genome,
    scoring: Scoring,
    config: DeviceConfig,
}

/// The outcome of one aligned batch.
#[derive(Debug, Clone)]
pub struct BatchAlignment {
    /// Local alignment score per read, in input order.
    pub scores: Vec<i32>,
    /// Device utilization over the batch.
    pub report: DeviceReport,
}

impl BatchAligner {
    /// Builds an aligner over `reference` with the given scoring and
    /// device shape.
    pub fn new(reference: Genome, scoring: Scoring, config: DeviceConfig) -> BatchAligner {
        BatchAligner {
            reference,
            scoring,
            config,
        }
    }

    /// The reference genome being aligned against.
    pub fn reference(&self) -> &Genome {
        &self.reference
    }

    /// Aligns every read against its reference window on a freshly built
    /// device and returns the scores in read order.
    ///
    /// # Errors
    ///
    /// Alignment is all-or-nothing: the device's retry policy gets every
    /// chance first ([`BatchOutcome::into_strict`](crate::BatchOutcome::into_strict)),
    /// then any task that still failed propagates as a [`RuntimeError`].
    pub fn align(&self, reads: &[Read]) -> Result<BatchAlignment, RuntimeError> {
        let tasks: Vec<Task> = reads
            .iter()
            .map(|read| {
                let want = read.seq.len() + WINDOW_SLACK;
                let start = read.true_pos.min(self.reference.len().saturating_sub(want));
                let len = want.min(self.reference.len() - start);
                Task::bsw_local(
                    read.seq.clone(),
                    self.reference.window(start, len),
                    self.scoring,
                )
            })
            .collect();
        let mut device = Device::new(self.config);
        let batch = device.run_batch(tasks)?.into_strict()?;
        let scores = batch
            .results
            .iter()
            .map(|r| match &r.value {
                TaskValue::Score(s) => *s,
                other => unreachable!("BSW task returned {other:?}"),
            })
            .collect();
        Ok(BatchAlignment {
            scores,
            report: batch.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_seq::ShortReadProfile;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn aligns_sampled_reads_with_positive_scores() {
        let mut rng = SmallRng::seed_from_u64(31);
        let genome = Genome::random(400, &mut rng);
        let profile = ShortReadProfile {
            len: 24,
            ..ShortReadProfile::illumina()
        };
        let reads = profile.sample(&genome, 10, &mut rng);
        let aligner = BatchAligner::new(
            genome,
            Scoring::bwa_mem(),
            DeviceConfig {
                int_arrays: 4,
                float_arrays: 0,
                workers: 2,
                ..DeviceConfig::default()
            },
        );
        let aligned = aligner.align(&reads).expect("batch alignment");
        assert_eq!(aligned.scores.len(), reads.len());
        // Reads were sampled from the genome: each aligns with a clearly
        // positive local score at its true locus.
        for (i, score) in aligned.scores.iter().enumerate() {
            assert!(*score > 0, "read {i} scored {score}");
        }
        assert_eq!(aligned.report.tasks(), reads.len());
        assert!(aligned.report.gcups() > 0.0);
    }
}
