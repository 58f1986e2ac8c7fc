//! Whole-device batch alignment (paper Fig. 4, §7.2): drive a read set
//! through all of DPAx's parallel arrays at once with the
//! `gendp-runtime` batch executor, then print the per-array utilization
//! report at several host worker counts.
//!
//! ```sh
//! cargo run --release --example batch_alignment
//! ```

use gendp::dpax::TierPolicy;
use gendp::kernels::Scoring;
use gendp::runtime::{BatchAligner, DeviceConfig};
use gendp::seq::{Genome, ShortReadProfile};
use rand::{rngs::SmallRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(17);
    let genome = Genome::random(20_000, &mut rng);
    let profile = ShortReadProfile {
        len: 32, // short tables keep the example fast in debug builds
        ..ShortReadProfile::illumina()
    };
    let reads = profile.sample(&genome, 64, &mut rng);

    let worker_counts = [1, 2, 8];
    let mut baseline_scores = None;
    for workers in worker_counts {
        let aligner = BatchAligner::new(
            genome.clone(),
            Scoring::bwa_mem(),
            DeviceConfig {
                int_arrays: 8,
                float_arrays: 0,
                workers,
                // Functional tier where a task lowers to one (2-D
                // wavefronts do), decoded everywhere else; results are
                // bit-identical on every tier.
                tiers: TierPolicy::functional(),
                ..DeviceConfig::default()
            },
        );
        let aligned = aligner.align(&reads)?;
        println!("=== {workers} workers ===");
        print!("{}", aligned.report);
        println!(
            "aggregate: {:.3} cells/cycle, tile balance {:.2}",
            aligned.report.aggregate_run().cells_per_cycle(),
            aligned.report.tile_report().balance(),
        );
        println!();

        // Placement never changes the scores.
        match &baseline_scores {
            None => baseline_scores = Some(aligned.scores),
            Some(first) => assert_eq!(first, &aligned.scores, "{workers} workers"),
        }
    }
    println!(
        "all {} worker counts produced identical scores for {} reads",
        worker_counts.len(),
        reads.len()
    );
    Ok(())
}
