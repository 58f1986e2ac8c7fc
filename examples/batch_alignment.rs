//! Whole-device batch alignment (paper Fig. 4, §7.2): drive a read set
//! through all of DPAx's parallel arrays at once with the
//! `gendp-runtime` batch executor, then print the per-array utilization
//! report and compare the dispatch policies.
//!
//! ```sh
//! cargo run --release --example batch_alignment
//! ```

use gendp::dpax::TierPolicy;
use gendp::kernels::Scoring;
use gendp::runtime::{BatchAligner, DeviceConfig, DispatchPolicy};
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

    let mut baseline_scores = None;
    for policy in DispatchPolicy::ALL {
        let aligner = BatchAligner::new(
            genome.clone(),
            Scoring::bwa_mem(),
            DeviceConfig {
                int_arrays: 8,
                float_arrays: 0,
                workers: 4,
                policy,
                // Functional tier where a task lowers to one (2-D
                // wavefronts do), decoded everywhere else; results are
                // bit-identical on every tier.
                tiers: TierPolicy::functional(),
                ..DeviceConfig::default()
            },
        );
        let aligned = aligner.align(&reads)?;
        println!("=== {} ===", policy.name());
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
            Some(first) => assert_eq!(first, &aligned.scores, "{}", policy.name()),
        }
    }
    println!(
        "all {} policies produced identical scores for {} reads",
        DispatchPolicy::ALL.len(),
        reads.len()
    );
    Ok(())
}
