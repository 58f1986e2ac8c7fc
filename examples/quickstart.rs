//! Quickstart: map a DP objective function onto the DPAx accelerator with
//! DPMap, run it on the cycle-level simulator, and compare against the
//! software kernel.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gendp::core::{bsw_score, AcceleratorRun, GendpPipeline, WavefrontTask};
use gendp::dpax::TierPolicy;
use gendp::dpmap::map_dfg;
use gendp::kernels::dfgs::bsw_dfg;
use gendp::kernels::{bsw_i32, AlignMode, Scoring};
use gendp::seq::{DnaSeq, Genome, MutationProfile};
use gendp::Accelerator;
use rand::{rngs::SmallRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small alignment task: a noisy read against its source window.
    let mut rng = SmallRng::seed_from_u64(7);
    let genome = Genome::random(400, &mut rng);
    let target: DnaSeq = genome.window(100, 60);
    let query = MutationProfile::illumina().apply(&target, &mut rng);
    println!("query : {query}");
    println!("target: {target}");

    // 2. Look at what DPMap does with the BSW objective function.
    let scoring = Scoring::bwa_mem();
    let dfg = bsw_dfg(&scoring);
    let mapping = map_dfg(&dfg);
    println!(
        "\nDPMap: {} DFG operators -> {} compute-unit subgraphs in {} VLIW cycles",
        dfg.len(),
        mapping.stats.subgraphs,
        mapping.program.len()
    );
    println!("compute program:\n{}", mapping.program);

    // 3. Run the task on a simulated 4-PE integer array.
    let accel = GendpPipeline::bsw(&scoring);
    let rows: Vec<i32> = target.codes().iter().map(|&c| c as i32).collect();
    let cols: Vec<i32> = query.codes().iter().map(|&c| c as i32).collect();
    let out = accel.run(&rows, &cols, 4)?;
    let run = AcceleratorRun::from_stats(&out.stats);

    // 4. Compare against the reference software kernel.
    let reference = bsw_i32(&query, &target, &scoring, 1000, AlignMode::Local);
    println!(
        "\naccelerator score {}  |  reference score {}",
        bsw_score(&out),
        reference.score
    );
    assert_eq!(bsw_score(&out), reference.score);

    println!(
        "\n{} cells in {} cycles ({:.3} cells/cycle); {:.1} insts/cell; VLIW util {:.1}%",
        run.cells,
        run.cycles,
        run.cells_per_cycle(),
        run.insts_per_cell(),
        100.0 * run.vliw_utilization
    );
    println!(
        "one DPAx tile (16 arrays) at 2 GHz ~= {:.1} GCUPS on this kernel",
        run.gcups(16, 1)
    );

    // 5. The functional fast path: with the functional tier requested, a
    //    prepared task simulates its first execution and keeps its
    //    statistics, which depend on the task's shape alone. Later
    //    executions skip per-cycle simulation and report those statistics;
    //    outputs are bit-identical, and each run's provenance records which
    //    tier actually executed.
    let fast = GendpPipeline::bsw(&scoring).tiers(TierPolicy::functional());
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };
    let mut prep = Accelerator::prepare(&fast, &task);
    let first = prep.execute()?;
    let stats = prep.execute()?;
    let fout = fast.parse(&task, &prep, stats);
    assert_eq!(bsw_score(&fout), reference.score);
    assert_eq!(fout.stats, first);
    println!(
        "\nfunctional tier: score {}; first run `{}`, then `{}`, {} cycles each",
        bsw_score(&fout),
        first.tier,
        fout.stats.tier,
        fout.stats.cycles
    );
    Ok(())
}
